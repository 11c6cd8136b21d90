"""Amplitude terms (free-space coefficient, waveguide phase and loss) and
the power gains of effective channels."""

import cmath
import math
import re

import numpy as np
import pytest

import helpers
from pinchsim import (PowerAllocation, SetEvaluator, SystemConfig, amplitudes,
                      dbm_to_watts, derived_rf, effective_channel,
                      make_deployment, power_gains, stream_rng, sum_rate)
from pinchsim.channel import selection
from pinchsim.scenario import waveguide_points

CFG = SystemConfig()
_, LAM_G, ETA = derived_rf(CFG)
FEED = np.array([0.0, 0.0, 3.0])


def term(user, antenna, feed=None, cfg=CFG):
    """One entry of `amplitudes` for (x, y, z) points: the coefficient alone
    when feed is None."""
    return complex(amplitudes(cfg, np.array([user]), np.array([antenna]),
                              feed)[0, 0])


def guide_factor(antenna, cfg=CFG):
    """What the guide does to an antenna's term: phase rotation and loss."""
    user = (antenna[0], 1.0, 0.0)
    return term(user, antenna, FEED, cfg) / term(user, antenna, None, cfg)


def test_coeff_magnitude_at_unit_distance():
    c = term((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert math.isclose(abs(c), ETA, rel_tol=1e-12)


def test_coeff_inverse_distance_law():
    user = (0.0, 0.0, 0.0)
    c1 = term(user, (0.0, 0.0, 1.0))
    c2 = term(user, (0.0, 0.0, 2.0))
    assert math.isclose(abs(c2) / abs(c1), 0.5, rel_tol=1e-12)


def test_coeff_directly_overhead():
    # antenna 3 m above the user: |coeff| = eta / 3
    c = term((5.0, 0.0, 0.0), (5.0, 0.0, 3.0))
    assert math.isclose(abs(c), 0.0002840086404307704, rel_tol=1e-12)
    assert math.isclose(abs(c), ETA / 3.0, rel_tol=1e-12)


def test_coeff_rejects_coincident_points():
    p = (1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        term(p, p)
    with pytest.raises(ValueError):
        term(p, p, FEED)


def test_phase_zero_at_feed():
    # an antenna at the feed: no rotation and no loss, even on a lossy guide
    user = (0.0, 1.0, 0.0)
    assert CFG.kappa_db_per_m > 0
    assert term(user, FEED, FEED) == term(user, FEED, None)


def test_phase_pi_at_half_guided_wavelength():
    lossless = SystemConfig(kappa_db_per_m=0.0)
    rotation = guide_factor((LAM_G / 2.0, 0.0, 3.0), lossless)
    assert cmath.isclose(rotation, -1.0, rel_tol=1e-12)


def test_phase_two_meters():
    lossless = SystemConfig(kappa_db_per_m=0.0)
    rotation = guide_factor((2.0, 0.0, 3.0), lossless)
    assert cmath.isclose(rotation, cmath.exp(-1j * 1643.1424972101183),
                         rel_tol=1e-12)
    assert cmath.isclose(rotation, cmath.exp(-2j * math.pi * 261.5142506353512),
                         rel_tol=1e-12)


def test_antenna_power_lossless():
    # P_t splits equally: S antennas, each heard by one user at unit amplitude
    for size in (1, 2, 4):
        assert power_gains(np.eye(size), 1.0).tolist() == [1.0 / size] * size
    lossless = SystemConfig(kappa_db_per_m=0.0)
    assert math.isclose(abs(guide_factor((7.3, 0.0, 3.0), lossless)), 1.0,
                        rel_tol=1e-15)


def test_antenna_power_attenuated():
    # 0.1 dB/m over 10 m is a 1 dB drop in power: 10^(-kappa d / 20) in amplitude
    lossy = SystemConfig(kappa_db_per_m=0.1)
    loss = abs(guide_factor((10.0, 0.0, 3.0), lossy))
    assert math.isclose(loss ** 2, 0.7943282347242815, rel_tol=1e-12)
    assert math.isclose(loss, 10.0 ** (-0.1 * 10.0 / 20.0), rel_tol=1e-12)
    # 2 W over two antennas at the feed: 1 W each
    assert power_gains(np.eye(2), 2.0).tolist() == [1.0, 1.0]


def test_active_set_validation():
    # every public path that takes grid indices, the evaluator's `utility`
    # among them, runs the one check, and a bad activation fails there with
    # the same message whichever path it took
    dep = make_deployment(CFG, stream_rng(2, 0, 0))
    alloc = PowerAllocation.equal(CFG.n_users)
    ev = SetEvaluator(CFG, dep, alloc)
    paths = (ev.utility,
             lambda indices: effective_channel(indices, dep, CFG),
             lambda indices: sum_rate(indices, dep, CFG, alloc))
    # a bool sorts and compares as 0 or 1, and numpy turns (True, 3) into
    # [1, 3]; it is still not a position index
    table = (((1, 1), "position indices must be distinct"),
             ((-1,), "position index out of range"),
             ((CFG.l_positions,), "position index out of range"),
             ((1.5,), "position indices must be integers"),
             ((True, 3), "position indices must be integers"))
    for indices, message in table:
        for path in paths:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                path(indices)
    assert selection((3, 1), CFG.l_positions).tolist() == [1, 3]
    # an off-grid antenna is a point handed to `amplitudes`, one term column
    off_grid = amplitudes(CFG, np.array([[2.0, 1.0, 0.0]]),
                          np.array([[1.0, 0.0, 3.0]]), FEED)
    assert off_grid.shape == (1, 1)


def test_empty_set_gives_zero_channels():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(2, 0, 0))
    gains = effective_channel((), dep, cfg)
    assert gains.tolist() == [0.0, 0.0]


def test_block_deployment_gives_each_drops_gains():
    cfg = SystemConfig(n_users=3)
    block = make_deployment(cfg, [stream_rng(2, 0, t) for t in range(4)])
    gains = effective_channel((1, 6), block, cfg)
    assert gains.shape == (4, 3)
    for t in range(4):
        dep = make_deployment(cfg, stream_rng(2, 0, t))
        assert gains[t].tolist() == effective_channel((1, 6), dep, cfg).tolist()
    assert effective_channel((), block, cfg).tolist() == [[0.0] * 3] * 4


def test_single_antenna_at_feed_collapses():
    # position 0 coincides with the feed: theta = 0, no dielectric loss,
    # so |h|^2 = P_t * eta^2 / r^2
    cfg = SystemConfig(kappa_db_per_m=0.0, pt_dbm=30.0)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    assert dep.positions[0].tolist() == dep.feed.tolist()
    gains = effective_channel((0,), dep, cfg)
    for user, gain in zip(dep.users, gains):
        r = math.dist(user, dep.positions[0])
        assert math.isclose(gain, 1.0 * ETA ** 2 / r ** 2, rel_tol=1e-12)


def test_destructive_interference():
    # two off-grid antennas half a guided wavelength apart, user on the
    # perpendicular bisector: equal amplitudes, total phases pi apart
    cfg = SystemConfig(kappa_db_per_m=0.0)
    dep = make_deployment(cfg, stream_rng(4, 0, 0))
    x0 = 4.0
    a = (x0, 0.0, cfg.height)
    b = (x0 + LAM_G / 2.0, 0.0, cfg.height)
    user = (x0 + LAM_G / 4.0, 1.0, 0.0)
    terms = amplitudes(cfg, np.array([user]), np.array([a, b]), dep.feed)
    h = math.sqrt(power_gains(terms, dbm_to_watts(cfg.pt_dbm))[0])
    single = abs(term(user, a))
    assert h < 1e-9 * single


def test_effective_channel_matches_reference():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        cfg, dep, alloc = helpers.random_instance(rng)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        points = dep.positions[list(sel)]
        pt = dbm_to_watts(cfg.pt_dbm)
        gains = effective_channel(sel, dep, cfg)
        per_user = (amplitudes(cfg, dep.users, points, dep.feed).sum(axis=1)
                    * math.sqrt(pt / len(sel)))
        ref = helpers.reference.reference_user_channels(
            dep.users.tolist(), points.tolist(), dep.feed.tolist(),
            pt, cfg.kappa_db_per_m,
            cfg.carrier_hz, cfg.n_eff)
        for h, g, h_ref in zip(per_user, gains, ref):
            assert cmath.isclose(h, h_ref, rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(g, abs(h_ref) ** 2, rel_tol=1e-12)


def test_effective_channel_rejects_amp_of_other_indices():
    # terms built at (1, 3) used to stand in for (5,): the sum rate of (1, 3)
    # came back, with P_t split over amp's two columns
    dep = make_deployment(CFG, stream_rng(2, 0, 0))
    alloc = PowerAllocation.equal(CFG.n_users)
    amp = amplitudes(CFG, dep.users, dep.positions[[1, 3]], dep.feed)
    for path in (lambda: effective_channel((5,), dep, CFG, amp),
                 lambda: sum_rate((5,), dep, CFG, alloc, amp)):
        with pytest.raises(ValueError, match="^amp must have one column per "
                                             "position index: got 2 for 1$"):
            path()
    assert (sum_rate((1, 3), dep, CFG, alloc, amp).sum_rate
            == sum_rate((1, 3), dep, CFG, alloc).sum_rate)


def test_gains_are_squared_magnitudes():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(5, 0, 0))
    gains = effective_channel((2, 7), dep, cfg)
    terms = amplitudes(cfg, dep.users, dep.positions[[2, 7]], dep.feed)
    per_user = terms.sum(axis=1) * math.sqrt(dbm_to_watts(cfg.pt_dbm) / 2)
    for h, g in zip(per_user, gains):
        assert math.isclose(g, abs(h) ** 2, rel_tol=1e-15)


def test_batched_amplitudes_equal_per_drop_calls_exactly():
    # a block of drops in one call: each drop's (N, S) slice equals, bit for
    # bit, its own call, with users fastest in memory
    rng = np.random.default_rng(510)
    for n, s, with_feed in ((1, 1, True), (3, 2, True), (8, 8, True),
                            (8, 60, True), (4, 5, False)):
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=min(s, 8),
                           l_positions=max(s, 2),
                           kappa_db_per_m=float(rng.choice([0.0, 0.1])))
        drops = [make_deployment(cfg, rng) for _ in range(5)]
        feed = drops[0].feed if with_feed else None
        points = [waveguide_points(rng.uniform(0.0, cfg.d1, s), cfg.height)
                  for _ in drops]
        users = np.stack([d.users for d in drops])
        block = amplitudes(cfg, users, np.stack(points), feed)
        shared = amplitudes(cfg, users, points[0], feed)  # points broadcast
        assert block.shape == shared.shape == (5, n, s)
        for i, d in enumerate(drops):
            assert block[i].flags.f_contiguous
            assert (block[i].tolist()
                    == amplitudes(cfg, d.users, points[i], feed).tolist())
            assert (shared[i].tolist()
                    == amplitudes(cfg, d.users, points[0], feed).tolist())
            pt = dbm_to_watts(cfg.pt_dbm)
            assert (power_gains(block[i], pt).tolist() == power_gains(
                amplitudes(cfg, d.users, points[i], feed), pt).tolist())


def test_batched_amplitudes_keep_the_singular_check():
    users = np.array([[[1.0, 0.0, 0.0]], [[2.0, 0.0, 3.0]]])
    with pytest.raises(ValueError, match="coincide"):
        amplitudes(CFG, users, np.array([[2.0, 0.0, 3.0]]), FEED)


def test_batch_of_activations_is_checked_row_by_row():
    # a (T, S) integer array is T activations: the batch paths run the same
    # check as one activation, on every row
    dep = make_deployment(CFG, stream_rng(2, 0, 0))
    alloc = PowerAllocation.equal(CFG.n_users)
    paths = (lambda rows: effective_channel(rows, dep, CFG),
             lambda rows: sum_rate(rows, dep, CFG, alloc))
    table = ((((0, 2), (1, 1)), "position indices must be distinct"),
             (((0, 2), (-1, 4)), "position index out of range"),
             (((0, CFG.l_positions),), "position index out of range"),
             (((0.0, 2.0),), "position indices must be integers"),
             (((True, False),), "position indices must be integers"))
    for rows, message in table:
        for path in paths:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                path(np.array(rows))
    rows = np.array([(3, 1), (0, 19), (7, 6)])
    gains = effective_channel(rows, dep, CFG)
    assert gains.shape == (3, CFG.n_users)
    for got, sel in zip(gains, rows.tolist()):
        assert got.tolist() == effective_channel(sel, dep, CFG).tolist()
    assert effective_channel(np.empty((3, 0), dtype=int), dep, CFG).tolist() \
        == [[0.0] * CFG.n_users] * 3
    amp = amplitudes(CFG, dep.users, dep.positions[[1, 3]], dep.feed)
    with pytest.raises(ValueError, match="got 2 for 3"):
        effective_channel(np.array([(1, 3, 5)]), dep, CFG, amp[None])
    # terms for another number of activations than the batch holds
    five = np.array([(1, 3)] * 5)
    for terms, indices in ((amp, five), (amp[None], five),
                           (np.stack([amp] * 5), np.array([1, 3])),
                           (amp[0], [1, 3])):
        with pytest.raises(ValueError, match="^amp must hold one"):
            effective_channel(indices, dep, CFG, terms)
        with pytest.raises(ValueError, match="^amp must hold one"):
            sum_rate(indices, dep, CFG, alloc, terms)


def test_a_batchs_first_bad_row_names_the_error():
    # the array check finds that a batch is bad; which row, and how, the
    # first bad row alone decides, whatever the later rows break
    dep = make_deployment(CFG, stream_rng(2, 0, 0))
    alloc = PowerAllocation.equal(CFG.n_users)
    for rows, message in ((((0, 2), (0, 0), (-1, 2)), "distinct"),
                          (((0, 2), (-1, 2), (0, 0)), "out of range"),
                          (((0, 2), (3, 1), (0, 0)), "distinct")):
        for path in (lambda r: effective_channel(r, dep, CFG),
                     lambda r: sum_rate(r, dep, CFG, alloc)):
            with pytest.raises(ValueError, match=f"^position ind.*{message}$"):
                path(np.array(rows))
