"""Amplitude terms (free-space coefficient, waveguide phase and loss) and
the power gains of effective channels."""

import cmath
import math

import numpy as np
import pytest

import helpers
from pinchsim import (ActiveSet, Point3, SystemConfig, amplitudes,
                      dbm_to_watts, derived_rf, effective_channel,
                      make_deployment, power_gains, stream_rng)

CFG = SystemConfig()
_, LAM_G, ETA = derived_rf(CFG)
FEED = Point3(0.0, 0.0, 3.0)


def term(user, antenna, feed=None, cfg=CFG):
    """One entry of `amplitudes`: the coefficient alone when feed is None."""
    return complex(amplitudes(cfg, (user,), (antenna,), feed)[0, 0])


def guide_factor(antenna, cfg=CFG):
    """What the guide does to an antenna's term: phase rotation and loss."""
    user = Point3(antenna.x, 1.0, 0.0)
    return term(user, antenna, FEED, cfg) / term(user, antenna, None, cfg)


def test_coeff_magnitude_at_unit_distance():
    c = term(Point3(0.0, 0.0, 0.0), Point3(0.0, 0.0, 1.0))
    assert math.isclose(abs(c), ETA, rel_tol=1e-12)


def test_coeff_inverse_distance_law():
    user = Point3(0.0, 0.0, 0.0)
    c1 = term(user, Point3(0.0, 0.0, 1.0))
    c2 = term(user, Point3(0.0, 0.0, 2.0))
    assert math.isclose(abs(c2) / abs(c1), 0.5, rel_tol=1e-12)


def test_coeff_directly_overhead():
    # antenna 3 m above the user: |coeff| = eta / 3
    c = term(Point3(5.0, 0.0, 0.0), Point3(5.0, 0.0, 3.0))
    assert math.isclose(abs(c), 0.0002840086404307704, rel_tol=1e-12)
    assert math.isclose(abs(c), ETA / 3.0, rel_tol=1e-12)


def test_coeff_rejects_coincident_points():
    p = Point3(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        term(p, p)
    with pytest.raises(ValueError):
        term(p, p, FEED)


def test_phase_zero_at_feed():
    # an antenna at the feed: no rotation and no loss, even on a lossy guide
    user = Point3(0.0, 1.0, 0.0)
    assert CFG.kappa_db_per_m > 0
    assert term(user, FEED, FEED) == term(user, FEED, None)


def test_phase_pi_at_half_guided_wavelength():
    lossless = SystemConfig(kappa_db_per_m=0.0)
    rotation = guide_factor(Point3(LAM_G / 2.0, 0.0, 3.0), lossless)
    assert cmath.isclose(rotation, -1.0, rel_tol=1e-12)


def test_phase_two_meters():
    lossless = SystemConfig(kappa_db_per_m=0.0)
    rotation = guide_factor(Point3(2.0, 0.0, 3.0), lossless)
    assert cmath.isclose(rotation, cmath.exp(-1j * 1643.1424972101183),
                         rel_tol=1e-12)
    assert cmath.isclose(rotation, cmath.exp(-2j * math.pi * 261.5142506353512),
                         rel_tol=1e-12)


def test_antenna_power_lossless():
    # P_t splits equally: S antennas, each heard by one user at unit amplitude
    for size in (1, 2, 4):
        assert power_gains(np.eye(size), 1.0).tolist() == [1.0 / size] * size
    lossless = SystemConfig(kappa_db_per_m=0.0)
    assert math.isclose(abs(guide_factor(Point3(7.3, 0.0, 3.0), lossless)), 1.0,
                        rel_tol=1e-15)


def test_antenna_power_attenuated():
    # 0.1 dB/m over 10 m is a 1 dB drop in power: 10^(-kappa d / 20) in amplitude
    lossy = SystemConfig(kappa_db_per_m=0.1)
    loss = abs(guide_factor(Point3(10.0, 0.0, 3.0), lossy))
    assert math.isclose(loss ** 2, 0.7943282347242815, rel_tol=1e-12)
    assert math.isclose(loss, 10.0 ** (-0.1 * 10.0 / 20.0), rel_tol=1e-12)
    # 2 W over two antennas at the feed: 1 W each
    assert power_gains(np.eye(2), 2.0).tolist() == [1.0, 1.0]


def test_active_set_validation():
    with pytest.raises(ValueError):
        ActiveSet(indices=(1, 1))
    with pytest.raises(ValueError):
        ActiveSet(indices=(-1,))
    assert ActiveSet(indices=(3, 1)).size == 2
    # an off-grid antenna is a point handed to `amplitudes`, one term column
    off_grid = amplitudes(CFG, (Point3(2.0, 1.0, 0.0),), (Point3(1.0, 0.0, 3.0),),
                          FEED)
    assert off_grid.shape == (1, 1)


def test_empty_set_gives_zero_channels():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(2, 0, 0))
    gains = effective_channel(dep.users, ActiveSet(), dep, cfg)
    assert gains.tolist() == [0.0, 0.0]


def test_single_antenna_at_feed_collapses():
    # position 0 coincides with the feed: theta = 0, no dielectric loss,
    # so |h|^2 = P_t * eta^2 / r^2
    cfg = SystemConfig(kappa_db_per_m=0.0, pt_dbm=30.0)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    assert dep.positions[0] == dep.feed
    gains = effective_channel(dep.users, ActiveSet(indices=(0,)), dep, cfg)
    for user, gain in zip(dep.users, gains):
        r = math.dist(user.as_tuple(), dep.positions[0].as_tuple())
        assert math.isclose(gain, 1.0 * ETA ** 2 / r ** 2, rel_tol=1e-12)


def test_destructive_interference():
    # two off-grid antennas half a guided wavelength apart, user on the
    # perpendicular bisector: equal amplitudes, total phases pi apart
    cfg = SystemConfig(kappa_db_per_m=0.0)
    dep = make_deployment(cfg, stream_rng(4, 0, 0))
    x0 = 4.0
    a = Point3(x0, 0.0, cfg.height)
    b = Point3(x0 + LAM_G / 2.0, 0.0, cfg.height)
    user = Point3(x0 + LAM_G / 4.0, 1.0, 0.0)
    terms = amplitudes(cfg, (user,), (a, b), dep.feed)
    h = math.sqrt(power_gains(terms, dbm_to_watts(cfg.pt_dbm))[0])
    single = abs(term(user, a))
    assert h < 1e-9 * single


def test_effective_channel_matches_reference():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        cfg, dep, alloc = helpers.random_instance(rng)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        points = [dep.positions[i] for i in sel]
        pt = dbm_to_watts(cfg.pt_dbm)
        gains = effective_channel(dep.users, ActiveSet(indices=sel), dep, cfg)
        per_user = (amplitudes(cfg, dep.users, points, dep.feed).sum(axis=1)
                    * math.sqrt(pt / len(sel)))
        ref = helpers.reference.reference_user_channels(
            [u.as_tuple() for u in dep.users],
            [p.as_tuple() for p in points],
            dep.feed.as_tuple(),
            pt, cfg.kappa_db_per_m,
            cfg.carrier_hz, cfg.n_eff)
        for h, g, h_ref in zip(per_user, gains, ref):
            assert cmath.isclose(h, h_ref, rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(g, abs(h_ref) ** 2, rel_tol=1e-12)


def test_gains_are_squared_magnitudes():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(5, 0, 0))
    gains = effective_channel(dep.users, ActiveSet(indices=(2, 7)), dep, cfg)
    terms = amplitudes(cfg, dep.users, (dep.positions[2], dep.positions[7]),
                       dep.feed)
    per_user = terms.sum(axis=1) * math.sqrt(dbm_to_watts(cfg.pt_dbm) / 2)
    for h, g in zip(per_user, gains):
        assert math.isclose(g, abs(h) ** 2, rel_tol=1e-15)
