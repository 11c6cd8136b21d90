"""The amplitude matrix and the set evaluator, single and batched."""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from pinchsim import (PowerAllocation, SetEvaluator, SystemConfig,
                      amplitude_matrix, amplitudes, dbm_to_watts,
                      effective_channel, make_deployment, power_gains,
                      stream_rng, sum_rate)
from pinchsim.kernels import family, set_sum_rate


def test_amplitude_matrix_reproduces_channels():
    rng = np.random.default_rng(300)
    for _ in range(100):
        cfg, dep, _ = helpers.random_instance(rng, n_max=8, k_max=8, l_max=30)
        amp = amplitude_matrix(cfg, dep)
        assert amp.shape == (cfg.n_users, cfg.l_positions)
        # ascending selections: both sides sum the same columns in one order
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        terms = amplitudes(cfg, dep.users, dep.positions[list(sel)], dep.feed)
        assert amp[:, list(sel)].tolist() == terms.tolist()
        gains = effective_channel(sel, dep, cfg)
        pt = 10.0 ** ((cfg.pt_dbm - 30.0) / 10.0)
        assert power_gains(amp[:, list(sel)], pt).tolist() == gains.tolist()


def test_evaluator_matches_contract_path():
    rng = np.random.default_rng(301)
    for _ in range(200):
        cfg, dep, alloc = helpers.random_instance(rng)
        ev = SetEvaluator(cfg, dep, alloc)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        report = sum_rate(sel, dep, cfg, alloc)
        assert math.isclose(ev.utility(sel), report.sum_rate, rel_tol=1e-9)


def test_batch_equals_single_evaluations_exactly():
    rng = np.random.default_rng(302)
    shapes = [(1, 1, 4), (2, 2, 20), (3, 2, 12), (4, 4, 30), (8, 8, 60)]
    for n, k, l_positions in shapes:
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                           l_positions=l_positions)
        for _ in range(20):
            dep = make_deployment(cfg, rng)
            ev = SetEvaluator(cfg, dep, PowerAllocation.equal(n))
            size = int(rng.integers(1, k + 1))
            # a sorted base and new positions in any order: the batch sorts each set
            chosen = rng.permutation(l_positions).tolist()
            others = chosen[:size - 1]
            positions = chosen[size - 1:][:int(rng.integers(1, l_positions
                                                            - size + 2))]
            got = ev._utilities(sorted(others), positions, ev._pt_watts)
            assert got.shape == (len(positions),)
            assert got.tolist() == [ev.utility([*others, p]) for p in positions]
    # the sizes and shapes the scan hands over, each set alone and batched
    cfg = SystemConfig(d1=30.0, n_users=8, k_antennas=8, l_positions=60)
    ev = SetEvaluator(cfg, make_deployment(cfg, rng), PowerAllocation.equal(8))
    for size in range(1, 9):
        others = sorted(rng.choice(60, size=size - 1, replace=False).tolist())
        positions = [p for p in range(60) if p not in others]
        want = [ev.utility([*others, p]) for p in positions]
        assert ev._utilities(others, positions, ev._pt_watts).tolist() == want
        assert [ev._utilities(others, [p], ev._pt_watts)[0]
                for p in positions] == want


def test_spare_row_equals_utility_of_its_base_exactly():
    # the walk's deactivation rides in its batch as a spare row: the base
    # and a zero column, its power split over the base; it and every other
    # row are `utility` of their sets
    rng = np.random.default_rng(306)
    shapes = [(1, 4, 12), (2, 2, 20), (3, 2, 12), (4, 4, 30), (8, 8, 60)]
    for n, k, l_positions in shapes:
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                           l_positions=l_positions)
        for size in range(1, k):
            dep = make_deployment(cfg, rng)
            ev = SetEvaluator(cfg, dep, PowerAllocation.equal(n))
            chosen = rng.permutation(l_positions).tolist()
            base = sorted(chosen[:size])
            positions = chosen[size:][:int(rng.integers(1, l_positions
                                                        - size + 1))]
            got = ev._utilities(base, [*positions, l_positions],
                                ev._pt_watts)
            want = [ev.utility([*base, p]) for p in positions]
            assert got.tolist() == [*want, ev.utility(base)]


def test_batch_edge_cases():
    cfg = SystemConfig(l_positions=12)
    dep = make_deployment(cfg, stream_rng(7, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    assert ev._utilities([0, 1], [], ev._pt_watts).shape == (0,)


def test_private_batch_equals_utility_bit_for_bit():
    # the scan's walk scores through the private batch, which checks no
    # index; it agrees with the checked `utility` on every set
    rng = np.random.default_rng(61)
    for n, k, l_positions in [(2, 2, 20), (4, 4, 30), (8, 8, 60)]:
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                           l_positions=l_positions)
        ev = SetEvaluator(cfg, make_deployment(cfg, rng),
                          PowerAllocation.equal(n))
        for size in range(1, k + 1):
            others = sorted(rng.choice(l_positions, size=size - 1,
                                       replace=False).tolist())
            positions = [p for p in range(l_positions) if p not in others]
            batch = ev._utilities(others, positions, ev._pt_watts).tolist()
            assert batch == [ev.utility([*others, p]) for p in positions]


def test_evaluator_counts_calls():
    cfg = SystemConfig(l_positions=12)
    dep = make_deployment(cfg, stream_rng(7, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    assert ev.calls == 0
    ev.utility((0, 1))
    ev.utility((5,))
    assert ev.calls == 2
    assert ev.utility(()) == 0.0
    assert ev.calls == 2  # the empty set is not a kernel call


def test_evaluator_rejects_bad_indices():
    cfg = SystemConfig(l_positions=12)
    dep = make_deployment(cfg, stream_rng(7, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    with pytest.raises(ValueError):
        ev.utility((12,))
    with pytest.raises(ValueError):
        ev.utility((-1,))
    with pytest.raises(ValueError):
        SetEvaluator(cfg, dep, PowerAllocation.equal(3))
    with pytest.raises(ValueError, match="amplitude matrix"):
        SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users),
                     amp=amplitude_matrix(cfg, dep)[:, :-1])



def test_evaluator_serves_one_drop_of_a_block():
    cfg = SystemConfig(n_users=3, l_positions=12)
    alloc = PowerAllocation.equal(3)
    block = make_deployment(cfg, [stream_rng(7, 0, t) for t in range(4)])
    grid = amplitude_matrix(cfg, block)
    assert grid.shape == (4, 3, 12)
    with pytest.raises(ValueError, match="block deployment needs the drop's "
                                         "amplitude matrix amp"):
        SetEvaluator(cfg, block, alloc)
    with pytest.raises(ValueError, match="amplitude matrix must be"):
        SetEvaluator(cfg, block, alloc, amp=grid)
    with pytest.raises(ValueError, match="allocation length"):
        SetEvaluator(cfg, block, PowerAllocation.equal(4), amp=grid[0])
    for t in range(4):
        dep = make_deployment(cfg, stream_rng(7, 0, t))
        assert grid[t].tolist() == amplitude_matrix(cfg, dep).tolist()
        ev = SetEvaluator(cfg, block, alloc, amp=grid[t])
        alone = SetEvaluator(cfg, dep, alloc)
        assert ev.utility((2, 9)) == alone.utility((2, 9))
        assert ev.utility((4,)) == alone.utility((4,))


def test_evaluator_rejects_duplicate_and_non_integer_indices():
    # a duplicate used to count its antenna twice (14.42 for (3, 3) against
    # 13.42 for (3,)), and 2.7 used to score position 2
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(1, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    single = ev.utility((3,))
    for bad in ((3, 3), (1, 3, 1)):
        with pytest.raises(ValueError, match="distinct"):
            ev.utility(bad)
        with pytest.raises(ValueError, match="distinct"):
            effective_channel(bad, dep, cfg)
    for bad in ((2.7,), (2.0, 5.0), (True,), (True, 3), (3, False),
                (np.float64(2.0),), (np.bool_(True), 3)):
        with pytest.raises(ValueError, match="integers"):
            ev.utility(bad)
        with pytest.raises(ValueError, match="integers"):
            effective_channel(bad, dep, cfg)
    # rejected calls are not counted, valid ones score as before
    assert ev.calls == 1
    assert ev.utility((np.int64(3),)) == single
    assert ev.utility((np.uint8(3),)) == single
    assert ev.utility(()) == 0.0
    assert effective_channel((), dep, cfg).tolist() == [0.0] * cfg.n_users

def test_shared_amplitude_matrix_serves_every_power():
    # the grid matrix does not depend on P_t: an evaluator handed one built
    # at another power scores exactly like one that builds its own
    rng = np.random.default_rng(304)
    for _ in range(30):
        cfg, dep, alloc = helpers.random_instance(rng)
        amp = amplitude_matrix(replace(cfg, pt_dbm=cfg.pt_dbm - 17.0), dep)
        shared = SetEvaluator(cfg, dep, alloc, amp=amp)
        own = SetEvaluator(cfg, dep, alloc)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        assert shared.utility(sel) == own.utility(sel)


def test_a_family_batch_equals_each_power_alone():
    # sorted once and scaled per power, a batch at a family's powers gives
    # each member's own rows bit for bit, its spare row too, alone or not,
    # and counts nothing: the walk that takes the rows counts them
    rng = np.random.default_rng(308)
    for n, k, l_positions in [(1, 3, 8), (2, 2, 20), (4, 4, 30), (8, 8, 60)]:
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                           l_positions=l_positions)
        dep = make_deployment(cfg, rng)
        alloc = PowerAllocation.equal(n)
        amp = amplitude_matrix(cfg, dep)
        configs = [replace(cfg, pt_dbm=p) for p in (-20.0, 0.0, 17.5, 40.0)]
        members = list(family(SetEvaluator(c, dep, alloc, amp=amp)
                              for c in configs))
        for size in range(1, k + 1):
            chosen = rng.permutation(l_positions).tolist()
            base = sorted(chosen[:size - 1])
            positions = chosen[size - 1:][:int(rng.integers(1, 6))]
            offers = [positions]
            if base:
                offers += [[*positions, l_positions], [l_positions]]
            for offer in offers:
                calls = [m.calls for m in members]
                got = members[0]._utilities(base, offer, np.array(
                    [[[m._pt_watts]] for m in members])).tolist()
                alone = [SetEvaluator(c, dep, alloc, amp=amp) for c in configs]
                assert got == [a._utilities(base, offer, a._pt_watts).tolist()
                               for a in alone]
                assert [m.calls for m in members] == calls
    # a family is one drop's matrix, allocation and noise at several powers
    other = SetEvaluator(cfg, make_deployment(cfg, rng), alloc)
    with pytest.raises(ValueError, match="differ only in power"):
        family([members[0], other])
    # a lone evaluator is a family of one, linked or not
    assert [ref() for ref in other.family] == [other]
    (lone,) = family([other])
    assert [ref() for ref in lone.family] == [other]


def _antenna_order_sums(terms):
    """Each user's sum of its (..., N, S) terms, added one antenna at a
    time in antenna order."""
    z = terms[..., 0].copy()
    for s in range(1, terms.shape[-1]):
        z += terms[..., s]
    return z


def test_power_gains_are_the_formula_bit_for_bit():
    # formed in one buffer, a gain keeps the formula's operations in order
    rng = np.random.default_rng(304)
    for n in (1, 4):
        for s in range(1, 9):
            shape = (int(rng.integers(1, 20)), n, s)
            terms = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            terms[rng.uniform(size=shape[:-1]) < 0.2] = 0.0  # zero gains
            pt = 10.0 ** rng.uniform(-3.0, 1.0)
            z = _antenna_order_sums(terms)
            want = (pt / s) * (z.real * z.real + z.imag * z.imag)
            assert (power_gains(terms, pt) == want).all()
            assert (power_gains(terms[0], pt) == want[0]).all()


def test_power_gains_add_in_antenna_order_whatever_the_layout():
    # numpy would sum terms contiguous along S pairwise; the gains add each
    # user's terms in antenna order at every user count and storage order
    rng = np.random.default_rng(309)
    for n in (1, 2, 4):
        for s in range(1, 9):
            shape = (int(rng.integers(1, 20)), n, s)
            terms = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            z = _antenna_order_sums(terms)
            want = ((1.0 / s) * (z.real * z.real + z.imag * z.imag)).tolist()
            for layout in (np.ascontiguousarray, np.asfortranarray):
                assert power_gains(layout(terms), 1.0).tolist() == want


def test_kernel_is_the_same_for_an_amplitude_matrix_in_c_or_f_order():
    # the kernel's row take gathers the same terms from either storage order
    rng = np.random.default_rng(305)
    for _ in range(40):
        cfg, dep, alloc = helpers.random_instance(rng, n_max=8, k_max=8,
                                                  l_max=30)
        amp_f = amplitude_matrix(cfg, dep)
        amp_c = np.ascontiguousarray(amp_f)
        assert amp_f.flags.f_contiguous and amp_c.flags.c_contiguous
        ev_f, ev_c = (SetEvaluator(cfg, dep, alloc, amp=amp)
                      for amp in (amp_f, amp_c))
        pt, noise = dbm_to_watts(cfg.pt_dbm), dbm_to_watts(cfg.noise_dbm)
        for size in range(1, min(cfg.k_antennas, cfg.l_positions) + 1):
            rows = np.sort([rng.choice(cfg.l_positions, size, replace=False)
                            for _ in range(5)], axis=1)
            batch = [set_sum_rate(amp, rows, pt / size, noise, alloc)
                     for amp in (amp_f, amp_c)]
            assert batch[0].tolist() == batch[1].tolist()
            for row, rate in zip(rows.tolist(), batch[0].tolist()):
                assert ev_f.utility(row) == ev_c.utility(row) == rate


def test_utility_is_deterministic():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(8, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    assert ev.utility((1, 4)) == ev.utility((1, 4))
    assert ev.utility((4, 1)) == ev.utility((1, 4))  # order-insensitive
