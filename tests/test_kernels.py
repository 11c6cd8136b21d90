"""The amplitude matrix and the set evaluator, single and batched."""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from pinchsim import (ActiveSet, PowerAllocation, SetEvaluator, SystemConfig,
                      amplitude_matrix, amplitudes, effective_channel,
                      make_deployment, power_gains, stream_rng, sum_rate)


def test_amplitude_matrix_reproduces_channels():
    rng = np.random.default_rng(300)
    for _ in range(100):
        cfg, dep, _ = helpers.random_instance(rng, n_max=8, k_max=8, l_max=30)
        amp = amplitude_matrix(cfg, dep)
        assert amp.shape == (cfg.n_users, cfg.l_positions)
        # ascending selections: both sides sum the same columns in one order
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        terms = amplitudes(cfg, dep.users, [dep.positions[i] for i in sel],
                           dep.feed)
        assert amp[:, list(sel)].tolist() == terms.tolist()
        gains = effective_channel(dep.users, ActiveSet(indices=sel), dep, cfg)
        pt = 10.0 ** ((cfg.pt_dbm - 30.0) / 10.0)
        assert power_gains(amp[:, list(sel)], pt).tolist() == gains.tolist()


def test_evaluator_matches_contract_path():
    rng = np.random.default_rng(301)
    for _ in range(200):
        cfg, dep, alloc = helpers.random_instance(rng)
        ev = SetEvaluator(cfg, dep, alloc)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        report = sum_rate(ActiveSet(indices=sel), dep, cfg, alloc)
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
            batch = int(rng.integers(1, l_positions + 1))
            # rows in any order within themselves: the batch sorts them
            rows = np.array([rng.choice(l_positions, size=size, replace=False)
                             for _ in range(batch)])
            got = ev.utilities(rows)
            assert got.shape == (batch,)
            assert got.tolist() == [ev.utility(r) for r in rows]
    # the sizes and shapes the scan hands over, each row alone and batched
    cfg = SystemConfig(d1=30.0, n_users=8, k_antennas=8, l_positions=60)
    ev = SetEvaluator(cfg, make_deployment(cfg, rng), PowerAllocation.equal(8))
    for size in range(1, 9):
        rows = [sorted(rng.choice(60, size=size, replace=False))
                for _ in range(60 - size)]
        assert ev.utilities(rows).tolist() == [ev.utility(r) for r in rows]
        assert [ev.utilities([r])[0] for r in rows] == [ev.utility(r) for r in rows]


def test_batch_edge_cases_and_validation():
    cfg = SystemConfig(l_positions=12)
    dep = make_deployment(cfg, stream_rng(7, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    assert ev.utilities(np.empty((0, 2), dtype=int)).shape == (0,)
    assert ev.utilities(np.empty((3, 0), dtype=int)).tolist() == [0.0] * 3
    assert ev.calls == 0
    ev.utilities([[0, 1], [2, 3], [5, 4]])
    assert ev.calls == 3
    for bad in ([[0, 12]], [[-1, 3]]):
        with pytest.raises(ValueError):
            ev.utilities(bad)
    with pytest.raises(ValueError):
        ev.utilities([0, 1])  # one activation is utility(), not a batch


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
            ev.gains(bad)
        with pytest.raises(ValueError, match="distinct"):
            ev.utilities([bad, tuple(range(len(bad)))])
    for bad in ((2.7,), (2.0, 5.0), (True,)):
        with pytest.raises(ValueError, match="integers"):
            ev.utility(bad)
        with pytest.raises(ValueError, match="integers"):
            ev.gains(bad)
        with pytest.raises(ValueError, match="integers"):
            ev.utilities([bad])
    with pytest.raises(ValueError, match="integers"):
        ev.utilities(np.array([[2.7, 4.0]]))
    # rejected calls are not counted, valid ones score as before
    assert ev.calls == 1
    assert ev.utility((np.int64(3),)) == single
    assert ev.utilities([[3]]).tolist() == [single]
    assert ev.utility(()) == 0.0 and ev.utilities(np.empty((2, 0))).tolist() == [0.0, 0.0]
    assert ev.gains(()).tolist() == [0.0] * cfg.n_users

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
        assert shared.gains(sel).tolist() == own.gains(sel).tolist()


def test_evaluator_gains_match_channel():
    rng = np.random.default_rng(303)
    for _ in range(50):
        cfg, dep, alloc = helpers.random_instance(rng)
        ev = SetEvaluator(cfg, dep, alloc)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        gains = effective_channel(dep.users, ActiveSet(indices=sel), dep, cfg)
        assert ev.gains(sel).tolist() == gains.tolist()


def test_utility_is_deterministic():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(8, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(cfg.n_users))
    assert ev.utility((1, 4)) == ev.utility((1, 4))
    assert ev.utility((4, 1)) == ev.utility((1, 4))  # order-insensitive
