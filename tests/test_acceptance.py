"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines
(add -s to also see the measured numbers).
"""

import math
import statistics
import time

import numpy as np
import pytest

import helpers
import reference
from pinchsim import (ExperimentSpec, Matching, PowerAllocation,
                      SetEvaluator, SweepSpec, SystemConfig, check_stability,
                      dbm_to_watts, effective_channel, exhaustive_search,
                      jain_fairness, make_deployment, matching_activation,
                      random_matching, run_experiment, sic_rates, stream_rng,
                      sum_rate)

SEED = 2026
PT_GRID = (20.0, 25.0, 30.0, 35.0, 40.0)


@pytest.fixture(scope="module")
def near_optimal_runs():
    """120 paired drops of the small benchmark scenario, with the exhaustive
    optimum and a brute-force stability check for every final matching."""
    cfg = SystemConfig(d1=10.0, d2=6.0, n_users=2, k_antennas=2,
                       l_positions=12, pt_dbm=30.0, kappa_db_per_m=0.1,
                       seed=SEED)
    alloc = PowerAllocation.equal(cfg.n_users)
    runs = []
    start = time.perf_counter()
    for trial in range(120):
        dep = make_deployment(cfg, stream_rng(cfg.seed, 0, trial))
        ev = SetEvaluator(cfg, dep, alloc)
        initial = random_matching(cfg, dep, stream_rng(cfg.seed, 1, trial))
        final, traj = matching_activation(ev, initial)
        _, optimum = exhaustive_search(ev, cfg.k_antennas)
        stable, certificate = check_stability(ev, final)
        runs.append({
            "trajectory": traj,
            "ratio": traj.utilities[-1] / optimum,
            "stable": stable,
            "certificate": certificate,
            "k_times_l": cfg.k_antennas * cfg.l_positions,
        })
    return {"runs": runs, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def scheme_sweeps():
    """The two-user power sweep, 500 paired drops per point, with and
    without dielectric loss."""
    def run(kappa):
        spec = ExperimentSpec(
            base=SystemConfig(d1=10.0, d2=6.0, n_users=2, k_antennas=2,
                              l_positions=20, kappa_db_per_m=kappa,
                              seed=SEED),
            schemes=("matching", "random", "distance"),
            trials=500,
            sweep=SweepSpec("pt_dbm", 20.0, 40.0, 5.0))
        return {(r.sweep_value, r.scheme): r for r in run_experiment(spec)}

    return {0.1: run(0.1), 0.0: run(0.0)}


def test_criterion_01_oracle_equivalence():
    # 1,000 random instances: pipeline sum rate vs the independent scalar
    # reference, 1e-9 relative, in under a minute
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cfg, dep, alloc = helpers.random_instance(rng, n_max=4, k_max=4, l_max=12)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        got = sum_rate(sel, dep, cfg, alloc).sum_rate
        want = helpers.oracle_sum_rate(cfg, dep, dep.positions[list(sel)],
                                       alloc)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\ncriterion 1 PASS: 1000 instances, worst relative error "
          f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_near_optimality(near_optimal_runs):
    runs = near_optimal_runs["runs"]
    elapsed = near_optimal_runs["elapsed"]
    mean_ratio = statistics.fmean(r["ratio"] for r in runs)
    within_20 = sum(len(r["trajectory"].moves) <= 20 for r in runs)
    assert mean_ratio >= 0.95
    assert within_20 >= 0.95 * len(runs)
    assert elapsed < 300.0
    print(f"\ncriterion 2 PASS: mean final/optimum {mean_ratio:.4f} over "
          f"{len(runs)} drops, {within_20}/{len(runs)} within 20 moves, "
          f"{elapsed:.1f}s")


def test_criterion_03_strict_monotone_trajectories(near_optimal_runs):
    violations = 0
    for r in near_optimal_runs["runs"]:
        u = r["trajectory"].utilities
        violations += sum(not b > a for a, b in zip(u, u[1:]))
    assert violations == 0
    print(f"\ncriterion 3 PASS: 0 monotonicity violations across "
          f"{len(near_optimal_runs['runs'])} trajectories")


def test_criterion_04_stability(near_optimal_runs):
    runs = near_optimal_runs["runs"]
    stable = sum(r["stable"] for r in runs)
    assert stable == len(runs)
    assert all(r["certificate"] is None for r in runs)
    print(f"\ncriterion 4 PASS: {stable}/{len(runs)} final matchings stable "
          f"under all K*L unilateral moves")


def test_criterion_05_evaluations_per_cycle(near_optimal_runs):
    worst = 0
    for r in near_optimal_runs["runs"]:
        for evals in r["trajectory"].evaluations_per_cycle:
            worst = max(worst, evals)
            assert evals <= r["k_times_l"]
    print(f"\ncriterion 5 PASS: at most {worst} utility evaluations per "
          f"cycle (bound {near_optimal_runs['runs'][0]['k_times_l']})")


def test_criterion_06_pinching_beats_conventional():
    spec = ExperimentSpec(
        base=SystemConfig(d2=4.0, n_users=4, k_antennas=4, l_positions=20,
                          kappa_db_per_m=0.1, pt_dbm=30.0, seed=SEED),
        schemes=("matching", "conventional"),
        trials=500,
        sweep=SweepSpec("d1", 10.0, 30.0, 10.0))
    rows = {(r.sweep_value, r.scheme): r for r in run_experiment(spec)}
    gaps = {}
    for d1 in (10.0, 20.0, 30.0):
        matching = rows[(d1, "matching")].mean_sum_rate
        conventional = rows[(d1, "conventional")].mean_sum_rate
        assert matching > conventional
        gaps[d1] = matching - conventional
    assert gaps[30.0] > gaps[10.0]
    print(f"\ncriterion 6 PASS: gaps over conventional "
          f"{gaps[10.0]:.2f} / {gaps[20.0]:.2f} / {gaps[30.0]:.2f} "
          f"bits/s/Hz at D1 = 10 / 20 / 30 m")


def test_criterion_07_scheme_ordering(scheme_sweeps):
    eps = 0.01
    for kappa, cells in scheme_sweeps.items():
        for pt in PT_GRID:
            matching = cells[(pt, "matching")].mean_sum_rate
            distance = cells[(pt, "distance")].mean_sum_rate
            random_ = cells[(pt, "random")].mean_sum_rate
            assert matching >= distance - eps, (kappa, pt)
            assert distance >= random_ - eps, (kappa, pt)
            assert matching >= random_, (kappa, pt)
    print("\ncriterion 7 PASS: matching >= distance >= random at every "
          "P_t in {20..40} dBm, both with and without dielectric loss")


def test_criterion_08_matching_trades_fairness(scheme_sweeps):
    cells = scheme_sweeps[0.1]
    matching = statistics.fmean(cells[(pt, "matching")].mean_fairness
                                for pt in PT_GRID)
    random_ = statistics.fmean(cells[(pt, "random")].mean_fairness
                               for pt in PT_GRID)
    assert matching <= random_
    print(f"\ncriterion 8 PASS: mean Jain fairness {matching:.4f} (matching) "
          f"<= {random_:.4f} (random)")


def test_criterion_09_attenuation_sensitivity(scheme_sweeps):
    ratios = []
    for pt in PT_GRID:
        lossy = scheme_sweeps[0.1][(pt, "matching")].mean_sum_rate
        lossless = scheme_sweeps[0.0][(pt, "matching")].mean_sum_rate
        assert lossy > 0.9 * lossless
        ratios.append(lossy / lossless)
    print(f"\ncriterion 9 PASS: matching sum rate at kappa=0.1 is "
          f"{min(ratios):.4f}..{max(ratios):.4f} of the lossless rate")


def test_criterion_10_invariant_suite():
    rng = np.random.default_rng(SEED + 10)

    # triangle inequality: |h_n| never exceeds the sum of term magnitudes,
    # each term taken from the independent reference
    for _ in range(10000):
        cfg, dep, _ = helpers.random_instance(rng, n_max=3, k_max=3, l_max=8)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        gains = effective_channel(sel, dep, cfg)
        pt = dbm_to_watts(cfg.pt_dbm)
        for user, gain in zip(dep.users.tolist(), gains):
            bound = 0.0
            for i in sel:
                p = dep.positions[i].tolist()
                d_feed = reference.euclid(dep.feed.tolist(), p)
                power = reference.reference_antenna_power(
                    pt, len(sel), cfg.kappa_db_per_m, d_feed)
                coeff = reference.reference_coeff(user, p, cfg.carrier_hz)
                bound += abs(coeff) * math.sqrt(power)
            assert math.sqrt(gain) <= bound * (1 + 1e-9)

    # sum rate never exceeds the single-user bound of the best channel
    for _ in range(10000):
        n = int(rng.integers(1, 6))
        gains = np.sort(rng.uniform(0.0, 4.0, n))
        alpha = rng.uniform(0.05, 1.0, n)
        alloc = PowerAllocation(alpha=tuple(float(a) for a in alpha / alpha.sum()))
        noise = float(rng.uniform(1e-3, 1.0))
        total = sic_rates(gains, alloc, noise).sum()
        cap = math.log2(1.0 + gains[-1] / noise)
        assert total <= cap * (1 + 1e-12) + 1e-12

    # Jain index stays inside [1/N, 1]
    for _ in range(10000):
        n = int(rng.integers(1, 9))
        rates = rng.uniform(0.0, 10.0, n)
        if rng.uniform() < 0.2:
            rates[rng.integers(0, n)] = 0.0
        f = jain_fairness(rates)
        assert 1.0 / n - 1e-12 <= f <= 1.0 + 1e-12

    # replaying every accepted move keeps the matching injective
    for _ in range(10000):
        cfg, dep, alloc = helpers.random_instance(rng, n_max=2, k_max=2, l_max=5)
        initial = random_matching(cfg, dep, rng)
        final, traj = matching_activation(SetEvaluator(cfg, dep, alloc), initial)
        assignment = list(initial.assignment)
        for move in traj.moves:
            assert assignment[move.antenna] == move.source
            assignment[move.antenna] = move.target
            Matching(assignment=tuple(assignment))  # raises if two collide
        assert tuple(assignment) == final.assignment

    # activated power never exceeds the transmit budget
    for _ in range(10000):
        pt = float(rng.uniform(0.01, 10.0))
        size = int(rng.integers(1, 9))
        kappa = float(rng.uniform(0.0, 0.5))
        dists = rng.uniform(0.0, 30.0, size)
        total = sum(reference.reference_antenna_power(pt, size, kappa, float(d))
                    for d in dists)
        assert total <= pt * (1 + 1e-12)

    print("\ncriterion 10 PASS: 5 invariants x 10000 randomized cases, "
          "0 failures")
