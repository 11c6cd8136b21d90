"""SIC ordering, per-rank rates, sum rate, and Jain fairness."""

import math
import warnings

import numpy as np
import pytest

import helpers
import reference
from pinchsim import (PowerAllocation, SetEvaluator, SystemConfig,
                      amplitude_matrix, dbm_to_watts, jain_fairness,
                      make_deployment, power_gains, rate_report, sic_rates,
                      stream_rng, sum_rate)


def order(gains):
    """SIC order of the users with these gains, weakest first."""
    report = rate_report(gains, PowerAllocation.equal(len(gains)), 1.0)
    return tuple(report.order.tolist())


def test_equal_allocation():
    alloc = PowerAllocation.equal(4)
    assert alloc.alpha == (0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        PowerAllocation.equal(0)


def test_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation(alpha=(0.5, 0.6))
    with pytest.raises(ValueError):
        PowerAllocation(alpha=(-0.1, 1.1))
    PowerAllocation(alpha=(0.0, 1.0))  # zero fraction is allowed


def test_sic_order_sorts_ascending():
    assert order((3.0, 1.0, 2.0)) == (1, 2, 0)


def test_sic_order_breaks_ties_by_index():
    assert order((2.0, 2.0)) == (0, 1)
    assert order((2.0, 1.0, 2.0, 1.0)) == (1, 3, 0, 2)


def test_sic_order_single_user():
    assert order((5.0,)) == (0,)
    for bad in ((-1.0,), (1.0, math.nan), (math.inf, 1.0), (-math.inf,)):
        with pytest.raises(ValueError):
            order(bad)


def test_single_user_rate():
    # g equal to the noise power: log2(1 + 1) = 1 bit/s/Hz
    rates = sic_rates(np.array([1e-12]), PowerAllocation.equal(1), 1e-12)
    assert rates.tolist() == [1.0]


def test_two_user_rates():
    alloc = PowerAllocation.equal(2)
    rates = sic_rates(np.array([1.0, 3.0]), alloc, 1.0)
    assert math.isclose(rates[0], 0.41503749927884376, rel_tol=1e-15)  # log2(4/3)
    assert math.isclose(rates[1], 1.3219280948873624, rel_tol=1e-15)   # log2(2.5)


def test_zero_fraction_means_zero_rate():
    alloc = PowerAllocation(alpha=(0.0, 1.0))
    rates = sic_rates(np.array([1.0, 3.0]), alloc, 1.0)
    assert rates[0] == 0.0
    assert rates[1] > 0.0


def test_user_rates_validation():
    with pytest.raises(ValueError):
        sic_rates(np.array([1.0]), PowerAllocation.equal(2), 1.0)
    with pytest.raises(ValueError):
        sic_rates(np.array([1.0]), PowerAllocation.equal(1), 0.0)
    with pytest.raises(ValueError):
        rate_report((1.0,), PowerAllocation.equal(2), 1.0)


def test_rates_match_reference_on_random_gains():
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        gains = [float(g) for g in rng.uniform(0.0, 5.0, n)]
        alpha = rng.uniform(0.1, 1.0, n)
        alpha = [float(a) for a in alpha / alpha.sum()]
        noise = float(rng.uniform(0.01, 2.0))
        report = rate_report(gains, PowerAllocation(alpha=tuple(alpha)), noise)
        ref = reference.reference_rates(gains, alpha, noise)
        for got, want in zip(report.rates, ref):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_sic_rates_are_the_formula_bit_for_bit():
    # formed in one buffer, the rates keep the formula's operations in order
    rng = np.random.default_rng(78)
    for n in (1, 4):
        for _ in range(50):
            alloc = PowerAllocation(alpha=tuple(rng.dirichlet(np.ones(n))))
            alpha, tails = alloc.ranks
            noise = 10.0 ** rng.uniform(-14.0, 0.0)
            gains = rng.uniform(0.0, 1.0, (int(rng.integers(1, 40)), n))
            gains *= 10.0 ** rng.uniform(-12.0, 2.0)
            gains[rng.uniform(size=gains.shape) < 0.2] = 0.0
            gains.sort(axis=-1)
            want = np.log2(1.0 + alpha * gains / (gains * tails + noise))
            assert (sic_rates(gains, alloc, noise) == want).all()
            assert (sic_rates(gains[0], alloc, noise) == want[0]).all()


def test_report_indexes_rates_by_user():
    report = rate_report((3.0, 1.0), PowerAllocation.equal(2), 1.0)
    assert report.order.tolist() == [1, 0]
    assert report.gains.tolist() == [1.0, 3.0]
    # user 0 has the larger gain, so it holds the top (interference-free) rank
    assert math.isclose(report.rates[0], math.log2(2.5), rel_tol=1e-15)
    assert math.isclose(report.rates[1], math.log2(4.0 / 3.0), rel_tol=1e-15)
    assert math.isclose(report.sum_rate, sum(report.rates), rel_tol=1e-15)


def test_jain_extremes():
    assert math.isclose(jain_fairness((2.0, 2.0, 2.0)), 1.0, rel_tol=1e-12)
    assert math.isclose(jain_fairness((5.0, 0.0, 0.0, 0.0)), 0.25, rel_tol=1e-12)
    assert jain_fairness((1.0, 3.0)) == 0.8
    assert jain_fairness((0.0, 0.0)) == 1.0
    assert jain_fairness(np.array([1.0, 3.0])) == 0.8
    with pytest.raises(ValueError):
        jain_fairness((-1.0, 1.0))


def test_jain_range_random():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        rates = rng.uniform(0.0, 10.0, n)
        f = jain_fairness(rates)
        assert 1.0 / n <= f <= 1.0 + 1e-12


def test_empty_activation_rates():
    cfg = SystemConfig()
    dep = make_deployment(cfg, stream_rng(6, 0, 0))
    report = sum_rate((), dep, cfg, PowerAllocation.equal(cfg.n_users))
    assert report.sum_rate == 0.0
    assert report.rates.tolist() == [0.0, 0.0]
    assert report.fairness == 1.0


def test_more_noise_strictly_lowers_sum_rate():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        gains = [float(g) for g in rng.uniform(0.1, 5.0, n)]
        alloc = PowerAllocation.equal(n)
        noise = float(rng.uniform(0.01, 1.0))
        low = sic_rates(np.sort(gains), alloc, noise).sum()
        high = sic_rates(np.sort(gains), alloc, 2.0 * noise).sum()
        assert high < low


def test_sum_rate_matches_reference_pipeline():
    rng = np.random.default_rng(111)
    for _ in range(200):
        cfg, dep, alloc = helpers.random_instance(rng)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        report = sum_rate(sel, dep, cfg, alloc)
        want = helpers.oracle_sum_rate(cfg, dep, dep.positions[list(sel)],
                                       alloc)
        assert math.isclose(report.sum_rate, want, rel_tol=1e-12)


def test_report_sum_rate_is_the_searched_utility():
    # the sum rate a scheme reports for a grid activation is, bit for bit,
    # the utility the searches maximised, whichever way its gains are built
    rng = np.random.default_rng(112)
    for _ in range(1000):
        cfg, dep, alloc = helpers.random_instance(rng, n_max=8, k_max=8,
                                                  l_max=30)
        amp = amplitude_matrix(cfg, dep)
        ev = SetEvaluator(cfg, dep, alloc, amp=amp)
        sel = helpers.random_subset(rng, cfg.l_positions, cfg.k_antennas)
        utility = ev.utility(sel)
        noise = dbm_to_watts(cfg.noise_dbm)
        # gathered from the grid matrix, users fastest, as the harness does
        gains = power_gains(amp.T[list(sel)].T, dbm_to_watts(cfg.pt_dbm))
        assert rate_report(gains, alloc, noise).sum_rate == utility
        assert sum_rate(sel, dep, cfg, alloc).sum_rate == utility


def test_block_report_equals_per_row_reports():
    rng = np.random.default_rng(131)
    rows = 0
    for n in range(1, 13):
        alloc = PowerAllocation.equal(n)
        for t in (1, 2, 7, 64, 70):
            gains = rng.uniform(0.0, 5.0, (t, n)) * 10.0 ** rng.integers(
                -12, 3, (t, 1))
            gains[0] = 0.0                        # all-zero row
            if t > 1 and n > 1:
                gains[1, -1] = gains[1, 0]        # tied gains
                gains[-1] = 2.5                   # all tied
            block = rate_report(gains, alloc, 1e-9)
            assert block.sum_rate.shape == block.fairness.shape == (t,)
            for i, row in enumerate(gains):
                one = rate_report(row, alloc, 1e-9)
                assert block.sum_rate[i] == one.sum_rate
                assert block.fairness[i] == one.fairness
                assert block.order[i].tolist() == one.order.tolist()
                assert block.rates[i].tolist() == one.rates.tolist()
                assert block.gains[i].tolist() == one.gains.tolist()
                rows += 1
            assert block.fairness[0] == 1.0 and block.sum_rate[0] == 0.0
    assert rows == 12 * (1 + 2 + 7 + 64 + 70)


def test_report_sum_and_fairness_are_those_of_the_rank_ordered_rates():
    rng = np.random.default_rng(132)
    gains = rng.uniform(0.0, 3.0, (50, 6))
    alloc = PowerAllocation.equal(6)
    block = rate_report(gains, alloc, 0.1)
    ranked = sic_rates(np.sort(gains, axis=-1), alloc, 0.1)
    assert block.sum_rate.tolist() == ranked.sum(axis=-1).tolist()
    for i, rates in enumerate(ranked):
        total = rates.sum()
        assert block.fairness[i] == total * total / (6 * (rates @ rates))


def test_block_report_rejects_a_bad_row():
    alloc = PowerAllocation.equal(3)
    for bad in (math.nan, math.inf, -1.0):
        gains = np.ones((4, 3))
        gains[2, 1] = bad
        with pytest.raises(ValueError, match="gains must be finite and >= 0"):
            rate_report(gains, alloc, 1.0)
    with pytest.raises(ValueError, match="allocation length"):
        rate_report(np.ones((4, 2)), alloc, 1.0)
    with pytest.raises(ValueError, match="allocation length"):
        rate_report((), alloc, 1.0)


def test_jain_rejects_non_finite_and_empty_rates():
    for bad in ((math.nan, 1.0), (math.inf, 1.0), [[1.0, 2.0], [1.0, math.nan]]):
        with pytest.raises(ValueError, match="rates must be finite"):
            jain_fairness(bad)
    for empty in ((), np.empty((3, 0)), 2.0):
        with pytest.raises(ValueError, match="at least one rate"):
            jain_fairness(empty)
    with pytest.raises(ValueError, match="rates must be >= 0"):
        jain_fairness([[1.0, 2.0], [-1.0, 1.0]])


def test_jain_batch_equals_per_row():
    rng = np.random.default_rng(133)
    rates = rng.uniform(0.0, 10.0, (200, 5))
    rates[3] = 0.0
    rates[7, 2:] = 0.0
    batch = jain_fairness(rates)
    assert batch.shape == (200,)
    assert batch[3] == 1.0
    assert batch.tolist() == [jain_fairness(row) for row in rates]
    assert jain_fairness(rates.reshape(20, 10, 5)).ravel().tolist() == batch.tolist()
    assert jain_fairness(np.zeros((2, 3))).tolist() == [1.0, 1.0]


def test_jain_rescales_rows_that_underflow_or_overflow():
    # the squares of these rates leave the normal float range: the index
    # once came out NaN (0/0, inf/inf) or off by the lost subnormal digits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rates, index in (([1e-170, 1e-170], 1.0), ([1e300, 1e300], 1.0),
                             ([1e-160, 2e-160], 0.9), ([1e155, 2e155], 0.9),
                             ([1e308, 1e308, 1e308], 1.0),
                             ([1e-320, 0.0, 0.0, 0.0], 0.25)):
            assert jain_fairness(rates) == index
            batch = jain_fairness([[1.0, 3.0], rates[:2], [0.0, 0.0],
                                   rates[:2], [2.0, 2.0]])
            assert batch.tolist() == [0.8, jain_fairness(rates[:2]), 1.0,
                                      jain_fairness(rates[:2]), 1.0]
    # an ordinary row keeps its bits beside them
    rng = np.random.default_rng(5)
    ordinary = rng.uniform(0.0, 10.0, (50, 4))
    mixed = np.concatenate([ordinary, [[1e-170] * 4, [1e300] * 4]])
    assert jain_fairness(mixed)[:50].tolist() == jain_fairness(ordinary).tolist()
    assert jain_fairness(mixed)[50:].tolist() == [1.0, 1.0]


def test_batched_sum_rate_equals_per_activation():
    cfg = SystemConfig(n_users=3, k_antennas=2, l_positions=10)
    dep = make_deployment(cfg, stream_rng(4, 0, 0))
    alloc = PowerAllocation.equal(3)
    sets = np.array([(0, 4), (7, 2), (3, 9), (5, 6)])
    batch = sum_rate(sets, dep, cfg, alloc)
    for i, sel in enumerate(sets.tolist()):
        one = sum_rate(sel, dep, cfg, alloc)
        assert batch.sum_rate[i] == one.sum_rate
        assert batch.fairness[i] == one.fairness
        assert batch.rates[i].tolist() == one.rates.tolist()
    empty = sum_rate(np.empty((2, 0), dtype=int), dep, cfg, alloc)
    assert empty.sum_rate.tolist() == [0.0, 0.0]
    assert empty.fairness.tolist() == [1.0, 1.0]
