"""The test-side exhaustive optimum (`reference_optimum`), and the matching
scheme's near-optimality where the presets run."""

import statistics

import pytest

from pinchsim import (PowerAllocation, SetEvaluator, SystemConfig,
                      amplitude_matrix, dbm_to_watts, exhaustive_search,
                      make_deployment, matching_activation, random_matching,
                      stream_rng, stream_rngs)
from pinchsim.cli import PRESETS
from pinchsim.harness import build_spec
from reference_optimum import best_per_size, optimum


def _best_per_size(cfg, amp, alloc):
    return best_per_size(amp, cfg.k_antennas, dbm_to_watts(cfg.pt_dbm),
                         dbm_to_watts(cfg.noise_dbm), alloc)


@pytest.mark.parametrize("n_users, k_antennas, l_positions",
                         [(1, 3, 8), (2, 2, 12), (3, 4, 10)])
def test_reference_optimum_is_the_exhaustive_search(n_users, k_antennas,
                                                    l_positions):
    cfg = SystemConfig(n_users=n_users, k_antennas=k_antennas,
                       l_positions=l_positions, seed=7)
    alloc = PowerAllocation.equal(n_users)
    block = make_deployment(cfg, stream_rngs(cfg.seed, 0, range(6)))
    amp = amplitude_matrix(cfg, block)
    per_size = _best_per_size(cfg, amp, alloc)
    for t in range(len(amp)):
        ev = SetEvaluator(cfg, block, alloc, amp[t])
        drop = [(sets[t], utilities[t]) for sets, utilities in per_size]
        # the best of sizes up to k is the search's over sizes up to k
        for k in range(1, k_antennas + 1):
            assert optimum(drop[:k]) == exhaustive_search(ev, k)
        # one drop alone scores as it does in its block
        assert (optimum(_best_per_size(cfg, amp[t], alloc))
                == exhaustive_search(ev, k_antennas))


@pytest.mark.parametrize("preset", ["power", "area-length", "antenna-count",
                                    "convergence"])
def test_matching_is_near_optimal_at_each_preset_point(preset):
    # the first 10 drops of each sweep point, as the preset draws them; a
    # (4, 8, 20) drop's tree scores 263,949 sets
    for cfg in build_spec(dict(PRESETS[preset])).configs():
        alloc = PowerAllocation.equal(cfg.n_users)
        ratios, matched, drawn = [], [], []
        for trial in range(10):
            dep = make_deployment(cfg, stream_rng(cfg.seed, 0, trial))
            amp = amplitude_matrix(cfg, dep)
            ev = SetEvaluator(cfg, dep, alloc, amp)
            start = random_matching(cfg, dep, stream_rng(cfg.seed, 1, trial))
            _, traj = matching_activation(ev, start)
            _, best = optimum(_best_per_size(cfg, amp, alloc))
            # both sum each user's terms in antenna order
            assert traj.utilities[-1] <= best
            ratios.append(traj.utilities[-1] / best)
            matched.append(traj.utilities[-1])
            drawn.append(ev.utility(start.active_positions()))
        assert statistics.fmean(ratios) >= 0.95, cfg
        assert statistics.fmean(matched) >= statistics.fmean(drawn), cfg
