"""Matching search, stability certificates, and the benchmark schemes."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import reference
from reference_scan import reference_scan
from pinchsim import activation, harness, kernels
from pinchsim import (BudgetExceededError, Matching, Move,
                      PowerAllocation, SetEvaluator, SystemConfig, Trajectory,
                      amplitudes, candidate_count, check_stability,
                      conventional_baseline, conventional_positions,
                      dbm_to_watts, derived_rf, distance_based_activation,
                      exhaustive_search, make_deployment, matching_activation,
                      power_gains, random_matching, rate_report, stream_rng,
                      stream_rngs, sum_rate)
from pinchsim.cli import PRESETS
from pinchsim.harness import build_spec, run_experiment
from pinchsim.kernels import amplitude_matrix, family
from pinchsim.scenario import Deployment, waveguide_points


def small_instance(rng):
    return helpers.random_instance(rng, n_max=3, k_max=3, l_max=8)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(assignment=(1, 1))
    with pytest.raises(ValueError):
        Matching(assignment=(-2, 0))
    m = Matching(assignment=(4, None, 1))
    assert m.k_antennas == 3
    assert m.active_positions() == (1, 4)
    for position in (True, 1.0, np.float64(1.0), "1"):
        with pytest.raises(ValueError,
                           match="^position of antenna 1 must be an integer"):
            Matching(assignment=(3, position))
    m = Matching(assignment=(np.int64(2), None, np.uint8(0)))
    assert m.assignment == (2, None, 0)
    assert [type(p) for p in m.assignment] == [int, type(None), int]


def test_trajectory_must_increase():
    with pytest.raises(ValueError):
        Trajectory(utilities=(1.0, 1.0), moves=(Move(0, 0, 1),),
                   move_cycles=(1,), cycles=1, evaluations=2,
                   evaluations_per_cycle=(2,))


def test_random_matching_basics():
    cfg = SystemConfig(k_antennas=3, l_positions=6)
    dep = make_deployment(cfg, stream_rng(1, 0, 0))
    m = random_matching(cfg, dep, stream_rng(1, 1, 0))
    assert len(m.active_positions()) == 3
    again = random_matching(cfg, dep, stream_rng(1, 1, 0))
    assert m == again
    # K = L activates every position
    cfg_full = SystemConfig(k_antennas=6, l_positions=6)
    dep_full = make_deployment(cfg_full, stream_rng(1, 0, 0))
    full = random_matching(cfg_full, dep_full, stream_rng(1, 1, 0))
    assert full.active_positions() == (0, 1, 2, 3, 4, 5)


def test_random_matching_hits_every_position():
    cfg = SystemConfig(k_antennas=2, l_positions=5)
    dep = make_deployment(cfg, stream_rng(2, 0, 0))
    seen = set()
    for t in range(200):
        seen.update(random_matching(cfg, dep, stream_rng(2, 1, t)).active_positions())
    assert seen == set(range(5))


@pytest.mark.parametrize("k, l_positions", [(3, 8), (8, 8)])
def test_random_matching_block_form_draws_each_trial_as_alone(k, l_positions):
    # from a sequence of generators, one (T, K) intp row per trial, each the
    # assignment its generator draws alone; K = L makes every row a full
    # permutation, and no trial makes a (0, K) array
    cfg = SystemConfig(k_antennas=k, l_positions=l_positions, seed=5)
    dep = make_deployment(cfg, stream_rng(cfg.seed, 0, 0))
    trials = range(3, 40)
    starts = random_matching(cfg, dep, stream_rngs(cfg.seed, 1, trials))
    assert starts.shape == (len(trials), k) and starts.dtype == np.intp
    for row, trial in zip(starts.tolist(), trials):
        one = random_matching(cfg, dep, stream_rng(cfg.seed, 1, trial))
        assert tuple(row) == one.assignment
        if k == l_positions:
            assert sorted(row) == list(range(l_positions))
    empty = random_matching(cfg, dep, stream_rngs(cfg.seed, 1, range(0)))
    assert empty.shape == (0, k) and empty.dtype == np.intp


def distinct_matchings(l_positions, k_antennas):
    # injective assignments of K antennas to L positions, inactive allowed
    return sum(math.comb(k_antennas, j) * math.perm(l_positions, j)
               for j in range(k_antennas + 1))


def test_searches_reject_a_matching_off_the_grid():
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=20)
    dep = make_deployment(cfg, stream_rng(1, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(2))
    for assignment in ((20, 3), (3, 20), (None, 20)):
        for search in (matching_activation, check_stability):
            with pytest.raises(ValueError,
                               match="^position index out of range$"):
                search(ev, Matching(assignment=assignment))
    assert ev.calls == 0


def test_searches_check_a_start_before_building_its_mask(monkeypatch):
    # a position far off the grid once built its bitmask, 10**12 bits here,
    # before the grid check rejected it
    def mask(positions):
        assert max(positions) < 20, "mask built before the check"
        return real_mask(positions)

    real_mask = activation._mask
    monkeypatch.setattr(activation, "_mask", mask)
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=20)
    ev = SetEvaluator(cfg, make_deployment(cfg, stream_rng(1, 0, 0)),
                      PowerAllocation.equal(2))
    for assignment in ((10 ** 12, 3), (None, 10 ** 12)):
        for search in (matching_activation, check_stability):
            with pytest.raises(ValueError, match="out of range"):
                search(ev, Matching(assignment=assignment))


def test_trajectories_strictly_increase():
    rng = np.random.default_rng(500)
    for _ in range(100):
        cfg, dep, alloc = small_instance(rng)
        init = random_matching(cfg, dep, rng)
        final, traj = matching_activation(SetEvaluator(cfg, dep, alloc), init)
        for a, b in zip(traj.utilities, traj.utilities[1:]):
            assert b > a
        assert len(traj.utilities) == len(traj.moves) + 1
        assert len(traj.move_cycles) == len(traj.moves)
        assert traj.evaluations == sum(traj.evaluations_per_cycle)
        assert 1 <= traj.cycles <= 100
        assert len(traj.utilities) <= distinct_matchings(cfg.l_positions,
                                                         cfg.k_antennas)
        # the closing cycle accepted nothing
        if traj.moves:
            assert traj.move_cycles[-1] < traj.cycles


def test_evaluations_per_cycle_bounded():
    rng = np.random.default_rng(501)
    for _ in range(100):
        cfg, dep, alloc = small_instance(rng)
        init = random_matching(cfg, dep, rng)
        _, traj = matching_activation(SetEvaluator(cfg, dep, alloc), init)
        for evals in traj.evaluations_per_cycle:
            assert evals <= cfg.k_antennas * cfg.l_positions


def test_final_utility_matches_final_matching():
    rng = np.random.default_rng(502)
    for _ in range(50):
        cfg, dep, alloc = small_instance(rng)
        ev = SetEvaluator(cfg, dep, alloc)
        init = random_matching(cfg, dep, rng)
        final, traj = matching_activation(ev, init)
        assert traj.utilities[-1] == ev.utility(final.active_positions())


def test_optimal_start_accepts_no_moves():
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=8, seed=0)
    dep = make_deployment(cfg, stream_rng(0, 0, 0))
    alloc = PowerAllocation.equal(2)
    ev = SetEvaluator(cfg, dep, alloc)
    best, _ = exhaustive_search(ev, cfg.k_antennas)
    assert len(best) == 2  # optimum uses both antennas here
    final, traj = matching_activation(ev, Matching(assignment=best))
    assert traj.moves == ()
    assert traj.cycles == 1
    assert final.active_positions() == best


def test_single_user_moves_to_nearest_position():
    # user straight below the middle of three positions, lossless waveguide
    cfg = SystemConfig(d1=10.0, l_positions=3, n_users=1, k_antennas=1,
                       kappa_db_per_m=0.0)
    dep = Deployment(users=((5.0, 0.0, 0.0),),
                     positions=waveguide_points((0.0, 5.0, 10.0), 3.0),
                     feed=(0.0, 0.0, 3.0), d1=10.0, d2=6.0)
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(1))
    for start in (0, 2):
        final, traj = matching_activation(ev, Matching(assignment=(start,)))
        assert final.assignment == (1,)
        assert traj.utilities[-1] > traj.utilities[0]


def test_batched_scan_equals_reference_scan():
    # same moves, utilities (bit for bit), cycles and evaluation counts as
    # the candidate-by-candidate scan, from full and partial starts; the
    # stability certificate is the first move that scan accepts
    rng = np.random.default_rng(508)
    shapes = [(2, 2, 20, 60), (3, 2, 12, 60), (4, 4, 30, 40), (8, 8, 60, 20)]
    for n, k, l_positions, drops in shapes:
        for drop in range(drops):
            cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                               l_positions=l_positions)
            dep = make_deployment(cfg, rng)
            alloc = PowerAllocation.equal(n)
            assignment = list(random_matching(cfg, dep, rng).assignment)
            for antenna in range(drop % 3):  # 0, 1 or 2 antennas start inactive
                assignment[antenna] = None
            init = Matching(assignment=tuple(assignment))
            got = matching_activation(SetEvaluator(cfg, dep, alloc), init)
            want = reference_scan(cfg, dep, alloc, init)
            assert got == want
            moves = want[1].moves
            assert check_stability(SetEvaluator(cfg, dep, alloc), init) == (
                (False, moves[0]) if moves else (True, None))


class _RecordingEvaluator(SetEvaluator):
    """Logs its scoring calls as ('utility', [set]), ('batch', sets) or
    ('spare', [set]): a batch's spare row, if it has one, is logged after
    its other rows.  `scored` lists every (kind, set) scored, bar the empty
    set, which scores 0 without the kernel, in order; a spare row among
    them may go untaken.  Each batch asserts that the scan has not kept
    any of its sets yet, when the scan's memo is handed to the evaluator
    as `kept` (`_KeptMember`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log: list[tuple[str, list[tuple[int, ...]]]] = []
        self.kept: dict[int, float] = {}

    def utility(self, indices):
        self.log.append(("utility", [tuple(sorted(indices))]))
        return super().utility(indices)

    def _utilities(self, base, positions, pt_watts):
        sets = [tuple(sorted([*base, p])) for p in positions
                if p != self.n_positions]
        spares = [tuple(base)] * (len(sets) < len(positions))
        assert not self.kept.keys() & map(activation._mask, sets + spares), (
            "a set the scan keeps was scored again")
        self.log.append(("batch", sets))
        if spares:
            self.log.append(("spare", spares))
        return super()._utilities(base, positions, pt_watts)

    @property
    def scored(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(kind, s) for kind, sets in self.log for s in sets if s]


class _KeptMember(activation._Member):
    """A scan member that hands its evaluator its memo as `kept`."""

    def __init__(self, ev):
        super().__init__(ev)
        ev.kept = self.memo


def _scan_start(cfg, dep, rng, inactive):
    """A random full matching with its first `inactive` antennas switched off."""
    assignment = list(random_matching(cfg, dep, rng).assignment)
    for antenna in range(inactive):
        assignment[antenna] = None
    return Matching(assignment=tuple(assignment))


def test_scan_scores_each_candidate_set_once(monkeypatch):
    # a candidate set met again, after an accepted move or in the final
    # silent cycle, reuses its utility; the trajectory, evaluation counts
    # included, is still the candidate-by-candidate scan's
    monkeypatch.setattr(activation, "_Member", _KeptMember)
    rng = np.random.default_rng(509)
    for n, k, l_positions, drops in [(2, 2, 20, 30), (4, 4, 30, 12),
                                     (8, 8, 60, 6)]:
        for drop in range(drops):
            cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                               l_positions=l_positions)
            dep = make_deployment(cfg, rng)
            alloc = PowerAllocation.equal(n)
            init = _scan_start(cfg, dep, rng, drop % 3)
            ev = _RecordingEvaluator(cfg, dep, alloc)
            got = matching_activation(ev, init)
            # the evaluator counted each set the scan kept, and no other;
            # each went through a recorded path, and every row the scan
            # scored, bar a spare row, was kept
            kept = set(ev.kept) - {0}
            assert ev.calls == len(kept) > 0
            rows = {activation._mask(s) for kind, s in ev.scored
                    if kind != "spare"}
            spares = {activation._mask(s) for kind, s in ev.scored
                      if kind == "spare"}
            assert rows <= kept <= rows | spares
            assert got == reference_scan(cfg, dep, alloc, init)


def test_scan_call_structure(monkeypatch):
    # from a start with every antenna active, the starting set is scored in
    # antenna 0's first batch, never alone, and each antenna walk makes at
    # most one batch call
    def walk(group, *args):
        group[0].ev.log.append(("walk", []))
        return real_walk(group, *args)

    real_walk = activation._walk
    monkeypatch.setattr(activation, "_walk", walk)
    spec = build_spec(PRESETS["power"])
    rng = np.random.default_rng(511)
    for _ in range(10):
        dep = make_deployment(spec.base, rng)
        amp = amplitude_matrix(spec.base, dep)
        alloc = PowerAllocation.equal(spec.base.n_users)
        init = random_matching(spec.base, dep, rng)
        start = init.active_positions()
        assert len(start) == spec.base.k_antennas
        for pt_dbm in spec.sweep.values():
            cfg = dataclasses.replace(spec.base, pt_dbm=pt_dbm)
            ev = _RecordingEvaluator(cfg, dep, alloc, amp=amp)
            _, traj = matching_activation(ev, init)
            assert ev.log[0] == ("walk", []) and ev.log[1][0] == "batch"
            assert start in ev.log[1][1]
            assert ("utility", [start]) not in ev.log
            batches_per_walk, alone_per_walk = [], []
            for kind, _ in ev.log:
                if kind == "walk":
                    batches_per_walk.append(0)
                    alone_per_walk.append(0)
                elif kind == "batch":
                    batches_per_walk[-1] += 1
                elif kind == "utility":
                    alone_per_walk[-1] += 1
            assert len(batches_per_walk) == traj.cycles * cfg.k_antennas
            assert max(batches_per_walk) == 1
            # a walk scores its deactivation alone only if it made no batch
            assert all(not (batches and alone) for batches, alone
                       in zip(batches_per_walk, alone_per_walk))


class _SpareEvaluator(SetEvaluator):
    """Records, per batch, whether it carried the spare row."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spares: list[bool] = []

    def _utilities(self, base, positions, pt_watts):
        self.spares.append(positions[-1] == self.n_positions)
        return super()._utilities(base, positions, pt_watts)


def _walk_alone(ev, assignment, antenna, memo):
    """One antenna's walk as a group of one with `memo`, counting in
    `ev.calls` the sets the walk adds to it, as its search would on return;
    its moves."""
    member = activation._Member(ev)
    member.memo = memo
    member.evaluations.append(0)
    kept = len(memo)
    activation._walk([member], assignment, antenna, ev._pt_watts)
    ev.calls += len(memo) - kept
    return member.moves


def test_only_an_antenna_with_company_offers_a_spare_row():
    rng = np.random.default_rng(512)
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=12)
    alloc = PowerAllocation.equal(2)
    for _ in range(20):
        dep = make_deployment(cfg, rng)
        # an inactive antenna has no deactivation to carry, and its current
        # set, the other antenna's, is scored already
        ev = _SpareEvaluator(cfg, dep, alloc)
        memo = {activation._mask([3]): ev.utility([3])}
        _walk_alone(ev, [None, 3], 0, memo)
        assert ev.spares == [False]
        # unless it is not: then that set rides as the spare row, and it is
        # counted and kept at once, whatever the walk does next
        ev = _SpareEvaluator(cfg, dep, alloc)
        memo = {}
        _walk_alone(ev, [None, 3], 0, memo)
        assert ev.spares == [True]
        assert ev.calls == len(memo) == cfg.l_positions  # 11 moves, 1 spare
        assert memo[activation._mask([3])] == ev.utility([3])
        # an active one carries its deactivation, the other antenna's set;
        # it is counted, and kept, only if the walk reaches it unmoved
        ev = _SpareEvaluator(cfg, dep, alloc)
        memo = {}
        moves = _walk_alone(ev, [5, 3], 0, memo)
        assert ev.spares == [True]
        first = moves[0].target if moves else None
        reached = first is None or first > 5
        assert (activation._mask([3]) in memo) == reached
        assert ev.calls == len(memo) == cfg.l_positions - 1 + reached
        # and a stability check that stops at that walk's first move counts
        # the same sets
        if moves:
            ev = SetEvaluator(cfg, dep, alloc)
            assert check_stability(ev, Matching(assignment=(5, 3))) == (
                False, moves[0])
            assert ev.calls == len(memo)
    # a lone antenna's deactivation set is empty: it scores 0 without the
    # kernel, and no batch carries it
    cfg = SystemConfig(n_users=2, k_antennas=1, l_positions=12)
    for _ in range(20):
        dep = make_deployment(cfg, rng)
        init = random_matching(cfg, dep, rng)
        ev = _SpareEvaluator(cfg, dep, alloc)
        assert matching_activation(ev, init) == reference_scan(cfg, dep,
                                                               alloc, init)
        assert ev.spares and not any(ev.spares)
        assert ev.calls == cfg.l_positions  # one per position, none for ()


def test_the_scan_makes_no_scalar_utility_call(monkeypatch):
    # from a start with antenna 0 inactive, or every antenna inactive, the
    # starting set rides in antenna 0's first batch: the scan, lone or in a
    # family, and the stability check score only in batches, and still find
    # the scalar reference's trajectory, counting each set it scores once
    class Distinct(SetEvaluator):
        """Records the nonempty sets its `utility` scores."""

        def __init__(self, *args):
            super().__init__(*args)
            self.sets = set()

        def utility(self, indices):
            if len(indices):
                self.sets.add(tuple(sorted(indices)))
            return super().utility(indices)

    def no_call(self, indices):
        raise AssertionError(f"scalar utility call for {indices}")

    rng = np.random.default_rng(513)
    for n, k, l_positions in [(1, 3, 10), (2, 2, 20), (3, 3, 12),
                              (4, 4, 20)]:
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                           l_positions=l_positions)
        configs = [dataclasses.replace(cfg, pt_dbm=p)
                   for p in (-10.0, 10.0, 30.0)]
        alloc = PowerAllocation.equal(n)
        for drop in range(3):
            dep = make_deployment(cfg, rng)
            amp = amplitude_matrix(cfg, dep)
            for inactive in sorted({1, k}):
                init = _scan_start(cfg, dep, rng, inactive)
                want, counts = [], []
                for c in configs:
                    ref = Distinct(c, dep, alloc)
                    want.append(reference_scan(c, dep, alloc, init, ref))
                    counts.append(len(ref.sets))
                with monkeypatch.context() as patch:
                    patch.setattr(SetEvaluator, "utility", no_call)
                    members = family(SetEvaluator(c, dep, alloc, amp=amp)
                                     for c in configs)
                    for i in (1, 2, 0):
                        alone = SetEvaluator(configs[i], dep, alloc, amp=amp)
                        assert matching_activation(alone, init) == want[i]
                        assert matching_activation(members[i], init) == (
                            want[i])
                        assert members[i].calls == alone.calls == counts[i]
                        moves = want[i][1].moves
                        assert check_stability(alone, init) == (
                            (False, moves[0]) if moves else (True, None))
                        assert check_stability(alone, want[i][0]) == (
                            True, None)
    # nor does a run of every scheme but the exhaustive search
    with monkeypatch.context() as patch:
        patch.setattr(SetEvaluator, "utility", no_call)
        for preset in ("power", "antenna-count"):
            run_experiment(build_spec({
                **PRESETS[preset], "trials": "2",
                "schemes": "matching,random,distance,conventional"}))


def _count_scans(monkeypatch) -> list[tuple[int, int, int, int]]:
    """Make each of the harness's matching scans append its kernel rows,
    evaluations, accepted moves and cycles to the list returned."""
    def counted(ev, initial):
        calls = ev.calls
        final, trajectory = real(ev, initial)
        work.append((ev.calls - calls, trajectory.evaluations,
                     len(trajectory.moves), trajectory.cycles))
        return final, trajectory

    work: list[tuple[int, int, int, int]] = []
    real = harness.matching_activation
    monkeypatch.setattr(harness, "matching_activation", counted)
    return work


# Per seed: kernel rows, evaluations, accepted moves and cycles summed over
# the 600 scans of the power preset at 120 trials (the `scan` benchmark
# workload).  A faster scan must still do this work, no more and no less.
SCAN_WORK = {3: (32447, 49856, 2984, 1312), 1: (33120, 50654, 2903, 1333)}


def test_scan_work_counts_are_pinned(monkeypatch):
    work = _count_scans(monkeypatch)
    for seed, want in SCAN_WORK.items():
        work.clear()
        run_experiment(build_spec({**PRESETS["power"], "trials": "120",
                                   "seed": str(seed),
                                   "schemes": "matching"}))
        assert len(work) == 600
        assert tuple(map(sum, zip(*work))) == want


# The kernel batches of SCAN_WORK's scans at seed 3, and how many of them
# score one row: with each trial's evaluators linked as one family, so that
# its scans at the five powers share their walks, and with each left alone.
SCAN_BATCHES = {True: (449, 88), False: (2138, 405)}


def test_scan_batches_are_pinned(monkeypatch):
    # SCAN_WORK counts the sets each evaluator scores, which are the same
    # whether a trial's scans share their walks or not; the batches are not
    def counted(ev, base, positions, *args):
        rows.append(len(positions))
        return real(ev, base, positions, *args)

    real = SetEvaluator._utilities
    monkeypatch.setattr(SetEvaluator, "_utilities", counted)
    for linked, want in SCAN_BATCHES.items():
        rows: list[int] = []
        with monkeypatch.context() as patch:
            if not linked:
                patch.setattr(kernels, "family", tuple)
            run_experiment(build_spec({**PRESETS["power"], "trials": "120",
                                       "seed": "3", "schemes": "matching"}))
        assert (len(rows), rows.count(1)) == want


# The lone scans of two presets that sweep no power, so that each drop's
# scan runs alone, at 20 trials, seed 1: the scan count and the work counts
# summed as in SCAN_WORK.
LONE_SCAN_WORK = {"antenna-count": (80, (11414, 14675, 771, 191)),
                  "area-length": (60, (7653, 10248, 565, 150))}


def test_lone_scan_work_counts_are_pinned(monkeypatch):
    work = _count_scans(monkeypatch)
    for preset, want in LONE_SCAN_WORK.items():
        work.clear()
        run_experiment(build_spec({**PRESETS[preset], "trials": "20",
                                   "seed": "1", "schemes": "matching"}))
        assert (len(work), tuple(map(sum, zip(*work)))) == want


# A wide low-SNR power sweep (N=K=4, L=20, -10..40 dBm in steps of 5) over
# two blocks, where a trial's scans at its 11 powers part ways: the sha256 of
# its CSV, its scan count and its work counts summed as in SCAN_WORK.
WIDE_SWEEP = {"n_users": "4", "k_antennas": "4", "l_positions": "20",
              "schemes": "matching,random", "trials": "70", "seed": "5",
              "sweep_param": "pt_dbm", "sweep_from": "-10", "sweep_to": "40",
              "sweep_step": "5"}
WIDE_SWEEP_DIGEST = (
    "125ef33d6ecf5fc0ee892750c9b29e77ec6464f56776b4749ade863c5cf3e8cc")
WIDE_SWEEP_WORK = (770, (93520, 121663, 5976, 1789))


# The same sweep with one user, pinned alike.
ONE_USER_SWEEP = {**WIDE_SWEEP, "n_users": "1"}
ONE_USER_SWEEP_DIGEST = (
    "58c30fc87ca3d077696e104ac2bf818978d4bf9ec69d9a8973ee3278a1e138ed")
ONE_USER_SWEEP_WORK = (770, (92444, 120428, 7095, 1771))


def _sweep_pins(monkeypatch, tmp_path, settings):
    """The sha256 of the CSV of a sweep run with `settings`, and its scan
    count and work counts summed as in SCAN_WORK, over blocks of 64 trials."""
    monkeypatch.setattr(harness, "BLOCK", 64)
    work = _count_scans(monkeypatch)
    out = tmp_path / "sweep.csv"
    run_experiment(build_spec({**settings, "output_path": str(out)}))
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            (len(work), tuple(map(sum, zip(*work)))))


def test_diverging_power_sweep_is_pinned(monkeypatch, tmp_path):
    assert _sweep_pins(monkeypatch, tmp_path, WIDE_SWEEP) == (
        WIDE_SWEEP_DIGEST, WIDE_SWEEP_WORK)


def test_one_user_power_sweep_is_pinned(monkeypatch, tmp_path):
    assert _sweep_pins(monkeypatch, tmp_path, ONE_USER_SWEEP) == (
        ONE_USER_SWEEP_DIGEST, ONE_USER_SWEEP_WORK)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 3), extra=st.integers(0, 5),
       powers=st.lists(st.integers(-20, 40), min_size=1, max_size=6,
                       unique=True),
       inactive=st.integers(0, 3), first=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_family_members_scan_as_they_would_alone(n, k, extra, powers,
                                                 inactive, first, seed):
    # one drop at up to six powers, low ones among them so that the group
    # parts ways: whichever member is called first, each call returns, and
    # counts, what a scan on a fresh evaluator at its power alone does
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(d1=float(rng.uniform(5.0, 30.0)), n_users=n,
                       k_antennas=k, l_positions=max(2, k + extra))
    dep = make_deployment(cfg, rng)
    alloc = PowerAllocation.equal(n)
    amp = amplitude_matrix(cfg, dep)
    init = _scan_start(cfg, dep, rng, min(inactive, k))
    configs = [dataclasses.replace(cfg, pt_dbm=float(p)) for p in powers]
    members = family(SetEvaluator(c, dep, alloc, amp=amp) for c in configs)
    first %= len(members)
    for i in [*range(first, len(members)), *range(first)]:
        alone = SetEvaluator(configs[i], dep, alloc, amp=amp)
        got = matching_activation(members[i], init)
        assert got == matching_activation(alone, init)
        assert members[i].calls == alone.calls
        assert check_stability(alone, got[0]) == (True, None)


def test_a_search_that_raises_counts_nothing(monkeypatch):
    # a search counts the sets it scored only when it returns: one that
    # fails partway leaves every count and held result as it was
    def third_raises(ev, *args):
        batches.append(len(batches))
        if len(batches) == 3:
            raise RuntimeError("third batch")
        return real(ev, *args)

    cfg = SystemConfig(d1=30.0, n_users=3, k_antennas=3, l_positions=12)
    rng = np.random.default_rng(516)
    dep = make_deployment(cfg, rng)
    alloc = PowerAllocation.equal(3)
    amp = amplitude_matrix(cfg, dep)
    init = random_matching(cfg, dep, rng)
    lone = SetEvaluator(cfg, dep, alloc, amp=amp)
    stable, _ = matching_activation(SetEvaluator(cfg, dep, alloc), init)
    members = family(SetEvaluator(dataclasses.replace(cfg, pt_dbm=p), dep,
                                  alloc, amp=amp) for p in (30.0, 20.0, 10.0))
    # members 1 and 2 hold their results from another start, member 1's
    # final matching stable at its power
    matching_activation(members[0], _scan_start(cfg, dep, rng, 1))
    held = members[1]._held[2][0]
    matching_activation(lone, init)  # so that its count is not 0
    before = [(ev.calls, ev._held) for ev in (lone, *members)]
    assert before[0][0] > 0 and before[2][1] is not None
    real = SetEvaluator._utilities
    monkeypatch.setattr(SetEvaluator, "_utilities", third_raises)
    for search, ev, start in [(matching_activation, lone, stable),
                              (matching_activation, members[0], init),
                              (check_stability, lone, stable),
                              (check_stability, members[1], held)]:
        batches: list[int] = []
        with pytest.raises(RuntimeError, match="^third batch$"):
            search(ev, start)
        assert [(e.calls, e._held) for e in (lone, *members)] == before


def test_a_raising_call_from_another_start_keeps_the_held_result(monkeypatch):
    # a member called from a start other than its family's scan's that
    # raises keeps the result held for it: its next call from the scan's
    # start takes it, with no kernel batch
    def raises(*args):
        raise RuntimeError("batch")

    cfg = SystemConfig(d1=30.0, n_users=3, k_antennas=3, l_positions=12)
    rng = np.random.default_rng(517)
    dep = make_deployment(cfg, rng)
    alloc = PowerAllocation.equal(3)
    amp = amplitude_matrix(cfg, dep)
    start_a, start_b = (_scan_start(cfg, dep, rng, i) for i in (0, 1))
    members = family(SetEvaluator(dataclasses.replace(cfg, pt_dbm=p), dep,
                                  alloc, amp=amp) for p in (30.0, 20.0))
    matching_activation(members[0], start_a)
    held = members[1]._held
    assert held[0] == start_a != start_b
    monkeypatch.setattr(SetEvaluator, "_utilities", raises)
    with pytest.raises(RuntimeError, match="^batch$"):
        matching_activation(members[1], start_b)
    assert members[1]._held is held and members[1].calls == 0
    assert matching_activation(members[1], start_a) == held[2]
    assert members[1].calls == held[1] and members[1]._held is None


def test_scan_memo_never_crosses_powers():
    # evaluators at every power of the power preset share one drop's grid
    # matrix; each scan must still score with its own power
    spec = build_spec(PRESETS["power"])
    rng = np.random.default_rng(510)
    for drop in range(6):
        dep = make_deployment(spec.base, rng)
        amp = amplitude_matrix(spec.base, dep)
        alloc = PowerAllocation.equal(spec.base.n_users)
        init = _scan_start(spec.base, dep, rng, drop % 3)
        for pt_dbm in spec.sweep.values():
            cfg = dataclasses.replace(spec.base, pt_dbm=pt_dbm)
            ev = SetEvaluator(cfg, dep, alloc, amp=amp)
            assert (matching_activation(ev, init)
                    == reference_scan(cfg, dep, alloc, init))


def test_stability_of_search_output():
    rng = np.random.default_rng(503)
    for _ in range(60):
        cfg, dep, alloc = small_instance(rng)
        ev = SetEvaluator(cfg, dep, alloc)
        init = random_matching(cfg, dep, rng)
        final, _ = matching_activation(ev, init)
        stable, certificate = check_stability(ev, final)
        assert stable
        assert certificate is None


def test_instability_certificate_improves():
    rng = np.random.default_rng(504)
    found_unstable = 0
    for _ in range(80):
        cfg, dep, alloc = helpers.random_instance(rng, n_max=3, k_max=3, l_max=12)
        ev = SetEvaluator(cfg, dep, alloc)
        m = random_matching(cfg, dep, rng)
        stable, cert = check_stability(ev, m)
        if stable:
            # cross-check: the search accepts nothing from a stable start
            _, traj = matching_activation(ev, m)
            assert traj.moves == ()
            continue
        found_unstable += 1
        before = ev.utility(m.active_positions())
        assignment = list(m.assignment)
        assignment[cert.antenna] = cert.target
        after = ev.utility(Matching(assignment=tuple(assignment)).active_positions())
        assert after > before
    assert found_unstable > 20  # random starts are rarely stable


# check_stability's (stable, certificate, calls) on two drops per
# (N, K, L), from three starts each: a random full matching, the same with
# antenna 0 inactive, and the scan's final matching from the full one.
STABILITY_CHECKS = {
    (2, 2, 12): [(False, Move(0, 9, 7), 11), (False, Move(0, None, 1), 12),
                 (True, None, 23), (False, Move(0, 9, 0), 11),
                 (False, Move(0, None, 0), 12), (True, None, 23)],
    (3, 3, 10): [(False, Move(0, 3, None), 9), (True, None, 27),
                 (True, None, 27), (False, Move(0, 2, 1), 8),
                 (False, Move(0, None, 1), 9), (True, None, 27)],
    (1, 4, 12): [(False, Move(0, 5, 8), 10), (False, Move(0, None, 1), 10),
                 (True, None, 33), (False, Move(0, 8, 2), 9),
                 (False, Move(0, None, 2), 10), (True, None, 37)],
    (4, 4, 20): [(False, Move(0, 3, 2), 17), (False, Move(0, None, 0), 18),
                 (True, None, 69), (False, Move(0, 10, 0), 17),
                 (False, Move(0, None, 0), 18), (True, None, 69)],
}


def test_stability_check_counts_are_pinned():
    rng = np.random.default_rng(514)
    for (n, k, l_positions), want in STABILITY_CHECKS.items():
        cfg = SystemConfig(d1=30.0, n_users=n, k_antennas=k,
                           l_positions=l_positions)
        alloc = PowerAllocation.equal(n)
        got = []
        for drop in range(2):
            dep = make_deployment(cfg, rng)
            full = random_matching(cfg, dep, rng)
            final, _ = matching_activation(SetEvaluator(cfg, dep, alloc), full)
            for start in (full, Matching(assignment=(None,
                                                     *full.assignment[1:])),
                          final):
                ev = SetEvaluator(cfg, dep, alloc)
                got.append((*check_stability(ev, start), ev.calls))
        assert got == want


def test_deactivation_never_improves_single_antenna():
    # with one antenna the only deactivation leads to zero utility, so a
    # symmetric two-position instance is stable in place
    cfg = SystemConfig(d1=10.0, l_positions=2, n_users=1, k_antennas=1,
                       kappa_db_per_m=0.0)
    dep = Deployment(users=((5.0, 0.0, 0.0),),
                     positions=((0.0, 0.0, 3.0), (10.0, 0.0, 3.0)),
                     feed=(0.0, 0.0, 3.0), d1=10.0, d2=6.0)
    alloc = PowerAllocation.equal(1)
    ev = SetEvaluator(cfg, dep, alloc)
    assert ev.utility(()) == 0.0
    assert ev.utility((0,)) == ev.utility((1,))  # mirror-symmetric gains
    stable, cert = check_stability(ev, Matching(assignment=(0,)))
    assert stable and cert is None


def test_candidate_count():
    assert candidate_count(2, 2) == 3
    assert candidate_count(4, 2) == 10
    assert candidate_count(6, 6) == 2 ** 6 - 1
    rng = np.random.default_rng(505)
    for _ in range(20):
        l_positions = int(rng.integers(2, 9))
        k = int(rng.integers(1, l_positions + 1))
        brute = sum(1 for size in range(1, k + 1)
                    for _ in itertools.combinations(range(l_positions), size))
        assert candidate_count(l_positions, k) == brute


def test_exhaustive_evaluates_every_candidate_once():
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=4)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    alloc = PowerAllocation.equal(2)
    ev = SetEvaluator(cfg, dep, alloc)
    exhaustive_search(ev, cfg.k_antennas)
    assert ev.calls == 10
    cfg2 = SystemConfig(d1=0.012, n_users=2, k_antennas=2, l_positions=2)
    dep2 = make_deployment(cfg2, stream_rng(3, 0, 0))
    ev2 = SetEvaluator(cfg2, dep2, alloc)
    exhaustive_search(ev2, cfg2.k_antennas)
    assert ev2.calls == 3


def test_exhaustive_budget():
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=4)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(2))
    with pytest.raises(BudgetExceededError):
        exhaustive_search(ev, cfg.k_antennas, budget=9)
    exhaustive_search(ev, cfg.k_antennas, budget=10)


def test_exhaustive_search_refuses_a_bad_k_antennas_before_scoring():
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=4)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(2))
    for k in (0, -1, True, False, 2.5, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="k_antennas"):
            exhaustive_search(ev, k)
    assert ev.calls == 0
    best, _ = exhaustive_search(ev, np.int64(2))
    assert ev.calls == 10
    assert best == exhaustive_search(ev, 2)[0]


def test_exhaustive_search_refuses_a_bad_budget_before_scoring():
    # a NaN budget once scored every set, since `count > nan` is False, and a
    # string one raised a bare TypeError
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=8)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(2))
    for budget in (float("nan"), 0, -1, True, 36.0, np.float64(36.0), "36",
                   None):
        with pytest.raises(ValueError, match="^budget must be "):
            exhaustive_search(ev, 2, budget)
    assert ev.calls == 0
    exhaustive_search(ev, 2, np.int64(36))
    assert ev.calls == 36


class _Stub:
    """Utility stub with controllable values, for tie-break checks."""

    def __init__(self, fn, n_positions):
        self.fn = fn
        self.n_positions = n_positions

    def utility(self, sel):
        return self.fn(tuple(sel))


def test_exhaustive_tie_break_is_lexicographic():
    flat, rate = exhaustive_search(_Stub(lambda s: 1.0, 5), 2)
    assert flat == (0,)
    assert rate == 1.0
    by_size, _ = exhaustive_search(_Stub(lambda s: float(len(s)), 5), 2)
    assert by_size == (0, 1)


def test_exhaustive_search_refuses_a_best_utility_that_is_not_finite():
    # an amplitude matrix beyond the float range scores no finite utility;
    # the search used to return (None, -inf).  The check reads the best
    # utility alone: one +inf among finite ones raises, a NaN never wins.
    for fn in (lambda s: math.nan, lambda s: math.inf,
               lambda s: math.inf if s == (2,) else 1.0):
        with pytest.raises(ValueError, match="not finite"):
            exhaustive_search(_Stub(fn, 5), 2)
    assert exhaustive_search(
        _Stub(lambda s: math.nan if s == (2,) else float(sum(s)), 5),
        1) == ((4,), 4.0)
    cfg = SystemConfig(n_users=2, k_antennas=2, l_positions=4)
    dep = make_deployment(cfg, stream_rng(3, 0, 0))
    amp = np.full((2, 4), complex(math.inf, math.inf))
    ev = SetEvaluator(cfg, dep, PowerAllocation.equal(2), amp=amp)
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^the best utility of the exhaustive search is "
                              r"-inf, not finite"):
        exhaustive_search(ev, 2)
    assert ev.calls == 10  # every candidate scored once, then checked once


def test_lossless_guide_dominates_for_single_antennas():
    # with |S| = 1, removing the dielectric loss can only raise the gain at
    # every position, so the best singleton utility dominates pointwise
    rng = np.random.default_rng(507)
    for _ in range(50):
        cfg, dep, alloc = helpers.random_instance(rng, n_max=3, k_max=1, l_max=8)
        if cfg.kappa_db_per_m == 0.0:
            continue
        lossless = dataclasses.replace(cfg, kappa_db_per_m=0.0)
        ev_lossy = SetEvaluator(cfg, dep, alloc)
        ev_lossless = SetEvaluator(lossless, dep, alloc)
        for l in range(cfg.l_positions):
            assert ev_lossless.utility((l,)) >= ev_lossy.utility((l,))
        _, best_lossy = exhaustive_search(ev_lossy, cfg.k_antennas)
        _, best_lossless = exhaustive_search(ev_lossless, cfg.k_antennas)
        assert best_lossless >= best_lossy


def test_matching_never_beats_exhaustive():
    rng = np.random.default_rng(506)
    for _ in range(40):
        cfg, dep, alloc = small_instance(rng)
        ev = SetEvaluator(cfg, dep, alloc)
        init = random_matching(cfg, dep, rng)
        _, traj = matching_activation(ev, init)
        _, optimum = exhaustive_search(ev, cfg.k_antennas)
        assert traj.utilities[-1] <= optimum


def test_distance_based_overhead_placement():
    cfg = SystemConfig(n_users=2, k_antennas=2)
    dep = Deployment(users=((2.0, 1.0, 0.0), (8.0, -2.0, 0.0)),
                     positions=waveguide_points(np.linspace(0, 10, 20), 3.0),
                     feed=(0.0, 0.0, 3.0), d1=10.0, d2=6.0)
    points = distance_based_activation(cfg, dep)
    assert points.tolist() == [[2.0, 0.0, 3.0], [8.0, 0.0, 3.0]]


def test_distance_based_surplus_and_merge():
    dep = Deployment(users=((4.0, 1.0, 0.0),),
                     positions=waveguide_points(np.linspace(0, 10, 20), 3.0),
                     feed=(0.0, 0.0, 3.0), d1=10.0, d2=6.0)
    points = distance_based_activation(SystemConfig(n_users=1, k_antennas=4), dep)
    assert len(points) == 1  # surplus antennas stay idle
    two = Deployment(users=((4.0, 1.0, 0.0), (4.0, -1.0, 0.0)),
                     positions=dep.positions, feed=dep.feed, d1=10.0, d2=6.0)
    merged = distance_based_activation(SystemConfig(n_users=2, k_antennas=2), two)
    assert len(merged) == 1  # coinciding placements collapse


def test_distance_based_on_grid_equals_grid_activation():
    cfg = SystemConfig(d1=10.0, l_positions=6, n_users=1, k_antennas=1)
    dep = Deployment(users=((4.0, 2.0, 0.0),),  # x on the grid (index 2)
                     positions=waveguide_points((0, 2, 4, 6, 8, 10), 3.0),
                     feed=(0.0, 0.0, 3.0), d1=10.0, d2=6.0)
    alloc = PowerAllocation.equal(1)
    terms = amplitudes(cfg, dep.users, distance_based_activation(cfg, dep),
                       dep.feed)
    off_grid = rate_report(power_gains(terms, dbm_to_watts(cfg.pt_dbm)), alloc,
                           dbm_to_watts(cfg.noise_dbm))
    on_grid = sum_rate((2,), dep, cfg, alloc)
    assert off_grid.sum_rate == on_grid.sum_rate


def test_conventional_array_geometry():
    lam, _, _ = derived_rf(SystemConfig())
    single = conventional_positions(SystemConfig(k_antennas=1))
    assert single.tolist() == [[5.0, 0.0, 3.0]]
    four = conventional_positions(SystemConfig(k_antennas=4))
    assert len(four) == 4
    for a, b in zip(four, four[1:]):
        assert math.isclose(b[0] - a[0], 0.00535343675, rel_tol=1e-12)
        assert math.isclose(b[0] - a[0], lam / 2.0, rel_tol=1e-12)
    assert math.isclose(sum(four[:, 0]) / 4.0, 5.0, rel_tol=1e-12)


def test_conventional_baseline_against_direct_computation():
    cfg = SystemConfig(n_users=3, k_antennas=2, pt_dbm=27.0)
    dep = make_deployment(cfg, stream_rng(9, 0, 0))
    alloc = PowerAllocation.equal(3)
    report = conventional_baseline(cfg, dep.users, alloc)
    # no waveguide: no phase shift, no dielectric loss, power P_t/K each
    lam, _, eta = derived_rf(cfg)
    weight = math.sqrt(dbm_to_watts(cfg.pt_dbm) / cfg.k_antennas)
    gains = []
    for u in dep.users:
        h = 0j
        for p in conventional_positions(cfg):
            r = math.dist(u, p)
            h += eta * np.exp(-2j * np.pi * r / lam) / r * weight
        gains.append(abs(h) ** 2)
    want = reference.reference_rates(gains, list(alloc.alpha),
                                     dbm_to_watts(cfg.noise_dbm))
    for got, expect in zip(report.rates, want):
        assert math.isclose(got, expect, rel_tol=1e-9)
    assert math.isclose(report.sum_rate, sum(want), rel_tol=1e-9)


def test_conventional_power_is_conserved():
    # K antennas, each heard by one user at unit amplitude: the gains are the
    # per-antenna powers, and they add back up to P_t
    for k in (1, 2, 4):
        assert power_gains(np.eye(k), 1.0).sum() == 1.0
    assert math.isclose(power_gains(np.eye(3), 1.0).sum(), 1.0, rel_tol=1e-15)
