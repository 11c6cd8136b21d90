"""Antenna activation: the matching-based search and the benchmark schemes.

The search treats antennas as the proposing side of a one-sided one-to-one
matching with positions.  Preferences carry externalities, so they are induced
by a single global utility, the sum rate; a move is accepted only on strict
improvement, which makes every trajectory strictly increasing and guarantees
termination on the finite matching space.  Swaps between two antennas never
change the active set, hence never the utility, and are not searched.

The scans of one drop at the transmit powers of a sweep, whose evaluators
form a `kernels.family`, run as one group scan: while their moves agree,
the powers share each walk and its one kernel call, which scores the walk's
sets at every power of the group; where they part ways, the group splits.
Each power's result, and the sets its evaluator counts, are exactly those
of its scan alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .channel import amplitudes, power_gains, selection
from .kernels import SetEvaluator
from .noma import PowerAllocation, RateReport, rate_report
from .scenario import (Deployment, SystemConfig, dbm_to_watts, derived_rf,
                       integer, waveguide_points)


class Move(NamedTuple):
    """One accepted adjustment: relocate to a free position or deactivate."""

    antenna: int
    source: int | None   # previous position, None if it was inactive
    target: int | None   # new position, None means deactivate


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the candidate budget."""


@dataclass(frozen=True)
class Matching:
    """Assignment of each antenna to a position index or None (inactive).

    Matched positions are distinct integers, stored as `int`: a position
    holds at most one antenna.
    """

    assignment: tuple[int | None, ...]

    def __post_init__(self):
        # Plain ints skip the check, which would build its message for each.
        object.__setattr__(self, "assignment", tuple(
            p if p is None or type(p) is int
            else integer(f"position of antenna {a}", p)
            for a, p in enumerate(self.assignment)))
        matched = [p for p in self.assignment if p is not None]
        if len(set(matched)) != len(matched):
            raise ValueError("two antennas share a position")
        if any(p < 0 for p in matched):
            raise ValueError("position indices are 0-based and non-negative")

    @property
    def k_antennas(self) -> int:
        return len(self.assignment)

    def active_positions(self) -> tuple[int, ...]:
        return tuple(sorted(p for p in self.assignment if p is not None))


@dataclass(frozen=True)
class Trajectory:
    """Instrumentation of one search run.

    utilities[0] is the initial utility; one more entry per accepted move.
    cycles counts complete K-by-L scans, including the final silent one.
    """

    utilities: tuple[float, ...]
    moves: tuple[Move, ...]
    move_cycles: tuple[int, ...]          # 1-based cycle of each accepted move
    cycles: int
    evaluations: int                      # candidates examined, total
    evaluations_per_cycle: tuple[int, ...]

    def __post_init__(self):
        if len(self.utilities) != len(self.moves) + 1:
            raise ValueError("need one utility per state")
        for a, b in zip(self.utilities, self.utilities[1:]):
            if not b > a:
                raise ValueError("utilities must be strictly increasing")


def random_matching(config: SystemConfig, deployment: Deployment,
                    rng: np.random.Generator | Sequence[np.random.Generator]
                    ) -> Matching | np.ndarray:
    """All K antennas activated at K distinct uniformly-random positions,
    drawn from the generator `rng`; or, from a sequence of T generators, a
    block's (T, K) `intp` array of them, row i antenna by antenna as
    generator i draws them alone."""
    rngs = rng if isinstance(rng, Sequence) else [rng]
    starts = np.array([r.choice(len(deployment.positions), config.k_antennas,
                                replace=False) for r in rngs],
                      dtype=np.intp).reshape(-1, config.k_antennas)
    return starts if rngs is rng else Matching(tuple(starts[0].tolist()))


def _mask(positions) -> int:
    """An activation as a bitmask of its position indices."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


class _Member:
    """One transmit power's scan in a group scan: its evaluator, the utility
    of every set it has scored, as a `_mask`, with the empty set's 0 from
    the start, and its trajectory so far; `assignment`, its final one, is
    set when its scan ends.  The members of a group have taken the same
    moves, so their memos hold the same sets."""

    __slots__ = ("ev", "memo", "utilities", "moves", "move_cycles",
                 "evaluations", "assignment")

    def __init__(self, ev: SetEvaluator):
        self.ev = ev
        self.memo: dict[int, float] = {0: 0.0}
        self.utilities: list[float] = []
        self.moves: list[Move] = []
        self.move_cycles: list[int] = []
        self.evaluations: list[int] = []    # per cycle

    def result(self, start: int) -> tuple[Matching, Trajectory]:
        return Matching(assignment=tuple(self.assignment)), Trajectory(
            utilities=(self.memo[start], *self.utilities),
            moves=tuple(self.moves),
            move_cycles=tuple(self.move_cycles),
            cycles=len(self.evaluations),
            evaluations=sum(self.evaluations),
            evaluations_per_cycle=tuple(self.evaluations),
        )


def _walk(group: list[_Member], assignment: list[int | None], antenna: int,
          pt_watts) -> list[tuple[list[_Member], int | None]] | None:
    """Walk one antenna's candidate moves in position order for every
    member of `group`, each accepting each move that raises its own
    utility.  Return None when every member took the same moves, having
    left the antenna's position in `assignment`; otherwise the parts of
    `group` that took the same moves, each with the antenna's position.

    A free position is a relocation candidate (an activation when the antenna
    is inactive); the antenna's own position is its deactivation candidate;
    positions held by other antennas are skipped.  An accepted move goes to
    the member's moves and utilities, and its cycle, the number of its
    cycles begun, to its move cycles; its walk goes on at the next
    position.  The other antennas stay put, so every candidate is their set
    plus one position, or their set alone for the deactivation.  The walk
    reads the first member's memo once for all its relocation sets and
    scores those it lacks in one batch at its start, at `pt_watts`, its
    group's power or powers (`_scan`), the current state's among them if
    missing; each member keeps those sets in its memo.  The other
    antennas' set, when missing, rides in that batch as its spare row, or
    makes a batch of its own when nothing else is missing.  For an inactive
    antenna it is the current set, the start, which each member keeps at
    once with the others; for an active one it is the deactivation set,
    kept only once the deactivation is reached.  The walk counts nothing:
    its search counts each set a memo keeps when it returns.

    Every set in a memo is the start, the empty set, which rates 0, or was
    examined by an earlier walk, against a utility no higher than the
    member's current one, which only ever rises: none of them can be
    accepted.  So the walk visits only the sets it scores, in position
    order; a candidate found in the memo still counts as examined.

    The batch skips the evaluator's index check: the free positions are
    `range(ev.n_positions)` less the other antennas', whose positions the
    caller has checked to be distinct grid indices.
    """
    ev, memo = group[0].ev, group[0].memo
    parts: dict[tuple[Move, ...], list[_Member]] = {}
    current = assignment[antenna]
    others = sorted(p for p in assignment if p is not None and p != current)
    base = _mask(others)
    positions = list(range(ev.n_positions))
    for p in reversed(others):
        del positions[p]
    visit = [p for p in positions if base | 1 << p not in memo]
    spare = base not in memo
    fresh = [base | 1 << p for p in visit] + [base] * (
        spare and current is None)
    if fresh or spare:
        scored = ev._utilities(others, visit + [ev.n_positions] * spare,
                               pt_watts).reshape(len(group), -1).tolist()
    else:
        scored = [[] for _ in group]
    own = None
    if spare and current is not None and current not in visit:
        # else the antenna is inactive, or its current set is fresh
        own = bisect_left(visit, current)
        visit.insert(own, current)
    for m, gains in zip(group, scored):
        memo = m.memo
        memo.update(zip(fresh, gains))  # an inactive one's spare is last
        if own is not None:
            # The deactivation's place, taken only if the walk reaches it
            # unmoved; after a move it is a relocation back to the walk's
            # starting set, which cannot be accepted.
            gains.insert(own, -math.inf)
        at = current
        utility = memo[base if at is None else base | 1 << at]
        moves = m.moves
        taken = len(moves)
        for pos, gain in zip(visit, gains):
            target = pos
            if pos == at:
                if spare:
                    memo[base] = gains[-1]
                gain, target = memo[base], None
            if gain > utility:
                moves.append(Move(antenna, at, target))
                m.utilities.append(gain)
                m.move_cycles.append(len(m.evaluations))
                utility, at = gain, target
        m.evaluations[-1] += len(positions)
        if len(group) > 1:
            parts.setdefault(tuple(moves[taken:]), []).append(m)
    if len(parts) > 1:
        return [(part, key[-1].target if key else current)
                for key, part in parts.items()]
    assignment[antenna] = at
    return None


def _scan(group: list[_Member], assignment: list[int | None],
          antenna: int = 0) -> None:
    """Run `group`'s scans from `antenna`'s walk of the current cycle on,
    one walk per antenna and cycle, until a cycle accepts nothing, which it
    did when the last move of the group's first member (the same moves as
    every member's) was made in an earlier cycle, or none was; then each
    member's `assignment` is the final one.  Where a walk's members take
    different moves, each part of the group goes on alone from the next
    walk, with its own copy of the assignment.  The walks score at the
    group's powers, built once here: a lone member's float, or the (G, 1, 1)
    array of the G members' powers."""
    lead = group[0]
    pt_watts = lead.ev._pt_watts if len(group) == 1 else np.array(
        [[[m.ev._pt_watts]] for m in group])
    while True:
        if antenna == 0:
            for m in group:
                m.evaluations.append(0)
        for a in range(antenna, len(assignment)):
            parts = _walk(group, assignment, a, pt_watts)
            if parts:
                for part, position in parts:
                    rest = assignment.copy()
                    rest[a] = position
                    _scan(part, rest, a + 1)
                return
        antenna = 0
        if not lead.moves or lead.move_cycles[-1] < len(lead.evaluations):
            for m in group:
                m.assignment = assignment
            return


def matching_activation(ev: SetEvaluator, initial: Matching
                        ) -> tuple[Matching, Trajectory]:
    """Run the strict-improvement scan until a full cycle accepts nothing.

    Antennas are scanned in ascending index, positions likewise, one walk
    per antenna and cycle (`_walk`).  A free position is a relocation
    candidate for the current antenna; the antenna's own position is its
    deactivation candidate.  A cycle examines at most K*L candidates.  After
    an accepted move the antenna's walk goes on at the next position, from
    the new state.  The run keeps the utility of every set it scores, so
    each candidate set costs one evaluation per run however often it is
    examined.  The starting set, unless empty, is scored in antenna 0's
    first batch: at antenna 0's own position when it starts active, as the
    spare row when it starts inactive.  So the scan makes no scalar
    `utility` call.  The K antennas are those of `initial`.

    The scan runs for the evaluator's `kernels.family`, a lone evaluator
    being a family of one, whose walks score at its power alone.  A larger
    family scans the drop at every member's power as one group: while their
    moves agree, the members share each walk and its kernel call, and each
    keeps its own memo, as every evaluator is bound to one transmit power.
    Every set in a member's memo bar the empty set was scored for that
    member, and kept, once: the memo's size less one is the count of its
    scan.  This call adds its own count to its evaluator's `calls` when it
    returns, and returns its own result; each other member's result is held
    with its count until its own call with the same `initial` takes both,
    so that every call returns, and counts, what a scan on its evaluator
    alone would.  A scan that raises counts nothing, and leaves every held
    result as it was, this call's own among them.
    """
    held = ev._held
    if held is not None and held[0] == initial:
        ev._held = None
        ev.calls += held[1]
        return held[2]
    assignment = list(initial.assignment)
    active = initial.active_positions()
    # The walks' batches do not check their indices: check the start, before
    # its mask, which an index far off the grid would make huge.
    selection(active, ev.n_positions)
    start = _mask(active)
    group = [_Member(ev)] + [_Member(e) for e in
                             (member() for member in ev.family)
                             if e is not None and e is not ev]
    _scan(group, assignment)
    for m in group[1:]:
        m.ev._held = (initial, len(m.memo) - 1, m.result(start))
    ev._held = None
    ev.calls += len(group[0].memo) - 1
    return group[0].result(start)


def check_stability(ev: SetEvaluator, matching: Matching
                    ) -> tuple[bool, Move | None]:
    """Search the unilateral move set; return the first improving move in
    (antenna, position) order as the certificate.

    Stable means no single antenna can relocate to a free position or
    deactivate with a strict utility gain.  Swaps are outside the move set.
    Each antenna takes the scan's walk from `matching`, as a group of one
    with one memo, so that no set is scored twice and `matching`'s own set
    is scored in the first walk's batch; the first move the walks accept is
    the certificate.  The sets its memo keeps are counted in `ev.calls`
    when it returns.
    """
    # The walks' batches do not check their indices: check them before
    # their masks.
    selection(matching.active_positions(), ev.n_positions)
    member = _Member(ev)
    member.evaluations.append(0)
    for antenna in range(matching.k_antennas):
        _walk([member], list(matching.assignment), antenna, ev._pt_watts)
        if member.moves:
            break
    ev.calls += len(member.memo) - 1
    return not member.moves, member.moves[0] if member.moves else None


def candidate_count(l_positions: int, k_antennas: int) -> int:
    """Number of nonempty activations with at most K antennas."""
    return sum(math.comb(l_positions, k) for k in range(1, k_antennas + 1))


def exhaustive_search(ev: SetEvaluator, k_antennas: int,
                      budget: int = 10 ** 6) -> tuple[tuple[int, ...], float]:
    """Evaluate every nonempty subset of the evaluator's positions up to
    size `k_antennas`; return the best as sorted grid indices, with its
    utility.

    Ties go to the lexicographically smallest index tuple.  Refuses to start
    when `k_antennas` is not an integer >= 1, or when the candidate count
    exceeds the budget; raises a ValueError after the loop when the best
    utility is not finite.
    """
    if integer("k_antennas", k_antennas) < 1:
        raise ValueError(f"k_antennas must be >= 1, got {k_antennas!r}")
    count = candidate_count(ev.n_positions, k_antennas)
    if count > budget:
        raise BudgetExceededError(
            f"{count} candidate sets exceed the budget of {budget}")
    best: tuple[int, ...] | None = None
    best_utility = -math.inf
    for size in range(1, k_antennas + 1):
        for sel in combinations(range(ev.n_positions), size):
            utility = ev.utility(sel)
            if utility > best_utility or (utility == best_utility
                                          and best is not None and sel < best):
                best = sel
                best_utility = utility
    if not math.isfinite(best_utility):
        raise ValueError(f"the best utility of the exhaustive search is "
                         f"{best_utility}, not finite")
    return best, best_utility


def distance_based_activation(config: SystemConfig, deployment: Deployment
                              ) -> np.ndarray | list[np.ndarray]:
    """(S, 3) antenna points on the waveguide right above the users'
    x-coordinates, off the candidate grid; for a block deployment, a list of
    each drop's, in trial order.

    Pairs antenna k with user k for k up to min(K, N); the surplus side stays
    idle.  Coinciding placements collapse to a single antenna, the first.
    Every drop's placement comes from one (T, S, 3) `waveguide_points`
    call; only a drop whose paired users share an x gets its own, collapsed.
    """
    n_pairs = min(config.k_antennas, deployment.users.shape[-2])
    xs = deployment.users[..., :n_pairs, 0].reshape(-1, n_pairs)
    points = list(waveguide_points(xs, config.height))
    for i in np.flatnonzero((np.diff(np.sort(xs)) == 0).any(1)):
        points[i] = waveguide_points(list(dict.fromkeys(xs[i].tolist())),
                                     config.height)
    return points if deployment.users.ndim == 3 else points[0]


def conventional_positions(config: SystemConfig) -> np.ndarray:
    """(K, 3) fixed half-wavelength array centred over the rectangle,
    height d."""
    lam, _, _ = derived_rf(config)
    k = config.k_antennas
    return waveguide_points(
        [config.d1 / 2.0 + (i + 1 - (k + 1) / 2.0) * lam / 2.0
         for i in range(k)], config.height)


def conventional_amplitudes(config: SystemConfig, users: np.ndarray
                            ) -> np.ndarray:
    """(..., N, K) `amplitudes` of the (..., N, 3) users at the fixed array:
    no feed, so no guide phase and no loss.  They do not depend on the
    transmit power."""
    return amplitudes(config, users, conventional_positions(config), None)


def conventional_baseline(config: SystemConfig, users: np.ndarray,
                          alloc: PowerAllocation,
                          amp: np.ndarray | None = None) -> RateReport:
    """Fixed-antenna benchmark for the (N, 3) users of one drop, or a
    (T, N, 3) block of drops: no waveguide, so no phase shift and no
    dielectric loss; each of the K antennas radiates P_t/K.  Rates go through
    the same SIC stack as the pinching schemes.  `amp` is the users'
    `conventional_amplitudes`, if the caller already has them.
    """
    if amp is None:
        amp = conventional_amplitudes(config, users)
    return rate_report(power_gains(amp, dbm_to_watts(config.pt_dbm)), alloc,
                       dbm_to_watts(config.noise_dbm))
