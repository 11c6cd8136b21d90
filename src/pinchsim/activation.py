"""Antenna activation: the matching-based search and the benchmark schemes.

The search treats antennas as the proposing side of a one-sided one-to-one
matching with positions.  Preferences carry externalities, so they are induced
by a single global utility, the sum rate; a move is accepted only on strict
improvement, which makes every trajectory strictly increasing and guarantees
termination on the finite matching space.  Swaps between two antennas never
change the active set, hence never the utility, and are not searched.
"""

from __future__ import annotations

import math
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
                    rng: np.random.Generator) -> Matching:
    """All K antennas activated at K distinct uniformly-random positions."""
    return Matching(assignment=tuple(rng.choice(
        len(deployment.positions), config.k_antennas, replace=False).tolist()))


def _mask(positions) -> int:
    """An activation as a bitmask of its position indices."""
    mask = 0
    for p in positions:
        mask |= 1 << p
    return mask


def _walk(ev: SetEvaluator, assignment: list[int | None], antenna: int,
          memo: dict[int, float], moves: list[Move], utilities: list[float]
          ) -> int:
    """Walk one antenna's candidate moves in position order, accepting each
    that raises the utility; return the number of candidates examined.

    A free position is a relocation candidate (an activation when the antenna
    is inactive); the antenna's own position is its deactivation candidate;
    positions held by other antennas are skipped.  An accepted move updates
    `assignment`, `moves` and `utilities`, and the walk goes on at the next
    position.  The other antennas stay put, so every candidate is their set
    plus one position, or their set alone for the deactivation.  `memo` maps
    every set scored so far, as a `_mask`, to its utility.  The walk reads
    the memo once for all its relocation sets and scores those it lacks in
    one batch at its start, the current state's among them if missing.  An
    active antenna's deactivation set, the other antennas' set, rides in
    that batch as its spare row when it is nonempty and missing; the walk
    takes it, and the evaluator counts it, only once the deactivation is
    reached.  A walk with no relocation to score scores a missing
    deactivation alone, once it is reached.  A candidate found in the memo
    still counts as examined.

    The batch skips the evaluator's index check: the free positions are
    `range(ev.n_positions)` less the other antennas', whose positions the
    caller has checked to be distinct grid indices.
    """
    current = assignment[antenna]
    others = sorted(p for p in assignment if p is not None and p != current)
    base = _mask(others)
    positions = list(range(ev.n_positions))
    for p in reversed(others):
        del positions[p]
    masks = [base | 1 << p for p in positions]
    gains = list(map(memo.get, masks))
    fresh = [i for i, gain in enumerate(gains) if gain is None]
    spare = bool(fresh and others and current is not None
                 and ev._spare is not None and base not in memo)
    if fresh:
        scored = ev._utilities(others, [positions[i] for i in fresh]
                               + [ev._spare] * spare).tolist()
        for i, gain in zip(fresh, scored):  # the spare row is last
            memo[masks[i]] = gains[i] = gain
    utility = memo[base if current is None else base | 1 << current]
    for pos, gain in zip(positions, gains):
        target = pos
        if pos == current:
            if spare:
                ev.calls += 1
                memo[base] = scored[-1]
            elif base not in memo:
                memo[base] = ev.utility(others)
            gain, target = memo[base], None
        if gain > utility:
            moves.append(Move(antenna, current, target))
            utilities.append(gain)
            utility, current = gain, target
    assignment[antenna] = current
    return len(positions)


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
    examined; the starting set is scored in antenna 0's first batch when
    antenna 0 starts active.  The memo dies with the run, as the evaluator
    is bound to one transmit power.  The K antennas are those of `initial`.
    """
    assignment = list(initial.assignment)
    active = initial.active_positions()
    # The walks' batches do not check their indices: check the start, before
    # its mask, which an index far off the grid would make huge.
    selection(active, ev.n_positions)
    start = _mask(active)
    memo: dict[int, float] = {}
    if not assignment or assignment[0] is None:
        # Otherwise the starting set rides in antenna 0's first batch.
        memo[start] = ev.utility(active)
    utilities: list[float] = []
    moves: list[Move] = []
    move_cycles: list[int] = []
    evals_per_cycle: list[int] = []
    cycles = 0
    improved = True
    while improved:
        cycles += 1
        accepted = len(moves)
        evals_per_cycle.append(sum(
            _walk(ev, assignment, antenna, memo, moves, utilities)
            for antenna in range(initial.k_antennas)))
        move_cycles += [cycles] * (len(moves) - accepted)
        improved = len(moves) > accepted
    trajectory = Trajectory(
        utilities=(memo[start], *utilities),
        moves=tuple(moves),
        move_cycles=tuple(move_cycles),
        cycles=cycles,
        evaluations=sum(evals_per_cycle),
        evaluations_per_cycle=tuple(evals_per_cycle),
    )
    return Matching(assignment=tuple(assignment)), trajectory


def check_stability(ev: SetEvaluator, matching: Matching
                    ) -> tuple[bool, Move | None]:
    """Search the unilateral move set; return the first improving move in
    (antenna, position) order as the certificate.

    Stable means no single antenna can relocate to a free position or
    deactivate with a strict utility gain.  Swaps are outside the move set.
    Each antenna takes the scan's walk from `matching`, with a memo seeded
    with its utility, so that no set is scored twice; the first move the
    walks accept is the certificate.
    """
    active = matching.active_positions()
    utility = ev.utility(active)  # checks the indices before their mask
    memo = {_mask(active): utility}
    for antenna in range(matching.k_antennas):
        moves: list[Move] = []
        _walk(ev, list(matching.assignment), antenna, memo, moves, [])
        if moves:
            return False, moves[0]
    return True, None


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
    exceeds the budget.
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
    return best, best_utility


def distance_based_activation(config: SystemConfig, deployment: Deployment
                              ) -> np.ndarray | list[np.ndarray]:
    """(S, 3) antenna points on the waveguide right above the users'
    x-coordinates, off the candidate grid; for a block deployment, a list of
    each drop's, in trial order.

    Pairs antenna k with user k for k up to min(K, N); the surplus side stays
    idle.  Coinciding placements collapse to a single antenna, the first.
    """
    n_pairs = min(config.k_antennas, deployment.users.shape[-2])
    xs = deployment.users[..., :n_pairs, 0].tolist()
    if deployment.users.ndim == 2:
        return waveguide_points(list(dict.fromkeys(xs)), config.height)
    return [waveguide_points(list(dict.fromkeys(row)), config.height)
            for row in xs]


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
