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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ActiveSet, amplitudes, power_gains
from .kernels import SetEvaluator
from .noma import PowerAllocation, RateReport, rate_report
from .scenario import (Deployment, Point3, SystemConfig, dbm_to_watts,
                       derived_rf)


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

    Matched positions are distinct: a position holds at most one antenna.
    """

    assignment: tuple[int | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))
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

    def active_set(self) -> ActiveSet:
        return ActiveSet(indices=self.active_positions())


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
    evaluations: int                      # candidate utility calls, total
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
    k = config.k_antennas
    positions = rng.choice(len(deployment.positions), size=k, replace=False)
    return Matching(assignment=tuple(int(p) for p in positions))


def _first_improvement(ev: SetEvaluator, assignment: Sequence[int | None],
                       antenna: int, utility: float, start: int = 0
                       ) -> tuple[int, Move | None, float]:
    """Scan one antenna's candidate moves at positions >= start, in position
    order, for the first with a utility above `utility`.

    A free position is a relocation candidate (an activation when the antenna
    is inactive); the antenna's own position is its deactivation candidate;
    positions held by other antennas are skipped.  All relocations are scored
    in one batch.  Returns the number of candidates up to and including the
    first improving one, that move and its utility; or the number of
    candidates, None and the given utility when none improves.
    """
    source = assignment[antenna]
    others = [p for p in assignment if p is not None and p != source]
    taken = set(assignment)
    positions = [p for p in range(start, ev.n_positions) if p not in taken]
    rows = np.empty((len(positions), len(others) + 1), dtype=np.intp)
    rows[:, :-1] = others
    rows[:, -1] = positions
    gains = ev.utilities(rows)
    if source is not None and source >= start:
        at = bisect_left(positions, source)
        positions.insert(at, source)
        gains = np.concatenate((gains[:at], (ev.utility(others),), gains[at:]))
    better = np.flatnonzero(gains > utility)
    if better.size == 0:
        return len(positions), None, utility
    i = int(better[0])
    pos = positions[i]
    return i + 1, Move(antenna, source, None if pos == source else pos), float(gains[i])


def matching_activation(config: SystemConfig, deployment: Deployment,
                        alloc: PowerAllocation, initial: Matching,
                        evaluator: SetEvaluator | None = None
                        ) -> tuple[Matching, Trajectory]:
    """Run the strict-improvement scan until a full cycle accepts nothing.

    Antennas are scanned in ascending index, positions likewise.  A free
    position is a relocation candidate for the current antenna; the antenna's
    own position is its deactivation candidate.  Each candidate costs one
    utility evaluation, so a cycle evaluates at most K*L candidates.  After an
    accepted move the antenna's scan resumes at the next position, from the
    new state.
    """
    if initial.k_antennas != config.k_antennas:
        raise ValueError("initial matching has the wrong number of antennas")
    ev = evaluator if evaluator is not None else SetEvaluator(config, deployment, alloc)
    assignment = list(initial.assignment)
    utility = ev.utility(initial.active_positions())
    utilities = [utility]
    moves: list[Move] = []
    move_cycles: list[int] = []
    evals_per_cycle: list[int] = []
    cycles = 0
    improved = True
    while improved:
        improved = False
        cycles += 1
        evals = 0
        for antenna in range(config.k_antennas):
            start = 0
            while True:
                scored, move, utility = _first_improvement(
                    ev, assignment, antenna, utility, start)
                evals += scored
                if move is None:
                    break
                assignment[antenna] = move.target
                utilities.append(utility)
                moves.append(move)
                move_cycles.append(cycles)
                improved = True
                start = (move.source if move.target is None else move.target) + 1
        evals_per_cycle.append(evals)
    trajectory = Trajectory(
        utilities=tuple(utilities),
        moves=tuple(moves),
        move_cycles=tuple(move_cycles),
        cycles=cycles,
        evaluations=sum(evals_per_cycle),
        evaluations_per_cycle=tuple(evals_per_cycle),
    )
    return Matching(assignment=tuple(assignment)), trajectory


def check_stability(matching: Matching, config: SystemConfig,
                    deployment: Deployment, alloc: PowerAllocation,
                    evaluator: SetEvaluator | None = None
                    ) -> tuple[bool, Move | None]:
    """Search the unilateral move set; return the first improving move in
    (antenna, position) order as the certificate.

    Stable means no single antenna can relocate to a free position or
    deactivate with a strict utility gain.  Swaps are outside the move set.
    """
    ev = evaluator if evaluator is not None else SetEvaluator(config, deployment, alloc)
    utility = ev.utility(matching.active_positions())
    for antenna in range(matching.k_antennas):
        _, move, _ = _first_improvement(ev, matching.assignment, antenna, utility)
        if move is not None:
            return False, move
    return True, None


def candidate_count(l_positions: int, k_antennas: int) -> int:
    """Number of nonempty activations with at most K antennas."""
    return sum(math.comb(l_positions, k) for k in range(1, k_antennas + 1))


def exhaustive_search(config: SystemConfig, deployment: Deployment,
                      alloc: PowerAllocation,
                      evaluator: SetEvaluator | None = None,
                      budget: int = 10 ** 6) -> tuple[ActiveSet, float]:
    """Evaluate every nonempty subset of positions up to size K.

    Ties go to the lexicographically smallest index tuple.  Refuses to start
    when the candidate count exceeds the budget.
    """
    n_positions = len(deployment.positions)
    count = candidate_count(n_positions, config.k_antennas)
    if count > budget:
        raise BudgetExceededError(
            f"{count} candidate sets exceed the budget of {budget}")
    ev = evaluator if evaluator is not None else SetEvaluator(config, deployment, alloc)
    best: tuple[int, ...] | None = None
    best_utility = -math.inf
    for size in range(1, config.k_antennas + 1):
        for sel in combinations(range(n_positions), size):
            utility = ev.utility(sel)
            if utility > best_utility or (utility == best_utility
                                          and best is not None and sel < best):
                best = sel
                best_utility = utility
    return ActiveSet(indices=best), best_utility


def distance_based_activation(config: SystemConfig,
                              deployment: Deployment) -> tuple[Point3, ...]:
    """Antenna points on the waveguide right above the users' x-coordinates,
    off the candidate grid.

    Pairs antenna k with user k for k up to min(K, N); the surplus side stays
    idle.  Coinciding placements collapse to a single antenna.
    """
    n_pairs = min(config.k_antennas, len(deployment.users))
    xs: list[float] = []
    for user in deployment.users[:n_pairs]:
        if user.x not in xs:
            xs.append(user.x)
    return tuple(Point3(x, 0.0, config.height) for x in xs)


def conventional_positions(config: SystemConfig) -> tuple[Point3, ...]:
    """Fixed half-wavelength array centred over the rectangle, height d."""
    lam, _, _ = derived_rf(config)
    k = config.k_antennas
    return tuple(
        Point3(config.d1 / 2.0 + (i + 1 - (k + 1) / 2.0) * lam / 2.0, 0.0,
               config.height)
        for i in range(k)
    )


def conventional_amplitudes(config: SystemConfig, users) -> np.ndarray:
    """(..., N, K) `amplitudes` of the users, a Point3 sequence or a
    (..., N, 3) coordinate array, at the fixed array: no feed, so no guide
    phase and no loss.  They do not depend on the transmit power."""
    return amplitudes(config, users, conventional_positions(config), None)


def conventional_baseline(config: SystemConfig, deployment: Deployment,
                          alloc: PowerAllocation,
                          amp: np.ndarray | None = None) -> RateReport:
    """Fixed-antenna benchmark: no waveguide, so no phase shift and no
    dielectric loss; each of the K antennas radiates P_t/K.  Rates go through
    the same SIC stack as the pinching schemes.  `amp` is the drop's
    `conventional_amplitudes`, if the caller already has them.
    """
    if amp is None:
        amp = conventional_amplitudes(config, deployment.users)
    return rate_report(power_gains(amp, dbm_to_watts(config.pt_dbm)), alloc,
                       dbm_to_watts(config.noise_dbm))
