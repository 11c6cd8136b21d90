"""Scalar reference for the matching scan.

`reference_scan` evaluates one candidate move at a time with
`SetEvaluator.utility`.  `pinchsim.activation.matching_activation`, which
scores an antenna's candidates as a batch, must reproduce its final matching
and its whole trajectory (moves, utilities, cycles, evaluation counts).
Not imported by the package.
"""

from __future__ import annotations

from pinchsim import (Deployment, Matching, Move, PowerAllocation,
                      SetEvaluator, SystemConfig, Trajectory)


def reference_scan(config: SystemConfig, deployment: Deployment,
                   alloc: PowerAllocation, initial: Matching,
                   evaluator: SetEvaluator | None = None,
                   max_cycles: int | None = None
                   ) -> tuple[Matching, Trajectory]:
    """Candidate-by-candidate strict-improvement scan.

    Antennas are scanned in ascending index, positions likewise.  A free
    position is a relocation candidate for the current antenna; the antenna's
    own position is its deactivation candidate.  Each candidate costs one
    utility evaluation, so a cycle evaluates at most K*L candidates.
    """
    if initial.k_antennas != config.k_antennas:
        raise ValueError("initial matching has the wrong number of antennas")
    ev = evaluator if evaluator is not None else SetEvaluator(config, deployment, alloc)
    assignment = list(initial.assignment)
    n_positions = len(deployment.positions)
    occupied: dict[int, int] = {}
    for antenna, pos in enumerate(assignment):
        if pos is not None:
            occupied[pos] = antenna

    def active() -> tuple[int, ...]:
        return tuple(sorted(occupied))

    utility = ev.utility(active())
    utilities = [utility]
    moves: list[Move] = []
    move_cycles: list[int] = []
    evals_per_cycle: list[int] = []
    cycles = 0
    improved = True
    while improved:
        improved = False
        cycles += 1
        if max_cycles is not None and cycles > max_cycles:
            raise RuntimeError(f"no convergence within {max_cycles} cycles")
        evals = 0
        for antenna in range(config.k_antennas):
            for pos in range(n_positions):
                holder = occupied.get(pos)
                if holder is None:
                    source = assignment[antenna]
                    candidate = dict(occupied)
                    if source is not None:
                        del candidate[source]
                    candidate[pos] = antenna
                    evals += 1
                    gain = ev.utility(tuple(sorted(candidate)))
                    if gain > utility:
                        if source is not None:
                            del occupied[source]
                        occupied[pos] = antenna
                        assignment[antenna] = pos
                        utility = gain
                        utilities.append(gain)
                        moves.append(Move(antenna, source, pos))
                        move_cycles.append(cycles)
                        improved = True
                elif holder == antenna:
                    candidate = dict(occupied)
                    del candidate[pos]
                    evals += 1
                    gain = ev.utility(tuple(sorted(candidate)))
                    if gain > utility:
                        del occupied[pos]
                        assignment[antenna] = None
                        utility = gain
                        utilities.append(gain)
                        moves.append(Move(antenna, pos, None))
                        move_cycles.append(cycles)
                        improved = True
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
