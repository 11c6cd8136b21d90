"""Independent reference for whole runs: every cell of a result table and
every row of a convergence trace, recomputed from a spec's plain numbers.

Like `reference.py` it imports no pinchsim code.  The drops and the random
starts come from numpy's generators, keyed by (seed, stream, trial) and
drawn in the documented order; every utility and rate comes from the scalar
oracle in `reference.py`.  The matching is the candidate-by-candidate scan,
the optimum a pass over `itertools.combinations`.  The oracle's utilities
differ from the package's by ulps, so an exact tie could send the two scans
different ways; with continuous random geometry that has probability zero.

A spec is the dict of the `.spec.json` sidecar: `base` (the scenario's
numbers), `schemes`, `trials` and `sweep` (None, or `param`, `start`,
`stop` and `step`).
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from reference import (C_LIGHT, reference_coeff, reference_rates,
                       reference_user_channels)

USER_STREAM, MATCHING_STREAM = 0, 1
COUNT_PARAMS = ("n_users", "k_antennas", "l_positions")


def round9(x):
    """The 9-significant-digit value a CSV stores."""
    return float(f"{x:.9g}")


def watts(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def generator(seed, stream, trial):
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(stream, trial)))


def drop(c, trial):
    """The trial's N users as (x, y, 0) tuples: N uniform x in [0, d1],
    then N uniform y in [-d2/2, d2/2], from the trial's user stream."""
    rng = generator(c["seed"], USER_STREAM, trial)
    xs = rng.uniform(0.0, c["d1"], c["n_users"]).tolist()
    ys = rng.uniform(-c["d2"] / 2.0, c["d2"] / 2.0, c["n_users"]).tolist()
    return [(x, y, 0.0) for x, y in zip(xs, ys)]


def random_start(c, trial):
    """The trial's random matching: K distinct grid indices, antenna by
    antenna, from the trial's matching stream."""
    rng = generator(c["seed"], MATCHING_STREAM, trial)
    return rng.choice(c["l_positions"], c["k_antennas"],
                      replace=False).tolist()


def grid(c):
    """The L candidate points, evenly spaced along the guide over [0, d1]."""
    return [(c["d1"] * i / (c["l_positions"] - 1), 0.0, c["height"])
            for i in range(c["l_positions"])]


def rates_of_gains(c, gains):
    n = c["n_users"]
    return reference_rates(gains, [1.0 / n] * n, watts(c["noise_dbm"]))


def guide_rates(c, users, points):
    """Per-user rates of antenna points on the guide, fed from x = 0."""
    if not points:
        return [0.0] * len(users)
    channels = reference_user_channels(
        users, points, (0.0, 0.0, c["height"]), watts(c["pt_dbm"]),
        c["kappa_db_per_m"], c["carrier_hz"], c["n_eff"])
    return rates_of_gains(c, [abs(h) ** 2 for h in channels])


def conventional_rates(c, users):
    """Per-user rates of K fixed antennas half a wavelength apart, centred
    over the rectangle: no feed, so no guide phase and no loss."""
    k, lam = c["k_antennas"], C_LIGHT / c["carrier_hz"]
    points = [(c["d1"] / 2.0 + (i + 1 - (k + 1) / 2.0) * lam / 2.0, 0.0,
               c["height"]) for i in range(k)]
    power = watts(c["pt_dbm"]) / k
    return rates_of_gains(c, [
        power * abs(sum(reference_coeff(u, a, c["carrier_hz"])
                        for a in points)) ** 2 for u in users])


def jain(rates):
    total = sum(rates)
    if total == 0.0:
        return 1.0
    return total * total / (len(rates) * sum(r * r for r in rates))


def scan(utility, start, l_positions):
    """The strict-improvement scan, one candidate at a time: antennas in
    ascending index, positions likewise; a free position is a relocation,
    the antenna's own a deactivation, another's is skipped.  Returns the
    final assignment, the utilities, each move's cycle and the cycles."""
    assignment = list(start)
    current = utility(assignment)
    utilities, move_cycles, cycles = [current], [], 0
    improved = True
    while improved:
        improved, cycles = False, cycles + 1
        for a in range(len(assignment)):
            for pos in range(l_positions):
                if pos != assignment[a] and pos in assignment:
                    continue
                candidate = list(assignment)
                candidate[a] = None if pos == assignment[a] else pos
                gain = utility(candidate)
                if gain > current:
                    assignment, current = candidate, gain
                    utilities.append(gain)
                    move_cycles.append(cycles)
                    improved = True
    return assignment, utilities, move_cycles, cycles


def optimum(utility, l_positions, k_antennas):
    """The best nonempty set of at most K grid indices; ties go to the
    lexicographically smaller tuple."""
    best, best_utility = None, -math.inf
    for size in range(1, k_antennas + 1):
        for sel in itertools.combinations(range(l_positions), size):
            gain = utility(sel)
            if gain > best_utility or (gain == best_utility and sel < best):
                best, best_utility = sel, gain
    return best, best_utility


def searches(c, trial):
    """The trial's users, grid utility, scan and optimum."""
    users, points = drop(c, trial), grid(c)

    @lru_cache(maxsize=None)
    def set_utility(active):
        return sum(guide_rates(c, users, [points[p] for p in active]))

    def utility(assignment):
        return set_utility(tuple(sorted(p for p in assignment
                                        if p is not None)))

    found = scan(utility, random_start(c, trial), c["l_positions"])
    return users, utility, found, optimum(utility, c["l_positions"],
                                          c["k_antennas"])


def trial_metrics(c, trial, schemes):
    """Per scheme: the trial's sum rate, fairness, active count and cycles
    (None but for the matching)."""
    users, _, (final, _, _, cycles), (best, _) = searches(c, trial)
    n_pairs = min(c["k_antennas"], c["n_users"])
    placement = list(dict.fromkeys(u[0] for u in users[:n_pairs]))
    on_grid = {
        "matching": [p for p in final if p is not None],
        "random": random_start(c, trial),
        "exhaustive": best,
    }
    points = grid(c)
    out = {}
    for scheme in schemes:
        if scheme in on_grid:
            active = sorted(on_grid[scheme])
            rates = guide_rates(c, users, [points[p] for p in active])
            count = len(active)
        elif scheme == "distance":
            rates = guide_rates(c, users, [(x, 0.0, c["height"])
                                           for x in placement])
            count = len(placement)
        else:
            rates, count = conventional_rates(c, users), c["k_antennas"]
        out[scheme] = (sum(rates), jain(rates), count,
                       cycles if scheme == "matching" else None)
    return out


def configs(spec):
    """(sweep value, config) per sweep value, or (None, base)."""
    base, sweep = spec["base"], spec["sweep"]
    if sweep is None:
        return [(None, base)]
    tolerance = 1e-12 * max(abs(sweep["stop"]), 1.0)
    count = math.floor((sweep["stop"] - sweep["start"] + tolerance)
                       / sweep["step"]) + 1
    out = []
    for i in range(count):
        value = sweep["start"] + i * sweep["step"]
        setting = (int(round(value)) if sweep["param"] in COUNT_PARAMS
                   else value)
        out.append((value, {**base, sweep["param"]: setting}))
    return out


def run_rows(spec):
    """One tuple per (sweep value, scheme), as the result CSV stores it:
    sweep value, scheme, the means of sum rate, fairness, active count,
    cycles and ratio to exhaustive (None where they do not apply), trials."""
    schemes, trials = spec["schemes"], spec["trials"]
    rows = []
    for value, c in configs(spec):
        per_trial = [trial_metrics(c, t, schemes) for t in range(trials)]
        for scheme in schemes:
            columns = [list(column) for column in
                       zip(*(m[scheme] for m in per_trial))]
            if "exhaustive" in schemes:
                columns.append([m[scheme][0] / m["exhaustive"][0]
                                for m in per_trial])
            else:
                columns.append([None])
            means = [None if None in column
                     else round9(math.fsum(column) / len(column))
                     for column in columns]
            rows.append((None if value is None else round9(value), scheme,
                         *means, trials))
    return rows


def trace_rows(spec):
    """The convergence trace: per trial, the matching's utility at its start
    and after each accepted move, with its cycle, the optimum and the
    ratio."""
    rows = []
    for trial in range(spec["trials"]):
        _, _, (_, utilities, move_cycles, _), (_, best) = searches(
            spec["base"], trial)
        for step, utility in enumerate(utilities):
            rows.append((trial, step, move_cycles[step - 1] if step else 0,
                         round9(utility), round9(best),
                         round9(utility / best)))
    return rows
