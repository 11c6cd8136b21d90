"""Correctness gate for one CLI invocation's output files.

The checks read the CSV with the standard library, not with pinchsim, so a
change to the package cannot loosen its own gate.  Every function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RESULT_HEADER = ["sweep_value", "scheme", "mean_sum_rate", "mean_fairness",
                 "mean_active_count", "mean_cycles",
                 "mean_ratio_to_exhaustive", "trials"]
TRACE_HEADER = ["trial", "step", "cycle", "utility", "optimum", "ratio"]
RATIO_SLACK = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def check_results(path: Path, wl: dict) -> list[str]:
    """Result CSV of `sweep`: one row per (sweep value, scheme), in order."""
    header, rows = _read(path)
    if header != RESULT_HEADER:
        return [f"result header {header}"]
    expected = [(v, s) for v in wl["sweep_values"] for s in wl["schemes"]]
    if len(rows) != len(expected):
        return [f"{len(rows)} result rows, expected {len(expected)}"]
    problems = []
    rates: dict[tuple[float, str], float] = {}
    k, n = wl["k_antennas"], wl["n_users"]
    for rec, (value, scheme) in zip(rows, expected):
        row = dict(zip(header, rec))
        try:
            if _finite(row["sweep_value"]) != value or row["scheme"] != scheme:
                problems.append(f"row {rec[:2]} where {value},{scheme} expected")
                continue
            rate = _finite(row["mean_sum_rate"])
            fairness = _finite(row["mean_fairness"])
            active = _finite(row["mean_active_count"])
            trials = int(row["trials"])
        except ValueError as exc:
            problems.append(f"row {rec[:2]}: {exc}")
            continue
        rates[(value, scheme)] = rate
        if trials != wl["trials"]:
            problems.append(f"row {rec[:2]}: trials {trials}")
        if not rate > 0 or not 0 < fairness <= 1 + RATIO_SLACK:
            problems.append(f"row {rec[:2]}: rate {rate}, fairness {fairness}")
        if row["mean_ratio_to_exhaustive"]:
            problems.append(f"row {rec[:2]}: ratio without exhaustive scheme")
        if (row["mean_cycles"] != "") != (scheme == "matching"):
            problems.append(f"row {rec[:2]}: mean_cycles {row['mean_cycles']!r}")
        elif scheme == "matching" and not float(row["mean_cycles"]) >= 1:
            problems.append(f"row {rec[:2]}: mean_cycles below 1")
        most = min(k, n) if scheme == "distance" else k
        least = k if scheme in ("random", "conventional") else 1
        if not least <= active <= most:
            problems.append(f"row {rec[:2]}: {active} active, expected "
                            f"{least}..{most}")
    # The scan starts from the random matching of the same drop and only
    # accepts strict improvements, so its mean can never fall below random's.
    for value in wl["sweep_values"]:
        if (value, "matching") in rates and (value, "random") in rates:
            if rates[(value, "matching")] < rates[(value, "random")]:
                problems.append(f"sweep {value}: matching below random")
    return problems


def check_trace(path: Path, wl: dict) -> tuple[list[str], int]:
    """Trace CSV of `convergence`; also returns the number of rows."""
    header, rows = _read(path)
    if header != TRACE_HEADER:
        return [f"trace header {header}"], len(rows)
    problems = []
    prev = None
    trials_seen = []
    for rec in rows:
        try:
            trial, step, cycle = (int(x) for x in rec[:3])
            utility, optimum, ratio = (_finite(x) for x in rec[3:])
        except ValueError as exc:
            problems.append(f"trace row {rec}: {exc}")
            break
        if step == 0:
            if trial != len(trials_seen) or cycle != 0:
                problems.append(f"trace row {rec}: bad trial start")
            trials_seen.append(trial)
        elif prev is None or trial != prev[0] or step != prev[1] + 1:
            problems.append(f"trace row {rec}: steps not contiguous")
        else:
            if cycle < max(prev[2], 1):
                problems.append(f"trace row {rec}: cycle went back")
            if utility < prev[3]:
                problems.append(f"trace row {rec}: utility decreased")
            if optimum != prev[4]:
                problems.append(f"trace row {rec}: optimum changed in trial")
        if not optimum > 0 or ratio > 1 + RATIO_SLACK \
                or utility > optimum * (1 + RATIO_SLACK):
            problems.append(f"trace row {rec}: above the exhaustive optimum")
        prev = (trial, step, cycle, utility, optimum)
        if len(problems) > 5:
            break
    if len(trials_seen) != wl["trials"]:
        problems.append(f"{len(trials_seen)} trials traced, expected {wl['trials']}")
    return problems, len(rows)


def check_sidecar(csv_path: Path, wl: dict, seed: int) -> list[str]:
    sidecar = csv_path.with_name(csv_path.stem + ".spec.json")
    try:
        spec = json.loads(sidecar.read_text())
        if spec["trials"] != wl["trials"] or spec["base"]["seed"] != seed:
            return [f"sidecar trials/seed {spec['trials']}/{spec['base']['seed']}"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"sidecar: {exc!r}"]
    return []


def check_output(csv_path: Path, wl: dict, seed: int, default_seed: int
                 ) -> tuple[list[str], int]:
    """All checks for one invocation; returns (problems, CSV data rows)."""
    if not csv_path.is_file():
        return [f"no output file {csv_path.name}"], 0
    if wl["output"] == "trace":
        problems, n_rows = check_trace(csv_path, wl)
    else:
        problems = check_results(csv_path, wl)
        n_rows = len(wl["sweep_values"]) * len(wl["schemes"])
    problems += check_sidecar(csv_path, wl, seed)
    if seed == default_seed and sha256(csv_path) != wl["default_seed_sha256"]:
        problems.append("CSV differs from the recorded default-seed digest")
    return problems, n_rows
