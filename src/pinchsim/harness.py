"""Experiment harness: specs, Monte-Carlo execution, sweeps, CSV/JSON output.

Every trial index maps to one user drop shared by all schemes of that row
(paired comparison), and drops depend only on (seed, trial, geometry).  A
run loops over blocks of `BLOCK` consecutive trials, then over the sweep
values, then over the trials of the block.  Per trial, with its own random
stream: the drop, the random initial matching and the distance-based
placement.  Per block, with one numpy call each: the users' coordinates, the
search's grid matrices and the random, distance and conventional schemes'
amplitude terms.  None of these depends on the transmit power, so a power
sweep builds a block once and shares it across its values; any other sweep
builds it afresh at each value.  Channel sums, SIC rates, the searches and
the reports run per (sweep value, trial), and at most one block of drops is
held at a time.
"""

from __future__ import annotations

import csv
from array import array
import hashlib
import json
import logging
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from statistics import fmean
from typing import NamedTuple

import numpy as np

from . import kernels
from .activation import (Matching, candidate_count, conventional_amplitudes,
                         conventional_baseline, distance_based_activation,
                         exhaustive_search, matching_activation,
                         random_matching)
from .channel import amplitudes, power_gains
from .kernels import SetEvaluator
from .noma import PowerAllocation, RateReport, rate_report, sum_rate
from .scenario import (MATCHING_STREAM, USER_STREAM, Deployment, Point3,
                       SystemConfig, config_field_names, dbm_to_watts,
                       make_deployment, stream_rng)

log = logging.getLogger(__name__)

SCHEMES = ("matching", "random", "distance", "exhaustive", "conventional")
SWEEP_PARAMS = ("pt_dbm", "d1", "d2", "kappa_db_per_m", "n_users",
                "k_antennas", "l_positions")
COUNT_PARAMS = ("n_users", "k_antennas", "l_positions")

# Consecutive trials whose power-independent objects are built together.
BLOCK = 64


class ConfigError(ValueError):
    """Bad experiment configuration (file, flags, or spec fields)."""


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive arithmetic sweep over one config parameter."""

    param: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.param not in SWEEP_PARAMS:
            raise ConfigError(f"cannot sweep {self.param!r}; choose one of "
                              f"{', '.join(SWEEP_PARAMS)}")
        for name in ("start", "stop", "step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"sweep {name} must be finite")
            if self.param in COUNT_PARAMS and value != int(value):
                raise ConfigError(f"sweep {name} of {self.param} must be an "
                                  f"integer, got {value!r}")
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        if self.stop < self.start:
            raise ConfigError("sweep stop must be >= start")

    def values(self) -> tuple[float, ...]:
        """start + i*step up to and including stop, whatever the signs; the
        tolerance, scaled by |stop|, keeps an endpoint that rounding put a
        hair beyond stop."""
        tolerance = 1e-12 * max(abs(self.stop), 1.0)
        count = math.floor((self.stop - self.start + tolerance) / self.step) + 1
        return tuple(self.start + i * self.step for i in range(count))


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: base scenario, schemes to run, trials, optional sweep."""

    base: SystemConfig
    schemes: tuple[str, ...] = ("matching",)
    trials: int = 100
    sweep: SweepSpec | None = None
    output_path: Path | None = None
    exhaustive_budget: int = 10 ** 6

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.output_path is not None:
            object.__setattr__(self, "output_path", Path(self.output_path))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.exhaustive_budget < 1:
            raise ConfigError(f"exhaustive_budget must be >= 1, got "
                              f"{self.exhaustive_budget!r}")
        if not self.schemes:
            raise ConfigError("need at least one scheme")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; choose from "
                                  f"{', '.join(SCHEMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must be distinct")
        for cfg in self.configs():
            if "exhaustive" in self.schemes:
                count = candidate_count(cfg.l_positions, cfg.k_antennas)
                if count > self.exhaustive_budget:
                    raise ConfigError(
                        f"exhaustive search needs {count} candidates at "
                        f"{self.sweep.param}={getattr(cfg, self.sweep.param)}"
                        if self.sweep else
                        f"exhaustive search needs {count} candidates",
                    )

    def configs(self) -> tuple[SystemConfig, ...]:
        """The swept configurations (just the base when there is no sweep)."""
        if self.sweep is None:
            return (self.base,)
        return tuple(apply_sweep_value(self.base, self.sweep.param, v)
                     for v in self.sweep.values())


@dataclass(frozen=True)
class ResultRow:
    """Aggregated metrics of one (sweep value, scheme) cell."""

    sweep_value: float | None
    scheme: str
    mean_sum_rate: float
    mean_fairness: float
    mean_active_count: float
    mean_cycles: float | None
    mean_ratio_to_exhaustive: float | None
    trials: int


@dataclass(frozen=True)
class TraceRow:
    """One point of a convergence trace, indexed by accepted-move count."""

    trial: int
    step: int
    cycle: int
    utility: float
    optimum: float
    ratio: float


def apply_sweep_value(base: SystemConfig, param: str, value: float) -> SystemConfig:
    if param in COUNT_PARAMS:
        return replace(base, **{param: int(round(value))})
    return replace(base, **{param: value})


def _round9(x: float) -> float:
    """Snap to the 9-significant-digit value the CSV stores, so parsing an
    emitted file reproduces rows exactly."""
    return float(f"{x:.9g}")


def _number(key: str, text: str, kind: type):
    """`text` as an int or a float, or a ConfigError naming `key`."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {text!r}") from None


def _drop_hash(deployment) -> str:
    coords = ",".join(f"{u.x!r}:{u.y!r}" for u in deployment.users)
    return hashlib.blake2s(coords.encode(), digest_size=8).hexdigest()


def _report(gains, cfg, alloc) -> RateReport:
    """Rates of one activation from its per-user power gains."""
    return rate_report(gains, alloc, dbm_to_watts(cfg.noise_dbm))


class _Trial(NamedTuple):
    """One trial's power-independent objects; None where no scheme of the
    run asks for them."""

    index: int
    deployment: Deployment
    grid: np.ndarray | None                   # (N, L) amplitude matrix
    initial: Matching | None
    random_terms: np.ndarray | None           # (N, K)
    placement: tuple[Point3, ...] | None      # distance-based points
    distance_terms: np.ndarray | None         # (N, S)
    conventional_terms: np.ndarray | None     # (N, K)


def _blocks(trials: int) -> list[range]:
    """Ranges of at most BLOCK consecutive trial indices that cover
    `trials`."""
    return [range(first, min(first + BLOCK, trials))
            for first in range(0, trials, BLOCK)]


def _distance_terms(cfg: SystemConfig, feed: Point3, users: np.ndarray,
                    placements: list[tuple[Point3, ...]]) -> list[np.ndarray]:
    """Each trial's (N, S) amplitude terms at its distance-based placement.
    Trials are batched by S, since coinciding users collapse placements."""
    terms: list = [None] * len(placements)
    by_size: dict[int, list[int]] = {}
    for i, points in enumerate(placements):
        by_size.setdefault(len(points), []).append(i)
    for idx in by_size.values():
        points = np.array([[p.as_tuple() for p in placements[i]] for i in idx])
        for i, amp in zip(idx, amplitudes(cfg, users[idx], points, feed)):
            terms[i] = amp
    return terms


def _block(cfg: SystemConfig, trials: range, schemes) -> list[_Trial]:
    """Each trial's drop, and what `schemes` need of the grid matrix, the
    random initial matching, the distance-based placement and the amplitude
    terms.  Drops, matchings and placements come from one call per trial,
    each with its own stream; the amplitude terms of the whole block from one
    numpy call per kind."""
    drops = [make_deployment(cfg, stream_rng(cfg.seed, USER_STREAM, trial))
             for trial in trials]
    users = np.array([[u.as_tuple() for u in d.users] for d in drops])
    none = [None] * len(trials)
    grid = initial = random_terms = none
    placements = distance_terms = conventional_terms = none
    if "matching" in schemes or "exhaustive" in schemes:
        # Looked up on the module, so the traced benchmark (perfbench)
        # credits the matrix build to kernels.
        grid = kernels.amplitude_matrix(cfg, drops[0], users)
    if "matching" in schemes or "random" in schemes:
        initial = [random_matching(cfg, d, stream_rng(cfg.seed, MATCHING_STREAM, t))
                   for t, d in zip(trials, drops)]
    if "random" in schemes:
        # Each trial's users at the grid points of its random matching, in
        # ascending position order.
        points = np.array([p.as_tuple() for p in drops[0].positions])
        active = np.array([m.active_positions() for m in initial], dtype=np.intp)
        random_terms = amplitudes(cfg, users, points[active], drops[0].feed)
    if "distance" in schemes:
        placements = [distance_based_activation(cfg, d) for d in drops]
        distance_terms = _distance_terms(cfg, drops[0].feed, users, placements)
    if "conventional" in schemes:
        conventional_terms = conventional_amplitudes(cfg, users)
    return [_Trial(*objects) for objects in zip(
        trials, drops, grid, initial, random_terms, placements,
        distance_terms, conventional_terms)]


def _score_block(block: list[_Trial], value, cfg: SystemConfig,
                 alloc: PowerAllocation, spec: ExperimentSpec, cells) -> None:
    """Score every scheme on each trial of `block` at one sweep value and
    append its metrics to the value's cells."""
    schemes = spec.schemes
    pt_watts = dbm_to_watts(cfg.pt_dbm)
    for trial in block:
        deployment = trial.deployment
        if log.isEnabledFor(logging.DEBUG):
            log.debug("sweep=%s trial=%d drop=%s", value, trial.index,
                      _drop_hash(deployment))
        evaluator = None
        if trial.grid is not None:
            evaluator = SetEvaluator(cfg, deployment, alloc, amp=trial.grid)
        exhaustive_rate: float | None = None
        if "exhaustive" in schemes:
            exh_set, _ = exhaustive_search(cfg, deployment, alloc,
                                           evaluator=evaluator,
                                           budget=spec.exhaustive_budget)
            exh_report = _report(evaluator.gains(exh_set.indices), cfg, alloc)
            exhaustive_rate = exh_report.sum_rate
        for scheme in schemes:
            cycles = None
            if scheme == "matching":
                final, trajectory = matching_activation(
                    cfg, deployment, alloc, trial.initial, evaluator=evaluator)
                positions = final.active_positions()
                report = _report(evaluator.gains(positions), cfg, alloc)
                active_count = len(positions)
                cycles = trajectory.cycles
            elif scheme == "random":
                active = trial.initial.active_set()
                report = sum_rate(active, deployment, cfg, alloc,
                                  trial.random_terms)
                active_count = active.size
            elif scheme == "distance":
                report = _report(power_gains(trial.distance_terms, pt_watts),
                                 cfg, alloc)
                active_count = len(trial.placement)
            elif scheme == "exhaustive":
                report = exh_report
                active_count = exh_set.size
            else:
                report = conventional_baseline(cfg, deployment, alloc,
                                               trial.conventional_terms)
                active_count = cfg.k_antennas
            ratio = (report.sum_rate / exhaustive_rate
                     if exhaustive_rate is not None else None)
            for column, x in zip(cells[scheme], (
                    report.sum_rate, report.fairness, active_count, cycles,
                    ratio)):
                if x is not None:
                    column.append(x)


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every scheme over shared user drops; aggregate means per cell.

    Blocks of `BLOCK` trials are the outer loop, sweep values the middle
    one and the trials of the block the inner one.  A block's drops,
    placements and amplitude terms are built at the first sweep value and
    kept for the others when the sweep is over `pt_dbm`; any other sweep
    rebuilds them at each value.  The amplitude terms of the whole block come
    from one numpy call per kind, the drops and placements from one call per
    trial.  Only the power-dependent work (channel sums, SIC rates, searches,
    reports) runs per (sweep value, trial).  Cells collect their trials in
    order, so the rows do not depend on the loop order.  Deterministic for a
    fixed spec: identical specs produce identical rows (and therefore
    byte-identical CSV files).
    """
    schemes = spec.schemes
    sweep_values = spec.sweep.values() if spec.sweep else (None,)
    configs = spec.configs()
    allocs = [PowerAllocation.equal(cfg.n_users) for cfg in configs]
    # Per (sweep value, scheme): sum rate, fairness, active count, cycles and
    # ratio of each trial, as float columns since all values are held at once.
    metrics = [{s: tuple(array("d") for _ in range(5)) for s in schemes}
               for _ in configs]
    # A block's objects do not depend on the transmit power: a power sweep
    # (or none) builds them once per block, any other sweep at every value.
    shared = spec.sweep is None or spec.sweep.param == "pt_dbm"
    for trials in _blocks(spec.trials):
        for point, (value, cfg, alloc) in enumerate(
                zip(sweep_values, configs, allocs)):
            if point == 0 or not shared:
                # Release the last block's drops before building the next.
                block = None
                block = _block(cfg, trials, schemes)
            _score_block(block, value, cfg, alloc, spec, metrics[point])
    rows: list[ResultRow] = []
    for value, cells in zip(sweep_values, metrics):
        for scheme in schemes:
            rates, fairness, active, cycles, ratios = cells[scheme]
            rows.append(ResultRow(
                sweep_value=value if value is None else _round9(value),
                scheme=scheme,
                mean_sum_rate=_round9(fmean(rates)),
                mean_fairness=_round9(fmean(fairness)),
                mean_active_count=_round9(fmean(active)),
                mean_cycles=_round9(fmean(cycles)) if cycles else None,
                mean_ratio_to_exhaustive=(_round9(fmean(ratios))
                                          if ratios else None),
                trials=spec.trials,
            ))
    if spec.output_path is not None:
        write_results(spec.output_path, rows)
        write_spec_sidecar(spec.output_path, spec)
    return rows


def _trace_block(block: list[_Trial], cfg: SystemConfig,
                 alloc: PowerAllocation, budget: int) -> list[TraceRow]:
    """The convergence trace rows of each trial of `block`."""
    rows: list[TraceRow] = []
    for trial in block:
        evaluator = SetEvaluator(cfg, trial.deployment, alloc, amp=trial.grid)
        _, optimum = exhaustive_search(cfg, trial.deployment, alloc,
                                       evaluator=evaluator, budget=budget)
        _, trajectory = matching_activation(cfg, trial.deployment, alloc,
                                            trial.initial, evaluator=evaluator)
        for step, utility in enumerate(trajectory.utilities):
            cycle = 0 if step == 0 else trajectory.move_cycles[step - 1]
            rows.append(TraceRow(
                trial=trial.index,
                step=step,
                cycle=cycle,
                utility=_round9(utility),
                optimum=_round9(optimum),
                ratio=_round9(utility / optimum),
            ))
    return rows


def convergence_trace(spec: ExperimentSpec) -> list[TraceRow]:
    """Per-trial utility trajectory normalized by the exhaustive optimum.

    Runs block by block like `run_experiment`, from the same drops, grid
    matrices and random initial matchings."""
    if spec.sweep is not None:
        raise ConfigError("convergence traces take a single configuration")
    cfg = spec.base
    count = candidate_count(cfg.l_positions, cfg.k_antennas)
    if count > spec.exhaustive_budget:
        raise ConfigError(f"exhaustive baseline needs {count} candidates")
    alloc = PowerAllocation.equal(cfg.n_users)
    rows: list[TraceRow] = []
    for trials in _blocks(spec.trials):
        rows += _trace_block(_block(cfg, trials, ("matching", "exhaustive")),
                             cfg, alloc, spec.exhaustive_budget)
    if spec.output_path is not None:
        write_trace(spec.output_path, rows)
        write_spec_sidecar(spec.output_path, spec)
    return rows


# ---------------------------------------------------------------------------
# serialization

RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))
TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_rows(path: Path | str, names: tuple[str, ...], rows) -> None:
    """A CSV file with the header `names` and one line per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format(getattr(row, name)) for name in names])


def write_results(path: Path | str, rows: list[ResultRow]) -> None:
    _write_rows(path, RESULT_FIELDS, rows)


def write_trace(path: Path | str, rows: list[TraceRow]) -> None:
    _write_rows(path, TRACE_FIELDS, rows)


def read_results(path: Path | str) -> list[ResultRow]:
    """The rows of a `write_results` file; a ConfigError naming the file and
    line for a wrong header, a wrong field count or an unparseable value."""
    kinds = {name: int if name == "trials" else float
             for name in RESULT_FIELDS if name != "scheme"}
    blank = ("sweep_value", "mean_cycles", "mean_ratio_to_exhaustive")
    rows: list[ResultRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != RESULT_FIELDS:
            raise ConfigError(f"unexpected header in {path}")
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(RESULT_FIELDS):
                raise ConfigError(f"{where}: expected {len(RESULT_FIELDS)} "
                                  f"fields, got {len(rec)}")
            row = dict(zip(RESULT_FIELDS, rec))
            for name, kind in kinds.items():
                row[name] = (None if name in blank and not row[name]
                             else _number(f"{where}: {name}", row[name], kind))
            rows.append(ResultRow(**row))
    return rows


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "base": {name: getattr(spec.base, name) for name in config_field_names()},
        "schemes": list(spec.schemes),
        "trials": spec.trials,
        "sweep": (None if spec.sweep is None else {
            "param": spec.sweep.param,
            "start": spec.sweep.start,
            "stop": spec.sweep.stop,
            "step": spec.sweep.step,
        }),
        "output_path": None if spec.output_path is None else str(spec.output_path),
        "exhaustive_budget": spec.exhaustive_budget,
    }


def write_spec_sidecar(output_path: Path | str, spec: ExperimentSpec) -> Path:
    output_path = Path(output_path)
    sidecar = output_path.with_name(output_path.stem + ".spec.json")
    sidecar.write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")
    return sidecar


# ---------------------------------------------------------------------------
# flat key-value config files

SPEC_KEYS = config_field_names() + (
    "trials", "schemes", "output_path", "exhaustive_budget",
    "sweep_param", "sweep_from", "sweep_to", "sweep_step",
)
_INT_KEYS = COUNT_PARAMS + ("seed", "trials", "exhaustive_budget")


def parse_config_file(path: Path | str) -> dict[str, str]:
    """Flat `key = value` lines; `#` starts a comment."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SPEC_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        entries[key] = value.strip()
    return entries


def build_spec(entries: dict[str, str], output_default: Path | None = None
               ) -> ExperimentSpec:
    """Assemble an ExperimentSpec from string-valued entries.

    Entries use the same keys as the config file; later sources (CLI flags)
    should be merged into `entries` before calling.
    """
    unknown = set(entries) - set(SPEC_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    numbers = {key: _number(key, text, int if key in _INT_KEYS else float)
               for key, text in entries.items()
               if key not in ("schemes", "output_path", "sweep_param")}
    try:
        base = SystemConfig(**{key: numbers[key] for key in config_field_names()
                               if key in numbers})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = None
    sweep_keys = {"sweep_param", "sweep_from", "sweep_to", "sweep_step"}
    present = sweep_keys & set(entries)
    if present:
        missing = sweep_keys - present
        if missing:
            raise ConfigError(f"incomplete sweep: missing {', '.join(sorted(missing))}")
        sweep = SweepSpec(
            param=entries["sweep_param"],
            start=numbers["sweep_from"],
            stop=numbers["sweep_to"],
            step=numbers["sweep_step"],
        )
    schemes = tuple(s.strip() for s in entries.get("schemes", "matching").split(",")
                    if s.strip())
    output = entries.get("output_path")
    output_path = Path(output) if output else output_default
    optional = {key: numbers[key] for key in ("trials", "exhaustive_budget")
                if key in numbers}
    return ExperimentSpec(
        base=base,
        schemes=schemes,
        sweep=sweep,
        output_path=output_path,
        **optional,
    )
