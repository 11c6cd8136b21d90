"""Experiment harness: specs, Monte-Carlo execution, sweeps, CSV/JSON output.

Every trial index maps to one user drop shared by all schemes of that row
(paired comparison), and drops depend only on (seed, trial, geometry).  A
sweep runs each trial across all its values and builds the trial's objects
once for every run of values that leaves their config fields (`DEPENDS`)
unchanged: the drop, the random initial matching and the distance-based
placement, and the amplitude terms (the search's grid matrix and the random,
distance and conventional schemes' terms).  A power sweep shares them all,
an attenuation sweep shares the drop and placements, and a geometry or count
sweep draws a fresh drop per value.  Channel sums, SIC rates and the
searches run per value.
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

from . import kernels
from .activation import (candidate_count, conventional_amplitudes,
                         conventional_baseline, distance_based_activation,
                         exhaustive_search, matching_activation,
                         random_matching)
from .channel import amplitudes, antenna_amplitudes, power_gains
from .kernels import SetEvaluator
from .noma import PowerAllocation, RateReport, rate_report, sum_rate
from .scenario import (MATCHING_STREAM, USER_STREAM, SystemConfig,
                       config_field_names, dbm_to_watts, make_deployment,
                       stream_rng)

log = logging.getLogger(__name__)

SCHEMES = ("matching", "random", "distance", "exhaustive", "conventional")
SWEEP_PARAMS = ("pt_dbm", "d1", "d2", "kappa_db_per_m", "n_users",
                "k_antennas", "l_positions")
COUNT_PARAMS = ("n_users", "k_antennas", "l_positions")

# The config fields each power-independent object of a trial depends on.  An
# object is rebuilt at a sweep value only when one of its fields changed.
_DROP = ("d1", "d2", "height", "n_users", "l_positions", "seed")
_PLACED = _DROP + ("k_antennas",)
_RF = ("carrier_hz", "n_eff", "kappa_db_per_m")
DEPENDS = {
    "drop": _DROP,                        # users, grid and feed
    "initial": _PLACED,                   # random matching
    "distance": _PLACED,                  # distance-based placement
    "grid": _DROP + _RF,                  # the evaluator's (N, L) matrix
    "random_terms": _PLACED + _RF,        # (N, S) amplitude terms
    "distance_terms": _PLACED + _RF,
    "conventional_terms": _PLACED + ("carrier_hz",),  # no guide, no loss
}


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


def _drop_hash(deployment) -> str:
    coords = ",".join(f"{u.x!r}:{u.y!r}" for u in deployment.users)
    return hashlib.blake2s(coords.encode(), digest_size=8).hexdigest()


def _report(gains, cfg, alloc) -> RateReport:
    """Rates of one activation from its per-user power gains."""
    return rate_report(gains, alloc, dbm_to_watts(cfg.noise_dbm))


class _TrialObjects:
    """The power-independent objects of one trial, each built on first use
    and kept for later sweep values until a config field it depends on
    (`DEPENDS`) changes."""

    def __init__(self, configs):
        self._keys = [{name: tuple(getattr(cfg, f) for f in depends)
                       for name, depends in DEPENDS.items()} for cfg in configs]
        self._built: dict[str, tuple] = {}
        self.trial = 0

    def new_trial(self, trial: int) -> None:
        """Drop the last trial's objects."""
        self._built.clear()
        self.trial = trial

    def get(self, name: str, point: int, build):
        """The object `name` at sweep point `point`, from `build()` if the
        fields it depends on differ from those it was last built for."""
        key = self._keys[point][name]
        held = self._built.get(name)
        if held is None or held[0] != key:
            held = self._built[name] = (key, build())
        return held[1]

    def start(self, point: int, cfg: SystemConfig, alloc: PowerAllocation,
              searched: bool, random_start: bool):
        """The drop at sweep point `point`, with the searches' evaluator and
        the random initial matching (each None when not asked for)."""
        trial = self.trial
        deployment = self.get("drop", point, lambda: make_deployment(
            cfg, stream_rng(cfg.seed, USER_STREAM, trial)))
        evaluator = None
        if searched:
            # Looked up on the module, as SetEvaluator does, so the traced
            # benchmark (perfbench) credits the matrix build to kernels.
            grid = self.get("grid", point, lambda: kernels.amplitude_matrix(
                cfg, deployment))
            evaluator = SetEvaluator(cfg, deployment, alloc, amp=grid)
        initial = None
        if random_start:
            initial = self.get("initial", point, lambda: random_matching(
                cfg, deployment, stream_rng(cfg.seed, MATCHING_STREAM, trial)))
        return deployment, evaluator, initial


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every scheme over shared user drops; aggregate means per cell.

    Trials are the outer loop and sweep values the inner one, so each
    trial's drop, placements and amplitude terms are built once and shared
    by the sweep values that leave their config fields unchanged; only the
    power-dependent work (channel sums, SIC rates, searches) runs per value.
    Cells collect their trials in order, so the rows do not depend on the
    loop order.  Deterministic for a fixed spec: identical specs produce
    identical rows (and therefore byte-identical CSV files).
    """
    schemes = spec.schemes
    sweep_values = spec.sweep.values() if spec.sweep else (None,)
    configs = spec.configs()
    allocs = [PowerAllocation.equal(cfg.n_users) for cfg in configs]
    searched = "matching" in schemes or "exhaustive" in schemes
    random_start = "matching" in schemes or "random" in schemes
    # Per (sweep value, scheme): sum rate, fairness, active count, cycles and
    # ratio of each trial, as float columns since all values are held at once.
    metrics = [{s: tuple(array("d") for _ in range(5)) for s in schemes}
               for _ in configs]
    shared = _TrialObjects(configs)
    for trial in range(spec.trials):
        shared.new_trial(trial)
        for point, (value, cfg, alloc) in enumerate(
                zip(sweep_values, configs, allocs)):
            deployment, evaluator, initial = shared.start(
                point, cfg, alloc, searched, random_start)
            if log.isEnabledFor(logging.DEBUG):
                log.debug("sweep=%s trial=%d drop=%s", value, trial,
                          _drop_hash(deployment))
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
                        cfg, deployment, alloc, initial, evaluator=evaluator)
                    positions = final.active_positions()
                    report = _report(evaluator.gains(positions), cfg, alloc)
                    active_count = len(positions)
                    cycles = trajectory.cycles
                elif scheme == "random":
                    active = initial.active_set()
                    amp = shared.get("random_terms", point, lambda: (
                        antenna_amplitudes(active, deployment, cfg)))
                    report = sum_rate(active, deployment, cfg, alloc, amp)
                    active_count = active.size
                elif scheme == "distance":
                    points = shared.get("distance", point, lambda: (
                        distance_based_activation(cfg, deployment)))
                    amp = shared.get("distance_terms", point, lambda: (
                        amplitudes(cfg, deployment.users, points,
                                   deployment.feed)))
                    report = _report(power_gains(amp, dbm_to_watts(cfg.pt_dbm)),
                                     cfg, alloc)
                    active_count = len(points)
                elif scheme == "exhaustive":
                    report = exh_report
                    active_count = exh_set.size
                else:
                    amp = shared.get("conventional_terms", point, lambda: (
                        conventional_amplitudes(cfg, deployment)))
                    report = conventional_baseline(cfg, deployment, alloc, amp)
                    active_count = cfg.k_antennas
                ratio = (report.sum_rate / exhaustive_rate
                         if exhaustive_rate is not None else None)
                for column, x in zip(metrics[point][scheme], (
                        report.sum_rate, report.fairness, active_count, cycles,
                        ratio)):
                    if x is not None:
                        column.append(x)
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


def convergence_trace(spec: ExperimentSpec) -> list[TraceRow]:
    """Per-trial utility trajectory normalized by the exhaustive optimum."""
    if spec.sweep is not None:
        raise ConfigError("convergence traces take a single configuration")
    cfg = spec.base
    count = candidate_count(cfg.l_positions, cfg.k_antennas)
    if count > spec.exhaustive_budget:
        raise ConfigError(f"exhaustive baseline needs {count} candidates")
    alloc = PowerAllocation.equal(cfg.n_users)
    shared = _TrialObjects((cfg,))
    rows: list[TraceRow] = []
    for trial in range(spec.trials):
        shared.new_trial(trial)
        deployment, evaluator, initial = shared.start(0, cfg, alloc, True, True)
        _, optimum = exhaustive_search(cfg, deployment, alloc,
                                       evaluator=evaluator,
                                       budget=spec.exhaustive_budget)
        _, trajectory = matching_activation(cfg, deployment, alloc, initial,
                                            evaluator=evaluator)
        for step, utility in enumerate(trajectory.utilities):
            cycle = 0 if step == 0 else trajectory.move_cycles[step - 1]
            rows.append(TraceRow(
                trial=trial,
                step=step,
                cycle=cycle,
                utility=_round9(utility),
                optimum=_round9(optimum),
                ratio=_round9(utility / optimum),
            ))
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


def write_results(path: Path | str, rows: list[ResultRow]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for row in rows:
            writer.writerow([_format(getattr(row, name)) for name in RESULT_FIELDS])


def read_results(path: Path | str) -> list[ResultRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != RESULT_FIELDS:
            raise ConfigError(f"unexpected header in {path}")
        parse = {"scheme": str, "trials": int}
        blank = ("sweep_value", "mean_cycles", "mean_ratio_to_exhaustive")
        return [ResultRow(**{name: None if name in blank and not text
                             else parse.get(name, float)(text)
                             for name, text in zip(RESULT_FIELDS, rec)})
                for rec in reader]


def write_trace(path: Path | str, rows: list[TraceRow]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for row in rows:
            writer.writerow([_format(getattr(row, name)) for name in TRACE_FIELDS])


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
_FLOAT_CONFIG_KEYS = tuple(k for k in config_field_names()
                           if k not in COUNT_PARAMS + ("seed",))


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
    cfg_kwargs = {}
    try:
        for key in COUNT_PARAMS + ("seed",):
            if key in entries:
                cfg_kwargs[key] = int(entries[key])
        for key in _FLOAT_CONFIG_KEYS:
            if key in entries:
                cfg_kwargs[key] = float(entries[key])
        base = SystemConfig(**cfg_kwargs)
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
            start=float(entries["sweep_from"]),
            stop=float(entries["sweep_to"]),
            step=float(entries["sweep_step"]),
        )
    schemes = tuple(s.strip() for s in entries.get("schemes", "matching").split(",")
                    if s.strip())
    output = entries.get("output_path")
    output_path = Path(output) if output else output_default
    try:
        trials = int(entries.get("trials", "100"))
    except ValueError as exc:
        raise ConfigError(f"bad trials value: {entries['trials']!r}") from exc
    optional = {}
    if "exhaustive_budget" in entries:
        try:
            optional["exhaustive_budget"] = int(entries["exhaustive_budget"])
        except ValueError as exc:
            raise ConfigError(f"exhaustive_budget must be an integer, got "
                              f"{entries['exhaustive_budget']!r}") from exc
    return ExperimentSpec(
        base=base,
        schemes=schemes,
        trials=trials,
        sweep=sweep,
        output_path=output_path,
        **optional,
    )
