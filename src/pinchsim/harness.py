"""Experiment harness: specs, Monte-Carlo execution, sweeps, CSV/JSON output.

Every trial index maps to one user drop shared by all schemes of that row
(paired comparison), and drops depend only on (seed, trial, geometry).  A
run loops over blocks of `BLOCK` (512) consecutive trials, then over the
sweep values, then over the trials of the block; a run of up to 512 trials,
every preset at its default trial count among them, is one block.  No
output byte depends on the block size.  Each trial draws its drop and
its random initial matching from its own random streams.  Per block: one
`Deployment` of the block's (T, N, 3) users, checked once; with one numpy
call each, the searches' grid matrices, the distance placements and each
baseline scheme's amplitude terms; the random starts as one (T, K) array,
from one `random_matching` call; and, only when the matching scheme runs,
one `Matching` per trial from its row of starts.  None of these depends
on the transmit power, so a power sweep builds a block once and shares it
across its values; any other sweep builds it afresh at each value.  A
shared block also holds, per trial, one `SetEvaluator` per sweep value,
linked as one `kernels.family`: the trial's matching scans at all its
powers then run as one group, at its first value's call, and each later
value's call takes its own result.  One per-trial loop, `_search_block`,
runs the searches per (sweep value, trial), for the run and the
convergence trace alike.  The reports run per (sweep value, block,
scheme), one `rate_report` of the block's (T, N) gains each.  Each
baseline scheme (random, distance, conventional) is one `BASELINES`
entry: how it builds its block's terms, grouped by set size.  Every
scheme reports through one `_size_report` of its terms: a searched
scheme's found sets and distance's placements make one group per size,
random and conventional one group of all the block's trials.  At most one
block of drops, 512 of them, is held at a time.
"""

from __future__ import annotations

import csv
from array import array
import json
import logging
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import kernels
from .activation import (Matching, candidate_count, conventional_amplitudes,
                         conventional_baseline, distance_based_activation,
                         exhaustive_search, matching_activation,
                         random_matching)
from .channel import amplitudes, power_gains
from .kernels import SetEvaluator
from .noma import PowerAllocation, rate_report, sum_rate
from .scenario import (MATCHING_STREAM, USER_STREAM, Deployment,
                       SystemConfig, config_field_names, dbm_to_watts, integer,
                       make_deployment, real, stream_rngs)

log = logging.getLogger(__name__)

SCHEMES = ("matching", "random", "distance", "exhaustive", "conventional")
SWEEP_PARAMS = ("pt_dbm", "d1", "d2", "kappa_db_per_m", "n_users",
                "k_antennas", "l_positions")
COUNT_PARAMS = ("n_users", "k_antennas", "l_positions")

# Consecutive trials whose power-independent objects are built together.
# Each block pays a fixed cost: one Deployment check, two stream seedings,
# the baseline terms' builds and one report per sweep value and scheme.
# At N=K=8, L=60 that is about 2 ms, the work of about 24 baseline trials:
# 27% of a 64-trial block, under 5% of a 512-trial one.
BLOCK = 512


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
            value = real(f"sweep {name}", getattr(self, name), ConfigError)
            if self.param in COUNT_PARAMS and value != int(value):
                raise ConfigError(f"sweep {name} of {self.param} must be an "
                                  f"integer, got {value!r}")
            object.__setattr__(self, name, value)
        if self.step <= 0:
            raise ConfigError("sweep step must be > 0")
        if self.stop < self.start:
            raise ConfigError("sweep stop must be >= start")
        if not math.isfinite(self._steps()):
            raise ConfigError(
                f"sweep of {self.param} from {self.start!r} to {self.stop!r} "
                f"in steps of {self.step!r} has too many points to count")

    def _steps(self) -> float:
        """(stop - start) / step, up to rounding; the tolerance, scaled by
        |stop|, keeps an endpoint that rounding put a hair beyond stop."""
        tolerance = 1e-12 * max(abs(self.stop), 1.0)
        return (self.stop - self.start + tolerance) / self.step

    def values(self) -> tuple[float, ...]:
        """start + i*step up to and including stop, whatever the signs."""
        count = math.floor(self._steps()) + 1
        return tuple(self.start + i * self.step for i in range(count))


def _sidecar_path(output_path: Path) -> Path:
    """Where the `.spec.json` sidecar of `output_path` goes: beside it."""
    return output_path.with_name(output_path.stem + ".spec.json")


def _check_output_path(path: Path) -> None:
    """ConfigError unless `path` and its sidecar can name files to write:
    neither is a directory, and no file is where a directory above them is
    to be.  Checked when the spec is built, not when the rows are written
    after every trial."""
    if path.is_dir():
        raise ConfigError(f"output_path {str(path)!r} is a directory: "
                          "name a file")
    sidecar = _sidecar_path(path)
    if sidecar.is_dir():
        raise ConfigError(f"output_path {str(path)!r} has its sidecar "
                          f"{str(sidecar)!r} at a directory")
    parent = next(p for p in path.parents if p.exists())
    if not parent.is_dir():
        raise ConfigError(f"output_path {str(path)!r} lies under the file "
                          f"{str(parent)!r}")


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
        for name in ("trials", "exhaustive_budget"):
            value = integer(name, getattr(self, name), ConfigError)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
            object.__setattr__(self, name, value)
        if self.output_path is not None:
            object.__setattr__(self, "output_path", Path(self.output_path))
            _check_output_path(self.output_path)
        if not self.schemes:
            raise ConfigError("need at least one scheme")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; choose from "
                                  f"{', '.join(SCHEMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must be distinct")
        # The exhaustive search of every configuration must fit its budget.
        for cfg in self.configs() if "exhaustive" in self.schemes else ():
            count = candidate_count(cfg.l_positions, cfg.k_antennas)
            if count > self.exhaustive_budget:
                param = self.sweep and self.sweep.param
                where = f" at {param}={getattr(cfg, param)}" if param else ""
                raise ConfigError(
                    f"exhaustive search needs {count} candidates{where}")

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
    """`base` with `param` set to `value`; a ConfigError naming both when
    that makes an invalid configuration."""
    if param in COUNT_PARAMS:
        value = int(round(value))
    try:
        return replace(base, **{param: value})
    except ValueError as exc:
        raise ConfigError(f"sweep value {param}={value}: {exc}") from None


def _round9(x: float) -> float:
    """Snap to the 9-significant-digit value the CSV stores, so parsing an
    emitted file reproduces rows exactly."""
    return float(f"{x:.9g}")


def _mean(column) -> float | None:
    """The mean of a float column at the CSV's 9 digits, as
    `statistics.fmean` computes it (`fsum` over the count); None if it is
    empty."""
    return _round9(math.fsum(column) / len(column)) if column else None


def _number(key: str, text: str, kind: type):
    """`text` as an int or a float, or a ConfigError naming `key`."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {text!r}") from None


def _drop_hash(users: np.ndarray) -> str:
    """A digest of one drop's (N, 3) users' x and y, printed from Python
    floats."""
    import hashlib  # only a DEBUG run needs it, so only it loads it

    coords = ",".join(f"{x!r}:{y!r}" for x, y, _ in users.tolist())
    return hashlib.blake2s(coords.encode(), digest_size=8).hexdigest()


def _log_drop(value, trial: int, users: np.ndarray) -> None:
    """Log a trial's drop hash at DEBUG.  Its one caller, `_search_block`,
    calls it only when DEBUG is on, so the hash is computed only then."""
    log.debug("sweep=%s trial=%d drop=%s", value, trial, _drop_hash(users))


class _Block(NamedTuple):
    """The power-independent objects of a block of T trials, in trial
    order; None where no scheme of the run asks for them."""

    trials: range
    deployment: Deployment                    # (T, N, 3) users
    grid: np.ndarray | None                   # (T, N, L) amplitude matrices
    alloc: PowerAllocation                    # of the searches and reports
    # Per trial, one evaluator of its grid matrix per sweep point that
    # shares the block, linked as one `kernels.family`.
    evaluators: list[tuple[SetEvaluator, ...]] | None
    # Per trial, its random start as the matching scheme's `Matching`, built
    # once for every sweep point of the block from its row of starts.
    initial: list[Matching] | None
    terms: dict[str, list]                    # `_by_size` terms per baseline


def _blocks(trials: int) -> list[range]:
    """Ranges of at most BLOCK consecutive trial indices that cover
    `trials`."""
    return [range(first, min(first + BLOCK, trials))
            for first in range(0, trials, BLOCK)]


def _random_terms(cfg, deployment, starts):
    """The (T, N, K) amplitude terms of each trial's users at its random
    matching, the rows of `starts` sorted ascending in one call, as one
    group of all the trials."""
    points = deployment.positions[np.sort(starts, axis=1)]
    return [(slice(None), amplitudes(cfg, deployment.users, points,
                                     deployment.feed))]


def _by_size(sets, terms: Callable) -> list:
    """The trials' nonempty `sets` grouped by size S: per size, the trials'
    row indices `idx` and `terms(idx, members)`, their (G, N, S) amplitude
    terms, where `members` are their sets."""
    by_size: dict[int, list[int]] = {}
    for i, members in enumerate(sets):
        if len(members):
            by_size.setdefault(len(members), []).append(i)
    return [(idx, terms(idx, [sets[i] for i in idx]))
            for idx in by_size.values()]


def _size_report(terms, deployment, cfg, alloc):
    """The block's RateReport and (T,) active counts from its `_by_size`
    terms: one `power_gains` per size, then one `rate_report` of the (T, N)
    gains.  A trial in no size, whose set is empty, has zero gains and 0
    active antennas."""
    gains = np.zeros(deployment.users.shape[:2])
    active = np.zeros(len(gains))
    for idx, amp in terms:
        gains[idx] = power_gains(amp, dbm_to_watts(cfg.pt_dbm))
        active[idx] = amp.shape[-1]
    return rate_report(gains, alloc, dbm_to_watts(cfg.noise_dbm)), active


def _distance_terms(cfg, deployment, starts):
    """The amplitude terms of each trial at its distance-based placement,
    by placement size, since coinciding users collapse placements."""
    return _by_size(distance_based_activation(cfg, deployment),
                    lambda idx, points: amplitudes(
                        cfg, deployment.users[idx], np.stack(points),
                        deployment.feed))


def _conventional_terms(cfg, deployment, starts):
    """The (T, N, K) terms of the fixed array, as one group of all trials."""
    return [(slice(None), conventional_amplitudes(cfg, deployment.users))]


# Per scheme that runs no search, `terms(cfg, deployment, starts)`: its
# block's `_by_size` terms, from its deployment and its (T, K) random starts
# (None when no scheme draws them).
# `sum_rate` and `conventional_baseline` are imported only for perfbench,
# which wraps them here; its probe rework (ROADMAP) drops both and the wraps.
BASELINES = {
    "random": _random_terms,
    "distance": _distance_terms,
    "conventional": _conventional_terms,
}


def _block(configs: tuple[SystemConfig, ...], trials: range, schemes
           ) -> _Block:
    """The block's drops, its power allocation, and what `schemes` need of
    the grid matrix, its evaluators, the random initial matching and the
    baseline schemes' terms.  `configs` are the sweep points that share the
    block, the first building it: each trial gets one evaluator per point,
    linked as one family, so that its matching scans at all of them run as
    one group.  Each trial's drop and matching come from its own streams;
    the drops make one deployment, checked once, the random starts one
    (T, K) array, from one `random_matching` call, and the amplitude terms
    of the whole block come from one numpy call per kind.  The matching
    scheme's `Matching`s are built from the starts here, once per trial for
    all the points that share the block."""
    cfg = configs[0]
    alloc = PowerAllocation.equal(cfg.n_users)
    deployment = make_deployment(cfg,
                                 stream_rngs(cfg.seed, USER_STREAM, trials))
    grid = evaluators = starts = initial = None
    if "matching" in schemes or "exhaustive" in schemes:
        # Looked up on the module, so the traced benchmark (perfbench)
        # credits the matrix build to kernels.
        grid = kernels.amplitude_matrix(cfg, deployment)
        evaluators = [kernels.family(SetEvaluator(c, deployment, alloc, amp=amp)
                                     for c in configs)
                      for amp in grid]
    if "matching" in schemes or "random" in schemes:
        starts = random_matching(cfg, deployment, stream_rngs(
            cfg.seed, MATCHING_STREAM, trials))
    if "matching" in schemes:
        initial = [Matching(assignment=tuple(row)) for row in starts.tolist()]
    return _Block(trials, deployment, grid, alloc, evaluators, initial,
                  {s: BASELINES[s](cfg, deployment, starts)
                   for s in schemes if s in BASELINES})


def _search_block(block: _Block, point: int, value, cfg: SystemConfig,
                  schemes, budget: int):
    """Per trial of `block`, in order: log its drop if DEBUG is on, which
    is read once per call, run the searches that `schemes` names on its
    evaluator for `point`, the index of this sweep value among those that
    share the block, and yield (trial, found, optimum, trajectory).
    `found` maps each searched scheme to the set it found, as grid indices;
    `optimum` is the exhaustive sum rate and `trajectory` the matching's,
    None where that scheme is not searched.  The exhaustive search runs
    first: a trial whose optimum is 0 stops with a ValueError before its
    matching runs.  When `schemes` names no search, the block has no grid
    matrices: its drops are logged and nothing is yielded."""
    debug = log.isEnabledFor(logging.DEBUG)
    for i, trial in enumerate(block.trials):
        if debug:
            _log_drop(value, trial, block.deployment.users[i])
        if block.grid is None:
            continue
        evaluator = block.evaluators[i][point]
        found, optimum, trajectory = {}, None, None
        if "exhaustive" in schemes:
            found["exhaustive"], optimum = exhaustive_search(
                evaluator, cfg.k_antennas, budget)
            if optimum == 0:  # the denominator of every ratio to it
                raise ValueError(
                    f"exhaustive sum rate is 0 at {cfg.pt_dbm} dBm transmit "
                    f"power (trial {trial}): no ratio to exhaustive")
        if "matching" in schemes:
            final, trajectory = matching_activation(evaluator,
                                                    block.initial[i])
            found["matching"] = final.active_positions()
        yield trial, found, optimum, trajectory


def _found_terms(grid: np.ndarray, idx: list[int], sel) -> np.ndarray:
    """The (G, N, S) amplitude terms of the found sets `sel` of the trials
    `idx`, one size S, from the block's (T, N, L) `grid`."""
    return grid.swapaxes(-1, -2)[np.array(idx)[:, None], sel].swapaxes(-1, -2)


def _score_block(block: _Block, point: int, value, cfg: SystemConfig,
                 spec: ExperimentSpec, cells) -> None:
    """Score every scheme on the trials of `block` at one sweep value, the
    block's sweep point `point`, and append each trial's metrics to the
    value's cells, in trial order.

    The searches run per trial.  Each scheme's rates then come from one
    `_size_report` of the whole block's terms: a searched scheme's are its
    found sets', gathered by size from the block's grid matrices, so the
    sum rate is the searched utility bit for bit; a baseline scheme's are
    those its `BASELINES` entry built.
    """
    # Per searched scheme: each trial's found set.
    found_sets = {s: [] for s in ("exhaustive", "matching")
                  if s in spec.schemes}
    cycles = np.empty(len(block.trials))
    for i, (_, found, _, trajectory) in enumerate(_search_block(
            block, point, value, cfg, spec.schemes, spec.exhaustive_budget)):
        for scheme, positions in found.items():
            found_sets[scheme].append(positions)
        if trajectory is not None:
            cycles[i] = trajectory.cycles
    terms = {s: _by_size(sets, lambda idx, sel: _found_terms(
        block.grid, idx, sel)) for s, sets in found_sets.items()}
    reports = {s: _size_report(t, block.deployment, cfg, block.alloc)
               for s, t in (terms | block.terms).items()}
    optimum = (reports["exhaustive"][0].sum_rate if "exhaustive" in reports
               else None)
    for scheme in spec.schemes:
        report, active = reports[scheme]
        ratio = None if optimum is None else report.sum_rate / optimum
        for column, x in zip(cells[scheme], (
                report.sum_rate, report.fairness, active,
                cycles if scheme == "matching" else None, ratio)):
            if x is not None:
                column.extend(x.tolist())


def run_experiment(spec: ExperimentSpec) -> list[ResultRow]:
    """Run every scheme over shared user drops; aggregate means per cell.

    Blocks of `BLOCK` (512) trials are the outer loop, sweep values the
    middle one and the trials of the block the inner one: a block's fixed
    cost is paid once per 512 trials, and a run of up to 512 trials is one
    block.  A block's drops, placements and amplitude terms are built at
    the first sweep value and kept for the others when the sweep is over
    `pt_dbm`; any other sweep rebuilds them at each value.  At most one
    block of drops is alive at a time.  The drops of the whole block make one
    deployment, its placements come from one call and its amplitude terms
    from one numpy call per kind.  The searches run per (sweep value,
    trial), but a trial's matching scans over a shared block's values run
    as one group scan, at the first value; each scheme's channel sums, SIC
    rates and fairness come from one report per (sweep value, block).
    Cells collect their trials in order, so the rows do not depend on the
    loop order.  Deterministic for a fixed spec: identical specs produce
    identical rows (and therefore byte-identical CSV files).
    """
    schemes = spec.schemes
    sweep_values = spec.sweep.values() if spec.sweep else (None,)
    configs = spec.configs()
    # Per (sweep value, scheme): sum rate, fairness, active count, cycles and
    # ratio of each trial, as float columns since all values are held at once.
    metrics = [{s: tuple(array("d") for _ in range(5)) for s in schemes}
               for _ in configs]
    # A block's objects do not depend on the transmit power: a power sweep
    # (or none) builds them once per block, any other sweep at every value.
    shared = spec.sweep is None or spec.sweep.param == "pt_dbm"
    for trials in _blocks(spec.trials):
        for point, (value, cfg) in enumerate(zip(sweep_values, configs)):
            if point == 0 or not shared:
                # Release the last block's drops before building the next.
                block = None
                block = _block(configs if shared else (cfg,), trials,
                               schemes)
            _score_block(block, point if shared else 0, value, cfg, spec,
                         metrics[point])
    rows: list[ResultRow] = []
    for cfg, cells in zip(configs, metrics):
        # Every stored sum rate exactly 0: the power is too low to rate.
        if not any(any(cells[scheme][0]) for scheme in schemes):
            raise ValueError(f"every trial of every scheme rates 0 at "
                             f"pt_dbm={cfg.pt_dbm} dBm: no rate to report")
    for value, cells in zip(sweep_values, metrics):
        for scheme in schemes:
            rates, fairness, active, cycles, ratios = map(_mean, cells[scheme])
            rows.append(ResultRow(
                sweep_value=value if value is None else _round9(value),
                scheme=scheme,
                mean_sum_rate=rates,
                mean_fairness=fairness,
                mean_active_count=active,
                mean_cycles=cycles,
                mean_ratio_to_exhaustive=ratios,
                trials=spec.trials,
            ))
    if spec.output_path is not None:
        write_results(spec.output_path, rows)
        write_spec_sidecar(spec.output_path, spec)
    return rows


def _trace_block(block: _Block, cfg: SystemConfig, budget: int
                 ) -> list[TraceRow]:
    """The convergence trace rows of each trial of `block`."""
    rows: list[TraceRow] = []
    for trial, _, optimum, trajectory in _search_block(
            block, 0, None, cfg, ("matching", "exhaustive"), budget):
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
    return rows


def convergence_trace(spec: ExperimentSpec) -> list[TraceRow]:
    """Per-trial utility trajectory normalized by the exhaustive optimum.

    Runs block by block like `run_experiment`, from the same drops, grid
    matrices and random initial matchings.  It runs the matching and the
    exhaustive search whatever schemes `spec` names, and its sidecar records
    those two."""
    if spec.sweep is not None:
        raise ConfigError("convergence traces take a single configuration")
    # The spec checks the exhaustive budget.
    spec = replace(spec, schemes=("matching", "exhaustive"))
    cfg = spec.base
    rows: list[TraceRow] = []
    for trials in _blocks(spec.trials):
        rows += _trace_block(_block((cfg,), trials, spec.schemes), cfg,
                             spec.exhaustive_budget)
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
    line for a wrong header, a wrong field count, or a value that does not
    parse or is not finite."""
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
                text = row[name]
                if name in blank and not text:
                    row[name] = None
                    continue
                row[name] = _number(f"{where}: {name}", text, kind)
                if kind is float and not math.isfinite(row[name]):
                    raise ConfigError(f"{where}: {name} must be finite, "
                                      f"got {text!r}")
            rows.append(ResultRow(**row))
    return rows


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """Every field of `spec`, nested specs as dicts, as JSON reads it back:
    tuples as lists and the output path as its string.  A value JSON cannot
    hold, such as a numpy number, is a TypeError."""
    return json.loads(json.dumps(asdict(spec), default=os.fspath))


def write_spec_sidecar(output_path: Path | str, spec: ExperimentSpec) -> Path:
    sidecar = _sidecar_path(Path(output_path))
    sidecar.write_text(json.dumps(spec_to_dict(spec), indent=2) + "\n")
    return sidecar


# ---------------------------------------------------------------------------
# flat key-value config files

SWEEP_KEYS = ("sweep_param", "sweep_from", "sweep_to", "sweep_step")
SPEC_KEYS = config_field_names() + (
    "trials", "schemes", "output_path", "exhaustive_budget") + SWEEP_KEYS
# The keys that parse as integers: the int fields of the config and the spec,
# read from their annotations as SystemConfig's own check reads them.
_INT_KEYS = tuple(f.name for cls in (SystemConfig, ExperimentSpec)
                  for f in fields(cls) if f.type == "int")


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


def build_spec(entries: dict[str, str]) -> ExperimentSpec:
    """Assemble an ExperimentSpec from string-valued entries.

    Entries use the same keys as the config file; later sources (CLI flags)
    should be merged into `entries` before calling.  An empty `output_path`
    is none.
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
    present = set(SWEEP_KEYS) & set(entries)
    if present:
        missing = set(SWEEP_KEYS) - present
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
    optional = {key: numbers[key] for key in ("trials", "exhaustive_budget")
                if key in numbers}
    return ExperimentSpec(
        base=base,
        schemes=schemes,
        sweep=sweep,
        output_path=entries.get("output_path") or None,
        **optional,
    )
