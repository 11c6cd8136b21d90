"""Command line front end.

Subcommands: run, sweep, convergence, compare.  Flags mirror the config-file
keys (`--output` is `output_path`), and one function merges them: built-in
defaults < preset < config file < flags.  A subcommand's own keys are parser
defaults: its output name and, for convergence, its two schemes.
`--log-level`, given before the subcommand, logs to stderr.  A negative
value may follow its flag as its own argument in any float spelling, such
as `--pt-dbm -3e3`.
Relative output paths resolve under PINCHSIM_OUTPUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from contextlib import contextmanager
from pathlib import Path

from .harness import (SCHEMES, SPEC_KEYS, SWEEP_KEYS, SWEEP_PARAMS,
                      ConfigError, ExperimentSpec, build_spec,
                      convergence_trace, parse_config_file, read_results,
                      run_experiment)
from .scenario import config_field_names

# Named parameter bundles for the studies the package is built around.  Trial
# counts are kept modest so each preset finishes in seconds to minutes; raise
# --trials for smoother curves.
PRESETS = {
    "power": {
        "d1": "10", "d2": "6", "n_users": "2", "k_antennas": "2",
        "l_positions": "20", "kappa_db_per_m": "0.1",
        "schemes": "matching,random,distance",
        "trials": "100",
        "sweep_param": "pt_dbm", "sweep_from": "20", "sweep_to": "40",
        "sweep_step": "5",
    },
    "area-length": {
        "d2": "4", "n_users": "4", "k_antennas": "4", "l_positions": "20",
        "pt_dbm": "30", "kappa_db_per_m": "0.1",
        "schemes": "matching,distance,conventional",
        "trials": "100",
        "sweep_param": "d1", "sweep_from": "10", "sweep_to": "30",
        "sweep_step": "10",
    },
    "antenna-count": {
        "d1": "10", "d2": "6", "n_users": "4", "l_positions": "20",
        "pt_dbm": "30", "kappa_db_per_m": "0.1",
        "schemes": "matching,conventional",
        "trials": "50",
        "sweep_param": "k_antennas", "sweep_from": "2", "sweep_to": "8",
        "sweep_step": "2",
    },
    "convergence": {
        "d1": "10", "d2": "6", "n_users": "2", "k_antennas": "2",
        "l_positions": "12", "pt_dbm": "30", "kappa_db_per_m": "0.1",
        "trials": "100",
    },
}

_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _add_spec_flags(parser: argparse.ArgumentParser, sweep: bool,
                    schemes: bool = True) -> None:
    """The config-file keys as flags; each flag's dest is its key."""
    parser.add_argument("--config", type=Path, metavar="FILE",
                        help="key = value file; flags override it")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter bundle to start from")
    for key in config_field_names():
        parser.add_argument(_flag(key), metavar="V", help=argparse.SUPPRESS)
    parser.add_argument("--trials", metavar="T", help="Monte-Carlo drops per point")
    if schemes:
        parser.add_argument("--schemes", metavar="S,S,...",
                            help=f"comma list from: {', '.join(SCHEMES)}")
    parser.add_argument("--output", dest="output_path", type=Path, metavar="CSV",
                        help="result file (a .spec.json sidecar is written too)")
    parser.add_argument("--exhaustive-budget", metavar="N",
                        help="most candidate sets the exhaustive search may "
                             "evaluate per drop")
    if sweep:
        param, *bounds = SWEEP_KEYS
        parser.add_argument(_flag(param), choices=SWEEP_PARAMS)
        for key in bounds:
            parser.add_argument(_flag(key), metavar="V")


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec of a run, trace or sweep: built-in defaults < preset <
    config file < flags (and the subcommand's fixed keys), with relative
    output paths under PINCHSIM_OUTPUT_DIR when that is set."""
    entries = dict(PRESETS[args.preset]) if args.preset else {}
    if args.config:
        entries.update(parse_config_file(args.config))
    entries.update((key, str(value)) for key, value in vars(args).items()
                   if key in SPEC_KEYS and value is not None)
    if args.command != "sweep":
        for key in SWEEP_KEYS:
            entries.pop(key, None)
    # Rooted before the spec is built, which checks the path it will write.
    root = Path(os.environ.get("PINCHSIM_OUTPUT_DIR", ""))
    entries["output_path"] = str(root / (entries.get("output_path")
                                         or args.default_output))
    return build_spec(entries)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.command == "sweep" and spec.sweep is None:
        raise ConfigError(f"sweep needs {'/'.join(map(_flag, SWEEP_KEYS))} "
                          "(or a preset/config that sets them)")
    rows = run_experiment(spec)
    _print_rows(rows)
    print(f"wrote {len(rows)} rows to {spec.output_path}")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    rows = convergence_trace(spec)
    last: dict[int, float] = {}
    for r in rows:
        last[r.trial] = r.ratio
    mean_final = sum(last.values()) / len(last)
    print(f"{spec.trials} trials, mean final utility / optimum = {mean_final:.4f}")
    print(f"wrote {len(rows)} rows to {spec.output_path}")
    return 0


def _print_rows(rows) -> None:
    swept = any(r.sweep_value is not None for r in rows)
    head = ["sweep" if swept else "", "scheme", "sum rate", "fairness",
            "active", "ratio"]
    print(f"{head[0]:>8} {head[1]:>12} {head[2]:>10} {head[3]:>9} "
          f"{head[4]:>7} {head[5]:>7}")
    for r in rows:
        sv = "" if r.sweep_value is None else f"{r.sweep_value:g}"
        ratio = "" if r.mean_ratio_to_exhaustive is None \
            else f"{r.mean_ratio_to_exhaustive:.4f}"
        print(f"{sv:>8} {r.scheme:>12} {r.mean_sum_rate:>10.4f} "
              f"{r.mean_fairness:>9.4f} {r.mean_active_count:>7.2f} {ratio:>7}")


def _cmd_compare(args: argparse.Namespace) -> int:
    cells: dict[tuple[float | None, str], float] = {}
    schemes: list[str] = []
    values: list[float | None] = []
    for path in args.csv:
        for row in read_results(path):
            cells[(row.sweep_value, row.scheme)] = row.mean_sum_rate
            if row.scheme not in schemes:
                schemes.append(row.scheme)
            if row.sweep_value not in values:
                values.append(row.sweep_value)
    if not cells:
        raise ConfigError(f"no rows found in {', '.join(map(str, args.csv))}")
    width = max(10, *(len(s) + 2 for s in schemes))
    print("mean sum rate (bits/s/Hz)")
    print(f"{'sweep':>10}" + "".join(f"{s:>{width}}" for s in schemes))
    for value in values:
        sv = "" if value is None else f"{value:g}"
        line = f"{sv:>10}"
        for s in schemes:
            cell = cells.get((value, s))
            line += f"{'':>{width}}" if cell is None else f"{cell:>{width}.4f}"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Simulate and optimize pinching-antenna activation for "
                    "a NOMA downlink.")
    parser.add_argument("--log-level", type=str.upper, choices=_LOG_LEVELS,
                        help="log to stderr from this level on; DEBUG adds "
                             "a user-drop hash per sweep value and trial")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one configuration, no sweep")
    _add_spec_flags(p_run, sweep=False)
    p_run.set_defaults(func=_cmd_run, default_output="results.csv")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    _add_spec_flags(p_sweep, sweep=True)
    p_sweep.set_defaults(func=_cmd_run, default_output="sweep.csv")

    p_conv = sub.add_parser("convergence",
                            help="per-trial utility trace vs exhaustive optimum")
    # The trace always compares the matching with the exhaustive search:
    # its schemes are a fixed key, not a flag, and beat a preset's or file's.
    _add_spec_flags(p_conv, sweep=False, schemes=False)
    p_conv.set_defaults(func=_cmd_convergence, default_output="trace.csv",
                        schemes="matching,exhaustive")

    p_cmp = sub.add_parser("compare", help="tabulate existing result CSVs")
    p_cmp.add_argument("csv", nargs="+", type=Path)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


@contextmanager
def _log_to_stderr(level: str | None):
    """Send the package's log records from `level` on to stderr while the
    block runs; no change at all when `level` is None."""
    if level is None:
        yield
        return
    logger = logging.getLogger("pinchsim")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    previous = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous)


def _join_negative_numbers(argv: list[str]) -> list[str]:
    """`argv` with each negative number that follows a long flag joined to
    it, `--pt-dbm -3e3` as `--pt-dbm=-3e3`, so that `-3e3` or `-inf`
    reaches the config check: argparse reads an argument that starts with
    `-` as a flag unless it looks like `-123` or `-1.5`."""
    joined: list[str] = []
    for arg in argv:
        if (joined and re.match(r"-(\d|\.\d|inf|nan)", arg, re.IGNORECASE)
                and re.fullmatch(r"--[\w-]+", joined[-1])):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_numbers(
        sys.argv[1:] if argv is None else argv))
    with _log_to_stderr(args.log_level):
        try:
            return args.func(args)
        except (ConfigError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
