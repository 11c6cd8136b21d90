"""One workload in one fresh process: invoke `pinchsim.cli.main`, gate the
output, and time it; optionally trace the layers.

Run by `run.py`, which sets single-threaded BLAS/OpenMP in the environment:

    python3 perfbench/worker.py --root . --workload scan --seed 3 \
        --seconds 10 --trace 0 --out .perfbench_out/work/scan

Prints one JSON object as its last stdout line.  Each invocation is timed
in CPU seconds between two runs of the reference loop (`reference.py`), so
that neither other processes nor the host's speed drift move the figures.
The untraced loop gives drops/s and peak RSS; with --trace 1 a second,
traced loop follows and gives the per-layer metrics, each per cli.main
invocation.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

from gates import check_output
from reference import REFERENCE_CPU_S, reference_cpu_s
from tracer import Tracer

SPEC_FILE = Path(__file__).resolve().parent / "workloads.json"
MIN_INVOCATIONS = 3
MAX_PROBLEMS = 20          # problem lines kept for the report

# (namespace the caller looks the name up in, attribute, span name)
SPANS = (
    ("pinchsim.cli", "main", "cli.main"),
    ("pinchsim.cli", "run_experiment", "harness.run_experiment"),
    ("pinchsim.cli", "convergence_trace", "harness.convergence_trace"),
    ("pinchsim.harness", "write_results", "harness.write_results"),
    ("pinchsim.harness", "write_trace", "harness.write_trace"),
    ("pinchsim.harness", "write_spec_sidecar", "harness.write_spec_sidecar"),
    ("pinchsim.harness", "make_deployment", "scenario.make_deployment"),
    ("pinchsim.harness", "random_matching", "activation.random_matching"),
    ("pinchsim.harness", "matching_activation", "activation.matching_activation"),
    ("pinchsim.harness", "exhaustive_search", "activation.exhaustive_search"),
    ("pinchsim.harness", "distance_based_activation",
     "activation.distance_based_activation"),
    ("pinchsim.harness", "conventional_baseline", "activation.conventional_baseline"),
    ("pinchsim.harness", "sum_rate", "noma.sum_rate"),
    ("pinchsim.noma", "effective_channel", "channel.effective_channel"),
    ("pinchsim.noma", "rate_report", "noma.rate_report"),
    ("pinchsim.activation", "rate_report", "noma.rate_report"),
    ("pinchsim.kernels.SetEvaluator", "__init__", "kernels.SetEvaluator.__init__"),
    ("pinchsim.kernels.SetEvaluator", "utility", "kernels.SetEvaluator.utility"),
    ("pinchsim.kernels", "amplitude_matrix", "kernels.amplitude_matrix"),
    ("pinchsim.kernels", "set_sum_rate", "kernels.set_sum_rate"),
)
UTILITY = "kernels.SetEvaluator.utility"
BUILD = "kernels.SetEvaluator.__init__"
SCAN = "activation.matching_activation"
EXHAUSTIVE = "activation.exhaustive_search"
SELF_TIMES = (
    UTILITY, "kernels.set_sum_rate", "kernels.amplitude_matrix", SCAN,
    EXHAUSTIVE, "activation.random_matching", "scenario.make_deployment",
    "noma.sum_rate", "channel.effective_channel", "noma.rate_report",
    "activation.conventional_baseline", "activation.distance_based_activation",
    "harness.run_experiment", "harness.convergence_trace",
    "harness.write_results", "harness.write_trace",
    "harness.write_spec_sidecar", "cli.main",
)
CALL_COUNTS = (UTILITY, "scenario.make_deployment", "noma.sum_rate")
# Per-layer metrics that are counts; they must repeat exactly.
COUNTS = tuple(f"{n}.calls" for n in CALL_COUNTS) + (
    f"{SCAN}.cycles", f"{SCAN}.evaluations", f"{SCAN}.moves",
    f"{EXHAUSTIVE}.candidates", "kernels.SetEvaluator.builds",
    "harness.output_bytes",
)


def drops_per_invocation(wl: dict) -> int:
    """A drop is one (trial, sweep point)."""
    return wl["trials"] * max(1, len(wl.get("sweep_values", ())))


class Invoker:
    """Runs the workload through `pinchsim.cli.main` and gates its output."""

    def __init__(self, wl: dict, out_dir: Path, default_seed: int):
        self.wl = wl
        self.out_dir = out_dir.resolve()
        self.default_seed = default_seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, seed: int) -> dict:
        import pinchsim.cli

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        # A relative --output keeps the sidecar, and so output_bytes, free of
        # the checkout's location.
        os.chdir(self.out_dir)
        csv_path = self.out_dir / "out.csv"
        argv = [*self.wl["argv"], "--trials", str(self.wl["trials"]),
                "--seed", str(seed), "--output", csv_path.name]
        sink = io.StringIO()
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = pinchsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a dead run
            code = traceback.format_exc(limit=3)
        cpu_s = time.process_time() - cpu_start
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code == 0:
            problems, rows = check_output(csv_path, self.wl, seed,
                                          self.default_seed)
        else:
            problems, rows = [f"exit {code}: {sink.getvalue()[-300:]}"], 0
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.extend(f"seed {seed}: {p}" for p in problems[:3])
        return {
            "seconds": elapsed,
            "cpu_s": cpu_s,
            "rows": rows,
            "output_bytes": sum(p.stat().st_size for p in self.out_dir.iterdir()),
        }


def throughput(drops: int, runs: list[dict]) -> float:
    """Drops per second at the reference host speed: the median over
    invocations of CPU time / reference time, scaled by REFERENCE_CPU_S."""
    cost = median(r["cpu_s"] / r["reference_cpu_s"] for r in runs)
    return drops / (cost * REFERENCE_CPU_S)


def wall_throughput(drops: int, runs: list[dict]) -> float:
    """Drops per wall-clock second over all timed invocations, as measured."""
    return drops * len(runs) / sum(r["seconds"] for r in runs)


def timed_loop(invoke: Invoker, seed: int, seconds: float, before=None,
               after=None) -> list[dict]:
    """Invoke repeatedly for `seconds` (at least MIN_INVOCATIONS times),
    running the reference loop before the first invocation and after each;
    an invocation's `reference_cpu_s` is the mean of the two around it."""
    runs = []
    end = time.perf_counter() + seconds
    reference = reference_cpu_s()
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() < end:
        if before is not None:
            before()
        run = invoke(seed)
        if after is not None:
            run.update(after(run))
        following = reference_cpu_s()
        run["reference_cpu_s"] = (reference + following) / 2
        reference = following
        runs.append(run)
    return runs


class LayerProbe:
    """Wraps every layer in SPANS and turns one invocation's spans into the
    per-layer metrics."""

    def __init__(self, wl: dict):
        self.wl = wl
        self.tracer = Tracer()
        self.used: set = set()
        self.scan = {"cycles": 0, "evaluations": 0, "moves": 0}
        self.scan_readable = True
        hooks = {UTILITY: self._on_utility, SCAN: self._on_scan}
        for owner, attr, name in SPANS:
            self.tracer.wrap(owner, attr, name, hooks.get(name))

    def _on_utility(self, args, kwargs, result):
        self.used.add(args[0])

    def _on_scan(self, args, kwargs, result):
        try:
            trajectory = result[1]
            self.scan["cycles"] += trajectory.cycles
            self.scan["evaluations"] += trajectory.evaluations
            self.scan["moves"] += len(trajectory.moves)
        except (AttributeError, IndexError, TypeError):
            self.scan_readable = False

    def reset(self) -> None:
        self.tracer.reset()
        self.used.clear()
        self.scan = dict.fromkeys(self.scan, 0)

    def snapshot(self, run: dict) -> dict:
        """Per-layer metrics of the invocation just finished; None marks a
        metric whose wrapped name no longer exists."""
        stats, edges = self.tracer.stats, self.tracer.edges
        missing = set(self.tracer.missing)

        def have(*names):
            return not missing.intersection(names)

        m: dict[str, float | None] = {}
        for name in SELF_TIMES:
            m[f"{name}.self_s"] = stats[name].self_s if have(name) else None
        for name in CALL_COUNTS:
            m[f"{name}.calls"] = stats[name].calls if have(name) else None
        calls, busy = stats[UTILITY].calls, stats[UTILITY].total_s
        m["kernels.utility.evals_per_s"] = (
            (calls / busy if calls else 0.0) if have(UTILITY) else None)
        builds = stats[BUILD].calls
        m["kernels.SetEvaluator.builds"] = builds if have(BUILD) else None
        m["kernels.SetEvaluator.build_self_s"] = (
            stats[BUILD].self_s if have(BUILD) else None)
        m["kernels.SetEvaluator.used_ratio"] = (
            (len(self.used) / builds if builds else 0.0)
            if have(BUILD, UTILITY) else None)
        readable = have(SCAN) and self.scan_readable
        for key, value in self.scan.items():
            m[f"{SCAN}.{key}"] = value if readable else None
        evaluations = self.scan["evaluations"]
        m[f"{SCAN}.accept_ratio"] = (
            (self.scan["moves"] / evaluations if evaluations else 0.0)
            if readable else None)
        candidates = edges[(EXHAUSTIVE, UTILITY)]
        m[f"{EXHAUSTIVE}.candidates"] = (
            candidates if have(EXHAUSTIVE, UTILITY) else None)
        m[f"{EXHAUSTIVE}.us_per_candidate"] = (
            (stats[EXHAUSTIVE].total_s / candidates * 1e6 if candidates else 0.0)
            if have(EXHAUSTIVE, UTILITY) else None)
        m["harness.output_bytes"] = run["output_bytes"]
        # Self time by module as a share of the whole invocation.
        total = stats["cli.main"].total_s
        shares: dict[str, float] = {}
        for name, stat in stats.items() if total else ():
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + stat.self_s / total
        return {"metrics": m, "shares": shares}

    def consistency(self, runs: list[dict]) -> list[str]:
        """Counts repeat exactly across invocations at one seed, and agree
        with what the workload must do."""
        problems = []
        first = runs[0]["metrics"]
        for run in runs[1:]:
            for key in COUNTS:
                if run["metrics"][key] != first[key]:
                    problems.append(f"{key} varies: {first[key]} vs "
                                    f"{run['metrics'][key]}")
        wl = self.wl
        if "l_positions" in wl and first[f"{EXHAUSTIVE}.candidates"] is not None:
            per_drop = sum(math.comb(wl["l_positions"], k)
                           for k in range(1, wl["k_antennas"] + 1))
            expected = per_drop * drops_per_invocation(wl)
            if first[f"{EXHAUSTIVE}.candidates"] != expected:
                problems.append(f"{first[f'{EXHAUSTIVE}.candidates']} "
                                f"exhaustive candidates, expected {expected}")
        if wl["output"] == "trace" and first[f"{SCAN}.moves"] is not None:
            expected_rows = wl["trials"] + first[f"{SCAN}.moves"]
            if runs[0]["rows"] != expected_rows:
                problems.append(f"{runs[0]['rows']} trace rows, expected "
                                f"{expected_rows} (trials + accepted moves)")
        return problems


def summarize(runs: list[dict]) -> dict:
    """Median of each per-invocation value; counts, checked equal by
    `LayerProbe.consistency`, are taken as they are."""
    metrics = {}
    for key, first in runs[0]["metrics"].items():
        values = [r["metrics"][key] for r in runs]
        metrics[key] = (first if key in COUNTS or None in values
                        else median(values))
    shares = {k: median(r["shares"].get(k, 0.0) for r in runs)
              for k in runs[0]["shares"]}
    return {"metrics": metrics, "shares": shares}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads(SPEC_FILE.read_text())
    wl = spec["workloads"][args.workload]
    src = (args.root / "src").resolve()
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import pinchsim.cli
    import_s = time.perf_counter() - start
    import numpy
    import pinchsim
    if not Path(pinchsim.__file__).resolve().is_relative_to(src):
        print(f"pinchsim imported from {pinchsim.__file__}, not {src}",
              file=sys.stderr)
        return 2

    invoke = Invoker(wl, args.out, spec["default_seed"])
    # Warm-up, untimed: the recorded default-seed digest is checked every run.
    invoke(spec["default_seed"])
    reference_cpu_s()
    drops = drops_per_invocation(wl)
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    runs = timed_loop(invoke, args.seed, untraced_s)
    result = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": getattr(pinchsim, "BACKEND", None),
        "import_s": import_s,
        "drops_per_invocation": drops,
        "drops_per_s": throughput(drops, runs),
        "wall_drops_per_s": wall_throughput(drops, runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "invocations": len(runs),
        "invocation_s": [r["seconds"] for r in runs],
        "invocation_cpu_s": [r["cpu_s"] for r in runs],
        "reference_cpu_s": [r["reference_cpu_s"] for r in runs],
    }
    if args.trace:
        probe = LayerProbe(wl)
        with probe.tracer:
            traced = timed_loop(invoke, args.seed, args.seconds / 2,
                                before=probe.reset, after=probe.snapshot)
        invoke.problems.extend(probe.consistency(traced))
        result["traced_drops_per_s"] = throughput(drops, traced)
        result["traced_invocations"] = len(traced)
        result["missing"] = sorted(set(probe.tracer.missing))
        result.update(summarize(traced))
    result.update(attempted=invoke.attempted, failed=invoke.failed,
                  problems=invoke.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
