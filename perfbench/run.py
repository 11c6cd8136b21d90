"""pinchsim benchmark: run one workload through `pinchsim.cli.main` in a
fresh single-threaded process, gate its output and print its metrics.

    python3 perfbench/run.py --workload scan --seed 7 --seconds 15 --trace 0

Run from the repository root; the package is imported from `src/`, nothing
is installed.  Workloads, their recorded default-seed digests and layer
shares live in `perfbench/workloads.json`; metric names and units in
`BENCHMARK.json`.  With `--trace 0` the end-to-end metrics are printed
(drops/s, set-up time, peak RSS), with `--trace 1` the per-layer ones from a
separately traced loop.  Times are CPU seconds in units of a fixed
reference loop run beside them (`perfbench/reference.py`), scaled back to
seconds, so the shared host's speed drift cancels; drops per wall-clock
second are printed too.  The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  A result file with an
environment block is written under `.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from reference import REFERENCE_CPU_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15          # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170.0         # the whole run, children included
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PINCHSIM_")}
    env.update(THREAD_ENV)
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a Python child to completion (killed at the deadline) and return
    its stdout; raise RuntimeError when it fails."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{args[0]} timed out") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(deadline: float) -> float:
    """Median import CPU time over fresh interpreters, in units of the median
    reference time measured in the same interpreters, scaled by
    REFERENCE_CPU_S.  One reference sample per probe is too short to pair
    with its own import; the medians follow the host's drift between runs."""
    probe = [str(HERE / "setup_probe.py"), str(ROOT / "src")]
    run_child(probe, deadline)  # writes bytecode caches; not counted
    samples = [tuple(map(float, run_child(probe, deadline).split()[-2:]))
               for _ in range(SETUP_PROBES)]
    return (median(s[0] for s in samples) / median(s[1] for s in samples)
            * REFERENCE_CPU_S)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(worker: dict) -> dict:
    return {
        "python": worker["python"],
        "numpy": worker["numpy"],
        "backend": worker["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "child_env": THREAD_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pinchsim benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pinchsim" / "cli.py").is_file():
        print(f"no pinchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2

    work_dir = OUT / "work" / args.workload
    try:
        setup_s = None if args.trace else measure_setup(deadline)
        worker = json.loads(run_child(
            [str(HERE / "worker.py"), "--root", str(ROOT),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(work_dir)], deadline).splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        values = dict(worker["metrics"])
        values["setup.import_s"] = worker["import_s"]
        values["trace.overhead_ratio"] = (worker["traced_drops_per_s"]
                                          / worker["drops_per_s"])
        wanted = bench["per_layer"]
    else:
        values = {"drops_per_s": worker["drops_per_s"], "setup_s": setup_s,
                  "peak_rss_mb": worker["peak_rss_mb"]}
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": worker["failed"] == 0 and not worker["problems"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    env = environment(worker)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result, "worker": worker}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_file = (OUT / "results"
                   / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result_file.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{worker['drops_per_invocation']} drops per invocation, "
          f"{worker['invocations']} timed invocations, "
          f"{worker['wall_drops_per_s']:.4g} drops per wall-clock second")
    print("environment " + json.dumps(env))
    for problem in worker["problems"]:
        print(f"FAILED {problem}")
    print(f"failed_ratio {worker['failed'] / worker['attempted']:.4g} ratio "
          f"({worker['failed']}/{worker['attempted']} invocations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if worker.get("shares"):
        print("self-time share by module " + json.dumps(
            {k: round(v, 4) for k, v in sorted(worker["shares"].items())}))
    if worker.get("missing"):
        print("missing (renamed or removed) " + ", ".join(worker["missing"]))
    print(f"result file {result_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
