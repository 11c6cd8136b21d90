"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

import gates
import worker
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class FakeClock:
    """Each call returns the next scripted time."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_is_span_minus_child_spans():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 4.5, 10.0))
    child = tracer.traced("child", lambda: None)

    def body():
        child()   # 1.0 .. 3.0
        child()   # 4.0 .. 4.5

    tracer.traced("parent", body)()   # 0.0 .. 10.0
    assert tracer.stats["child"].calls == 2
    assert tracer.stats["child"].total_s == pytest.approx(2.5)
    assert tracer.stats["child"].self_s == pytest.approx(2.5)
    assert tracer.stats["parent"].total_s == pytest.approx(10.0)
    assert tracer.stats["parent"].self_s == pytest.approx(7.5)
    assert tracer.edges == {(None, "parent"): 1, ("parent", "child"): 2}


def test_span_recorded_when_call_raises():
    tracer = Tracer(clock=FakeClock(0.0, 2.0))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.traced("boom", boom)()
    assert tracer.stats["boom"].calls == 1
    assert tracer._stack == []


def test_wrappers_restore_originals_even_after_an_error():
    module = types.ModuleType("bench_fake_module")
    module.func = lambda x: x + 1
    sys.modules[module.__name__] = module

    class Base:
        def inherited(self):
            return "base"

    class Leaf(Base):
        def own(self):
            return "own"

    module.Leaf = Leaf
    originals = (module.func, Leaf.__dict__["own"])
    try:
        with pytest.raises(RuntimeError):
            with Tracer() as tracer:
                assert tracer.wrap("bench_fake_module", "func", "m.func")
                assert tracer.wrap("bench_fake_module.Leaf", "own", "m.own")
                assert tracer.wrap("bench_fake_module.Leaf", "inherited", "m.inh")
                assert module.func(1) == 2 and Leaf().own() == "own"
                assert Leaf().inherited() == "base"
                assert tracer.stats["m.inh"].calls == 1
                assert module.func is not originals[0]
                raise RuntimeError
        assert (module.func, Leaf.__dict__["own"]) == originals
        assert "inherited" not in Leaf.__dict__
    finally:
        del sys.modules[module.__name__]


def test_missing_names_are_reported_not_raised():
    tracer = Tracer()
    assert not tracer.wrap("json", "no_such_function", "json.gone")
    assert not tracer.wrap("no_such_module_xyz", "f", "gone.f")
    assert tracer.missing == ["json.gone", "gone.f"]
    tracer.restore()


TINY = {
    "argv": ["convergence", "--n-users", "2", "--k-antennas", "2",
             "--l-positions", "12"],
    "trials": 2, "output": "trace", "n_users": 2, "k_antennas": 2,
    "l_positions": 12, "default_seed_sha256": "",
}


def test_traced_invocation_reports_every_per_layer_metric(tmp_path,
                                                         monkeypatch):
    import pinchsim.cli
    monkeypatch.chdir(tmp_path)  # the invoker changes directory
    original_main = pinchsim.cli.main
    invoke = worker.Invoker(TINY, tmp_path / "out", default_seed=-1)
    probe = worker.LayerProbe(TINY)
    try:
        runs = worker.timed_loop(invoke, 5, 0.0, before=probe.reset,
                                 after=probe.snapshot)
    finally:
        probe.tracer.restore()
    assert pinchsim.cli.main is original_main
    assert invoke.failed == 0 and probe.tracer.missing == []
    assert probe.consistency(runs) == []
    names = set(runs[0]["metrics"]) | {"setup.import_s", "trace.overhead_ratio"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in bench["per_layer"]}
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    assert names == {n for e in spec["metric_map"] for n in e["layer_metrics"]}
    m = runs[0]["metrics"]
    assert m["activation.exhaustive_search.candidates"] == 2 * (12 + 66)
    assert m["kernels.SetEvaluator.builds"] == 2
    assert m["kernels.SetEvaluator.used_ratio"] == 1.0


def test_throughput_cancels_a_uniform_host_slowdown():
    runs = [{"cpu_s": c, "reference_cpu_s": r, "seconds": c}
            for c, r in ((1.0, 0.10), (1.2, 0.12), (0.9, 0.09))]
    slow = [{k: 1.3 * v for k, v in run.items()} for run in runs]
    expected = 4 / (10.0 * worker.REFERENCE_CPU_S)
    assert worker.throughput(4, runs) == pytest.approx(expected)
    assert worker.throughput(4, slow) == pytest.approx(expected)
    assert worker.wall_throughput(4, slow) < worker.wall_throughput(4, runs)


def test_gate_rejects_a_trace_above_the_optimum(tmp_path):
    path = tmp_path / "t.csv"
    good = ("trial,step,cycle,utility,optimum,ratio\n"
            "0,0,0,1.0,2.0,0.5\n0,1,1,1.5,2.0,0.75\n")
    path.write_text(good)
    wl = dict(TINY, trials=1)
    assert gates.check_trace(path, wl) == ([], 2)
    path.write_text(good + "0,2,1,2.5,2.0,1.25\n")
    assert gates.check_trace(path, wl)[0]
    path.write_text(good.replace("1.5,2.0,0.75", "0.5,2.0,0.25"))
    assert "utility decreased" in gates.check_trace(path, wl)[0][0]
