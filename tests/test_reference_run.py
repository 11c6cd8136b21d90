"""Whole runs against `reference_run`, an oracle that shares no code with
the package: every cell of a run, every row of a trace."""

import ast
import math
from dataclasses import astuple
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_run
from pinchsim import (ExperimentSpec, SweepSpec, SystemConfig,
                      convergence_trace, run_experiment)
from pinchsim.harness import SCHEMES, spec_to_dict


def _assert_rows_agree(got, want):
    # the CSV stores 9 digits, which round at 5e-9
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        for x, y in zip(astuple(row), ref):
            if isinstance(y, float):
                assert math.isclose(x, y, rel_tol=1e-8), (row, ref)
            else:
                assert x == y, (row, ref)


def test_reference_run_imports_nothing_from_pinchsim():
    tree = ast.parse((Path(__file__).parent / "reference_run.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in
                 ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "reference" in imported
    assert not [name for name in imported
                if name.split(".")[0] in ("pinchsim", "")], imported


def test_every_cell_of_a_run_matches_the_oracle():
    # all five schemes over two blocks of trials and three powers
    spec = ExperimentSpec(
        base=SystemConfig(n_users=2, k_antennas=2, l_positions=8, seed=17),
        schemes=SCHEMES, trials=70,
        sweep=SweepSpec("pt_dbm", 20.0, 40.0, 10.0))
    want = reference_run.run_rows(spec_to_dict(spec))
    got = run_experiment(spec)
    _assert_rows_agree(got, want)
    # mean cycles are equal, not just close
    assert ([r.mean_cycles for r in got if r.scheme == "matching"]
            == [r[5] for r in want if r[1] == "matching"])


def test_the_convergence_trace_matches_the_oracle_row_for_row():
    spec = ExperimentSpec(
        base=SystemConfig(n_users=3, k_antennas=3, l_positions=8, seed=23),
        trials=6)
    want = reference_run.trace_rows(spec_to_dict(spec))
    assert len(want) > 6  # some trials move
    _assert_rows_agree(convergence_trace(spec), want)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 3), extra=st.integers(0, 5),
       d1=st.floats(2.0, 30.0), d2=st.floats(1.0, 10.0),
       height=st.floats(1.0, 6.0), kappa=st.floats(0.0, 0.5),
       pt_dbm=st.floats(0.0, 45.0), seed=st.integers(0, 2 ** 64 - 1),
       trials=st.integers(1, 3))
def test_small_random_runs_match_the_oracle(n, k, extra, d1, d2, height,
                                             kappa, pt_dbm, seed, trials):
    base = SystemConfig(d1=d1, d2=d2, height=height, kappa_db_per_m=kappa,
                        pt_dbm=pt_dbm, n_users=n, k_antennas=k,
                        l_positions=max(k, 2) + extra, seed=seed)
    spec = ExperimentSpec(base=base, schemes=SCHEMES, trials=trials)
    _assert_rows_agree(run_experiment(spec),
                       reference_run.run_rows(spec_to_dict(spec)))
