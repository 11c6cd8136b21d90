"""Command line behavior: subcommands, precedence, exit codes."""

import hashlib
import json

import pytest

from pinchsim import read_results
from pinchsim.cli import PRESETS, main

FAST_ARGS = ["--n-users", "2", "--k-antennas", "2", "--l-positions", "12",
             "--trials", "2"]


def test_run_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["run", *FAST_ARGS, "--schemes", "matching,random",
                 "--output", str(out)])
    assert code == 0
    rows = read_results(out)
    assert {r.scheme for r in rows} == {"matching", "random"}
    assert all(r.trials == 2 for r in rows)
    sidecar = json.loads((tmp_path / "r.spec.json").read_text())
    assert sidecar["trials"] == 2
    assert "wrote 2 rows" in capsys.readouterr().out


def test_config_file_then_flag_precedence(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("l_positions = 12\ntrials = 9\nschemes = random\n")
    out = tmp_path / "o.csv"
    code = main(["run", "--config", str(cfg), "--trials", "2",
                 "--output", str(out)])
    assert code == 0
    rows = read_results(out)
    assert rows[0].scheme == "random"  # from the file
    assert rows[0].trials == 2         # flag wins


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", *FAST_ARGS, "--schemes", "matching",
                 "--sweep-param", "pt_dbm", "--sweep-from", "25",
                 "--sweep-to", "35", "--sweep-step", "5",
                 "--output", str(out)])
    assert code == 0
    rows = read_results(out)
    assert [r.sweep_value for r in rows] == [25.0, 30.0, 35.0]


def test_sweep_requires_sweep_block(tmp_path, capsys):
    code = main(["sweep", *FAST_ARGS, "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_convergence_subcommand(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["convergence", *FAST_ARGS, "--output", str(out)])
    assert code == 0
    assert out.exists()
    assert "mean final utility / optimum" in capsys.readouterr().out


def test_compare_prints_table(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["sweep", *FAST_ARGS, "--schemes", "matching,random",
                 "--sweep-param", "pt_dbm", "--sweep-from", "25",
                 "--sweep-to", "30", "--sweep-step", "5",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out)]) == 0
    table = capsys.readouterr().out
    assert "matching" in table and "random" in table
    assert "25" in table and "30" in table


def test_compare_missing_file(tmp_path, capsys):
    code = main(["compare", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_compare_malformed_row_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["run", *FAST_ARGS, "--schemes", "random",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    for broken in (text.rstrip("\n").rsplit(",", 1)[0] + "\n",  # short row
                   text.replace(",2\n", ",2,7\n"),              # extra field
                   text.replace(",random,", ",random,x")):       # not a number
        out.write_text(broken)
        assert main(["compare", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}:2: ")


def test_unparseable_sweep_value_names_its_flag(tmp_path, capsys):
    code = main(["sweep", *FAST_ARGS, "--sweep-param", "pt_dbm",
                 "--sweep-from", "a", "--sweep-to", "30", "--sweep-step", "5",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: sweep_from must be a number, got 'a'\n"


def test_bad_scheme_is_a_clean_error(tmp_path, capsys):
    code = main(["run", *FAST_ARGS, "--schemes", "bogus",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PINCHSIM_OUTPUT_DIR", str(tmp_path / "results"))
    code = main(["run", *FAST_ARGS, "--schemes", "random",
                 "--output", "run.csv"])
    assert code == 0
    assert (tmp_path / "results" / "run.csv").exists()
    assert (tmp_path / "results" / "run.spec.json").exists()


def test_presets_are_runnable(tmp_path):
    # every preset at a tiny trial count, to keep this a smoke test
    assert set(PRESETS) == {"power", "area-length", "antenna-count",
                            "convergence"}
    out = tmp_path / "p.csv"
    code = main(["sweep", "--preset", "power", "--trials", "1",
                 "--output", str(out)])
    assert code == 0
    rows = read_results(out)
    assert [r.sweep_value for r in rows][:3] == [20.0, 20.0, 20.0]
    assert main(["convergence", "--preset", "convergence", "--trials", "1",
                 "--output", str(tmp_path / "pc.csv")]) == 0


def test_preset_flag_overrides(tmp_path):
    out = tmp_path / "q.csv"
    code = main(["sweep", "--preset", "power", "--trials", "1",
                 "--sweep-from", "30", "--sweep-to", "30",
                 "--output", str(out)])
    assert code == 0
    values = {r.sweep_value for r in read_results(out)}
    assert values == {30.0}


def test_log_level_flag_logs_drop_hashes_and_leaves_the_csv(tmp_path, capsys,
                                                            monkeypatch):
    sweep = ["sweep", *FAST_ARGS, "--schemes", "random", "--sweep-param",
             "pt_dbm", "--sweep-from", "25", "--sweep-to", "30",
             "--sweep-step", "5"]
    plain, logged = tmp_path / "plain.csv", tmp_path / "logged.csv"

    def refuse(deployment):
        raise AssertionError("drop hash computed without debug logging")

    with monkeypatch.context() as patch:
        patch.setattr("pinchsim.harness._drop_hash", refuse)
        assert main([*sweep, "--output", str(plain)]) == 0
    assert "drop=" not in capsys.readouterr().err
    assert main(["--log-level", "debug", *sweep, "--output", str(logged)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "drop=" in line]
    assert len(lines) == 4  # 2 sweep values x 2 trials
    assert lines[0].startswith("DEBUG pinchsim.harness: sweep=25.0 trial=0 drop=")
    assert logged.read_bytes() == plain.read_bytes()
    # the handler is gone again: a later run without the flag logs nothing
    assert main([*sweep, "--output", str(plain)]) == 0
    assert "drop=" not in capsys.readouterr().err


def test_exhaustive_budget_flag_and_key_reach_the_sidecar(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["run", *FAST_ARGS, "--schemes", "exhaustive",
                 "--exhaustive-budget", "5000", "--output", str(out)]) == 0
    assert json.loads((tmp_path / "b.spec.json").read_text())[
        "exhaustive_budget"] == 5000
    cfg = tmp_path / "e.cfg"
    cfg.write_text("exhaustive_budget = 10\n")
    code = main(["run", "--config", str(cfg), *FAST_ARGS, "--schemes",
                 "exhaustive", "--output", str(out)])
    assert code == 2  # 78 candidates at L=12, K=2
    assert "78 candidates" in capsys.readouterr().err


# sha256 of each preset's CSV at --trials 5, recorded before the report path
# and the search kernel shared one gain formula and one SIC-rate function.
PRESET_DIGESTS = {
    "power": "ab1da0cda80628558da18e69940377947aa4d9e803984ac710301c53d0a98245",
    "area-length":
        "b63ab96cffacede8b75dd8e40074325081bd4f60af1c10a80502d88b000682ef",
    "antenna-count":
        "457728387826e7d479d6f47905517beedf1d2a83112cc07787f4ec1ec245bc5f",
    "convergence":
        "6e66a97aa23030c990bfcca01737abb9a5ae4a0106b00ed3383c01176fac85e4",
}


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_results_are_pinned(preset, tmp_path):
    command = "convergence" if preset == "convergence" else "sweep"
    out = tmp_path / f"{preset}.csv"
    assert main([command, "--preset", preset, "--trials", "5",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_DIGESTS[preset]
