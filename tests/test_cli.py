"""Command line behavior: subcommands, precedence, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pinchsim import cli, read_results, run_experiment
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


def test_convergence_sidecar_records_the_schemes_it_runs(tmp_path, capsys):
    # the trace compares the matching with the exhaustive search whatever
    # schemes a preset or config file names, even ones no other command takes
    cfg, bogus = tmp_path / "e.cfg", tmp_path / "bogus.cfg"
    cfg.write_text("schemes = random\n")
    bogus.write_text("schemes = bogus\n")
    for source in (["--preset", "power"], ["--config", str(cfg)],
                   ["--config", str(bogus)], []):
        out = tmp_path / "t.csv"
        assert main(["convergence", *source, *FAST_ARGS,
                     "--output", str(out)]) == 0
        sidecar = json.loads((tmp_path / "t.spec.json").read_text())
        assert sidecar["schemes"] == ["matching", "exhaustive"]
    capsys.readouterr()
    assert main(["run", "--config", str(bogus), *FAST_ARGS,
                 "--output", str(tmp_path / "r.csv")]) == 2
    assert "unknown scheme 'bogus'" in capsys.readouterr().err


def test_convergence_takes_no_schemes_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--trials", "2", "--schemes", "random",
              "--output", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --schemes" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


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
    rate = text.splitlines()[1].split(",")[2]
    for broken in (text.rstrip("\n").rsplit(",", 1)[0] + "\n",  # short row
                   text.replace(",2\n", ",2,7\n"),              # extra field
                   text.replace(",random,", ",random,x"),        # not a number
                   # not finite: once parsed, printed and exit 0
                   *(text.replace(f",random,{rate},", f",random,{x},")
                     for x in ("nan", "inf", "-inf"))):
        out.write_text(broken)
        assert main(["compare", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}:2: ")


def test_compare_header_only_files_are_a_clean_error(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["run", *FAST_ARGS, "--schemes", "random",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    out.write_text(out.read_text().splitlines(keepends=True)[0])
    empty = tmp_path / "d.csv"
    empty.write_text(out.read_text())
    assert main(["compare", str(out), str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no rows found in ")
    assert str(out) in err and str(empty) in err


def test_unparseable_sweep_value_names_its_flag(tmp_path, capsys):
    code = main(["sweep", *FAST_ARGS, "--sweep-param", "pt_dbm",
                 "--sweep-from", "a", "--sweep-to", "30", "--sweep-step", "5",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: sweep_from must be a number, got 'a'\n"


def test_invalid_sweep_value_names_itself(tmp_path, capsys):
    # antenna-count steps k_antennas by 2 over l_positions = 20
    out = tmp_path / "x.csv"
    code = main(["sweep", "--preset", "antenna-count", "--sweep-to", "30",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: sweep value k_antennas=22: need 1 <= k_antennas <= "
        "l_positions\n")
    assert not out.exists()


def test_a_sweep_of_uncountable_points_names_itself(tmp_path, capsys):
    # a span or a count beyond the float range is refused before any trial
    out = tmp_path / "x.csv"
    for param, start, stop, step in [("d1", "1", "1e308", "1e-308"),
                                     ("pt_dbm", "-1e308", "1e308", "1")]:
        code = main(["sweep", *FAST_ARGS, "--sweep-param", param,
                     f"--sweep-from={start}", "--sweep-to", stop,
                     "--sweep-step", step, "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: sweep of {param} from {float(start)!r} to "
            f"{float(stop)!r} in steps of {float(step)!r} has too many "
            "points to count\n")
        assert not out.exists()


def test_bad_scheme_is_a_clean_error(tmp_path, capsys):
    code = main(["run", *FAST_ARGS, "--schemes", "bogus",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    # the flag beats the config file, the file beats the command's default
    # name, and PINCHSIM_OUTPUT_DIR roots each relative path
    monkeypatch.chdir(tmp_path)
    commands = {
        "run": (["--schemes", "random"], "results.csv"),
        "sweep": (["--schemes", "random", "--sweep-param", "pt_dbm",
                   "--sweep-from", "25", "--sweep-to", "30",
                   "--sweep-step", "5"], "sweep.csv"),
        "convergence": ([], "trace.csv"),
    }
    cfg = tmp_path / "o.cfg"
    cfg.write_text("output_path = file.csv\n")
    absolute = tmp_path / "abs" / "flag.csv"
    sources = [([], None), (["--config", str(cfg)], "file.csv"),
               (["--config", str(cfg), "--output", "flag.csv"], "flag.csv"),
               (["--output", str(absolute)], absolute)]
    for command, (extra, default) in commands.items():
        for root in (None, tmp_path / "results"):
            if root is None:
                monkeypatch.delenv("PINCHSIM_OUTPUT_DIR", raising=False)
            else:
                monkeypatch.setenv("PINCHSIM_OUTPUT_DIR", str(root))
            for source, name in sources:
                path = Path(root or "") / (name or default)
                assert main([command, *FAST_ARGS, *extra, *source]) == 0, path
                assert capsys.readouterr().out.endswith(f" to {path}\n")
                sidecar = (tmp_path / path).with_suffix(".spec.json")
                assert json.loads(sidecar.read_text())["output_path"] == str(path)
                (tmp_path / path).unlink()
                sidecar.unlink()


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
    # the trace logs one line per trial, without a sweep value
    trace = ["convergence", *FAST_ARGS]
    with monkeypatch.context() as patch:
        patch.setattr("pinchsim.harness._drop_hash", refuse)
        assert main([*trace, "--output", str(plain)]) == 0
    assert "drop=" not in capsys.readouterr().err
    assert main(["--log-level", "DEBUG", *trace, "--output", str(logged)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "drop=" in line]
    assert len(lines) == 2
    assert logged.read_bytes() == plain.read_bytes()
    # the same lines as a run without a sweep, from the same drops
    assert main(["--log-level", "DEBUG", "run", *FAST_ARGS, "--schemes",
                 "random", "--output", str(tmp_path / "run.csv")]) == 0
    assert lines == [line for line in capsys.readouterr().err.splitlines()
                     if "drop=" in line]
    assert lines[1].startswith("DEBUG pinchsim.harness: sweep=None trial=1 drop=")


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


@pytest.mark.parametrize("flag, value", [("--pt-dbm", "4000"),
                                         ("--pt-dbm", "-4000"),
                                         ("--noise-dbm", "-4000")])
def test_power_outside_the_float_range_is_a_clean_error(tmp_path, capsys,
                                                         flag, value):
    # these once gave an OverflowError traceback, a late noise error, and a
    # silent sum rate of 0
    out = tmp_path / "x.csv"
    code = main(["run", flag, value, "--trials", "2", "--output", str(out)])
    assert code == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == (
        f"error: {name}={float(value)!r} dBm is not a positive finite power "
        "in watts\n")
    assert not out.exists()


@pytest.mark.parametrize("command, field", [
    ("convergence --n-eff 1e305", "n_eff"),
    ("run --d1 1e200 --schemes exhaustive", "d1"),
    ("run --noise-dbm -3150 --l-positions 8 --schemes exhaustive",
     "noise_dbm")])
def test_a_channel_beyond_the_float_range_fails_before_any_trial(
        tmp_path, monkeypatch, capsys, command, field):
    # these once wrote nan utilities, raised a TypeError from the exhaustive
    # search's (None, -inf), and ran every search on inf utilities before
    # "rates must be finite", which names no field
    def no_work(spec):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "convergence_trace", no_work)
    out = tmp_path / "x.csv"
    code = main([*command.split(), "--trials", "2", "--output", str(out)])
    assert code == 2
    assert re.fullmatch(rf"error: [^:]*\b{field}\b[^:]*: .* is beyond the "
                        r"float range\n", capsys.readouterr().err)
    assert not out.exists()


def test_a_sidecar_at_a_directory_fails_before_any_trial(tmp_path, capsys):
    # this once ran every trial and wrote the CSV, then failed with
    # "[Errno 21] Is a directory" where the sidecar was to be written
    out = tmp_path / "out.csv"
    (tmp_path / "out.spec.json").mkdir()
    for command in ("run", "sweep --preset power", "convergence"):
        assert main([*command.split(), "--trials", "3",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: output_path {str(out)!r} has its sidecar ")
        assert not out.exists()


def test_an_unwritable_output_fails_before_any_trial(tmp_path, monkeypatch,
                                                     capsys):
    # an existing directory, or the empty name (the working directory), once
    # failed with "[Errno 21] Is a directory" after every trial had run
    def no_work(spec):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "convergence_trace", no_work)
    monkeypatch.chdir(tmp_path)
    for command in ("run", "sweep --preset power", "convergence"):
        for output in (str(tmp_path), ""):
            code = main([*command.split(), "--trials", "3",
                         "--output", output])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: output_path ")
    # with PINCHSIM_OUTPUT_DIR the empty name is that directory, and a
    # relative name is checked where it will be written, under it
    root = tmp_path / "results"
    monkeypatch.setenv("PINCHSIM_OUTPUT_DIR", str(root))
    root.mkdir()
    assert main(["run", "--trials", "3", "--output", ""]) == 2
    assert f"output_path {str(root)!r}" in capsys.readouterr().err
    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    (tmp_path / "r.csv").mkdir()
    assert main(["run", *FAST_ARGS, "--output", "r.csv"]) == 0
    assert (root / "r.csv").is_file()


def test_a_power_at_which_every_rate_is_0_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["run", "--trials", "2", "--pt-dbm", "-3000",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: every trial of every scheme rates 0 at pt_dbm=-3000.0 dBm: "
        "no rate to report\n")
    assert not out.exists()


def test_a_negative_value_may_take_an_exponent(tmp_path, capsys):
    # argparse reads `-3e3` or `-inf` as a flag; each reaches the config
    # check, which names its key
    out = tmp_path / "x.csv"
    for flag, value, error in [
            ("--pt-dbm", "-3e3", "every trial of every scheme rates 0 at "
                                 "pt_dbm=-3000.0 dBm: no rate to report"),
            ("--noise-dbm", "-inf", "noise_dbm must be finite, got -inf"),
            ("--trials", "-1e1", "trials must be an integer, got '-1e1'")]:
        assert main(["run", "--trials", "2", flag, value,
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()
    # a sweep's bounds so written give the same CSV as without exponents
    csvs = []
    for start, stop, step in [("-1e1", "1e1", "1e1"), ("-10", "10", "10")]:
        out = tmp_path / f"sweep{len(csvs)}.csv"
        assert main(["sweep", *FAST_ARGS, "--sweep-param", "pt_dbm",
                     "--sweep-from", start, "--sweep-to", stop,
                     "--sweep-step", step, "--output", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_importing_the_cli_loads_neither_hashlib_nor_statistics():
    # only a DEBUG run hashes its drops, and the means need no statistics;
    # numpy.random, which loads hashlib, waits for the first trial's streams
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, pinchsim.cli; pinchsim.cli.build_parser(); "
            "print(sorted({'hashlib', 'statistics', 'numpy.random'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
