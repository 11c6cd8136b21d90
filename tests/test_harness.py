"""Experiment harness: specs, sweeps, pairing, CSV round trips."""

import dataclasses
import hashlib
import json
import logging
import math
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (ConfigError, Deployment, ExperimentSpec,
                      PowerAllocation, SweepSpec, SystemConfig, amplitudes,
                      build_spec, conventional_baseline, convergence_trace,
                      dbm_to_watts, distance_based_activation,
                      effective_channel, make_deployment, parse_config_file,
                      power_gains, random_matching, rate_report, read_results,
                      run_experiment, stream_rng, stream_rngs, sum_rate)
from pinchsim.activation import conventional_amplitudes, conventional_positions
from pinchsim.cli import PRESETS
from pinchsim import activation, harness, kernels, noma
from pinchsim.harness import SWEEP_PARAMS, apply_sweep_value, spec_to_dict
from pinchsim.scenario import SPEED_OF_LIGHT, waveguide_points

FAST = SystemConfig(n_users=2, k_antennas=2, l_positions=12, seed=3)


def test_sweep_values_inclusive():
    assert SweepSpec("pt_dbm", 20.0, 40.0, 5.0).values() == (20.0, 25.0, 30.0, 35.0, 40.0)
    assert SweepSpec("d1", 10.0, 30.0, 10.0).values() == (10.0, 20.0, 30.0)
    assert SweepSpec("kappa_db_per_m", 0.0, 0.3, 0.1).values() == (0.0, 0.1, 0.2, 0.30000000000000004)
    assert SweepSpec("d2", 4.0, 4.0, 1.0).values() == (4.0,)


def test_sweep_values_keep_endpoints_whatever_the_sign():
    assert SweepSpec("pt_dbm", -40.0, -20.0, 10.0).values() == (-40.0, -30.0, -20.0)
    assert SweepSpec("pt_dbm", -40.0, -20.0, 5.0).values() == (
        -40.0, -35.0, -30.0, -25.0, -20.0)
    assert SweepSpec("pt_dbm", -10.0, 10.0, 5.0).values() == (
        -10.0, -5.0, 0.0, 5.0, 10.0)
    assert SweepSpec("pt_dbm", -20.0, 0.0, 10.0).values() == (-20.0, -10.0, 0.0)
    assert SweepSpec("pt_dbm", -7.0, -7.0, 1.0).values() == (-7.0,)
    back = SweepSpec("pt_dbm", -0.3, 0.0, 0.1).values()
    assert len(back) == 4 and math.isclose(back[-1], 0.0, abs_tol=1e-12)
    # the step does not divide the range: stop is not reached, not exceeded
    assert SweepSpec("pt_dbm", -40.0, -21.0, 10.0).values() == (-40.0, -30.0)


def test_sweep_validation():
    with pytest.raises(ConfigError):
        SweepSpec("noise_dbm", 0.0, 1.0, 1.0)  # not sweepable
    with pytest.raises(ConfigError):
        SweepSpec("d1", 10.0, 5.0, 1.0)
    with pytest.raises(ConfigError):
        SweepSpec("d1", 5.0, 10.0, 0.0)
    for bad in ((math.nan, 10.0, 1.0), (5.0, math.inf, 1.0), (5.0, 10.0, math.inf)):
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("d1", *bad)
    # count parameters take integer grids only; step 2.5 used to run K=2, 4, 7
    # under the labels 2, 4.5, 7
    for param in ("n_users", "k_antennas", "l_positions"):
        for name, bad in (("start", (1.4, 4.0, 1.0)), ("stop", (2.0, 8.5, 2.0)),
                          ("step", (2.0, 8.0, 2.5))):
            with pytest.raises(ConfigError, match=f"{name} of {param}"):
                SweepSpec(param, *bad)
    assert SweepSpec("k_antennas", 2.0, 8.0, 2.0).values() == (2.0, 4.0, 6.0, 8.0)
    assert SweepSpec("d1", 10.0, 15.0, 2.5).values() == (10.0, 12.5, 15.0)


def test_apply_sweep_value_coerces_counts():
    cfg = apply_sweep_value(FAST, "k_antennas", 3.0)
    assert cfg.k_antennas == 3 and isinstance(cfg.k_antennas, int)
    assert apply_sweep_value(FAST, "pt_dbm", 25.0).pt_dbm == 25.0


def test_bad_power_sweep_value_is_a_config_error():
    for param, value in (("pt_dbm", 4000.0), ("pt_dbm", -4000.0)):
        with pytest.raises(ConfigError, match=f"^sweep value {param}={value}: "
                                              f"{param}={value} dBm"):
            apply_sweep_value(FAST, param, value)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(base=FAST, schemes=("bogus",))
    with pytest.raises(ConfigError):
        ExperimentSpec(base=FAST, schemes=("matching", "matching"))
    with pytest.raises(ConfigError):
        ExperimentSpec(base=FAST, trials=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(base=FAST, schemes=())
    big = SystemConfig(d1=30.0, n_users=2, k_antennas=20, l_positions=20)
    with pytest.raises(ConfigError):
        ExperimentSpec(base=big, schemes=("exhaustive",))  # 2^20-1 candidates


def test_budget_error_names_the_offending_sweep_value():
    # the sweep walks l_positions up; the error must say where it blew up
    base = SystemConfig(d1=30.0, n_users=2, k_antennas=16, l_positions=16)
    with pytest.raises(ConfigError, match="l_positions=22"):
        ExperimentSpec(base=base, schemes=("exhaustive",),
                       sweep=SweepSpec("l_positions", 16.0, 22.0, 2.0),
                       exhaustive_budget=2 ** 21)


def test_budget_error_is_the_same_for_runs_and_traces():
    # 78 candidates at L=12, K=2: both entry points name the count alike
    base = SystemConfig(n_users=2, k_antennas=2, l_positions=12)
    message = "^exhaustive search needs 78 candidates$"
    with pytest.raises(ConfigError, match=message):
        ExperimentSpec(base=base, schemes=("exhaustive",), exhaustive_budget=77)
    with pytest.raises(ConfigError, match=message):
        convergence_trace(ExperimentSpec(base=base, exhaustive_budget=77))


def test_matching_never_below_its_random_start():
    spec = ExperimentSpec(base=FAST, schemes=("random", "matching"), trials=8)
    rows = {r.scheme: r for r in run_experiment(spec)}
    assert rows["matching"].mean_sum_rate >= rows["random"].mean_sum_rate
    assert rows["matching"].trials == 8
    assert rows["matching"].mean_cycles >= 1.0
    assert rows["random"].mean_cycles is None


def test_row_matches_direct_recomputation():
    # one trial, random scheme: the row must equal a by-hand evaluation of
    # the same drop and the same initial matching
    spec = ExperimentSpec(base=FAST, schemes=("random",), trials=1)
    row = run_experiment(spec)[0]
    dep = make_deployment(FAST, stream_rng(FAST.seed, 0, 0))
    init = random_matching(FAST, dep, stream_rng(FAST.seed, 1, 0))
    report = sum_rate(init.active_positions(), dep, FAST,
                      PowerAllocation.equal(2))
    # rows are snapped to 9 significant digits for lossless CSV round trips
    assert math.isclose(row.mean_sum_rate, report.sum_rate, rel_tol=1e-8)
    assert math.isclose(row.mean_fairness, report.fairness, rel_tol=1e-8)
    assert row.mean_active_count == 2.0


def test_baselines_build_no_evaluator(monkeypatch):
    # random, distance and conventional query no amplitude matrix, so the
    # runner must not pay for one
    def refuse(*args, **kwargs):
        raise AssertionError("SetEvaluator built without a search scheme")

    spec = ExperimentSpec(base=FAST, schemes=("random", "distance", "conventional"),
                          trials=3, sweep=SweepSpec("pt_dbm", 20.0, 30.0, 10.0))
    monkeypatch.setattr("pinchsim.harness.SetEvaluator", refuse)
    rows = run_experiment(spec)
    assert [r.scheme for r in rows] == ["random", "distance", "conventional"] * 2
    # the patch does reach the runner: a search scheme trips it
    with pytest.raises(AssertionError, match="without a search"):
        run_experiment(ExperimentSpec(base=FAST, schemes=("matching",), trials=1))


def test_ratio_column_present_only_with_exhaustive():
    spec = ExperimentSpec(base=FAST, schemes=("matching", "exhaustive"), trials=4)
    rows = {r.scheme: r for r in run_experiment(spec)}
    assert rows["exhaustive"].mean_ratio_to_exhaustive == 1.0
    assert 0.0 < rows["matching"].mean_ratio_to_exhaustive <= 1.0
    solo = run_experiment(ExperimentSpec(base=FAST, schemes=("matching",), trials=2))
    assert solo[0].mean_ratio_to_exhaustive is None


def test_power_sweep_is_monotone_for_matching():
    spec = ExperimentSpec(base=FAST, schemes=("matching",), trials=40,
                          sweep=SweepSpec("pt_dbm", 20.0, 40.0, 5.0))
    rows = run_experiment(spec)
    assert [r.sweep_value for r in rows] == [20.0, 25.0, 30.0, 35.0, 40.0]
    rates = [r.mean_sum_rate for r in rows]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_drops_are_paired_across_sweep_values(caplog):
    spec = ExperimentSpec(base=FAST, schemes=("random",), trials=3,
                          sweep=SweepSpec("pt_dbm", 20.0, 30.0, 10.0))
    with caplog.at_level(logging.DEBUG, logger="pinchsim.harness"):
        run_experiment(spec)
    hashes = {}
    for record in caplog.records:
        if "drop=" not in record.message:
            continue
        parts = dict(kv.split("=") for kv in record.message.split())
        hashes.setdefault(parts["trial"], set()).add(parts["drop"])
    assert len(hashes) == 3
    for per_trial in hashes.values():
        assert len(per_trial) == 1  # same drop at both sweep values


REUSE_SWEEPS = {
    "pt_dbm": (20.0, 30.0, 10.0),
    "d1": (8.0, 10.0, 2.0),
    "d2": (4.0, 6.0, 2.0),
    "kappa_db_per_m": (0.0, 0.2, 0.2),
    "n_users": (2.0, 3.0, 1.0),
    "k_antennas": (1.0, 2.0, 1.0),
    "l_positions": (6.0, 8.0, 2.0),
}


@pytest.mark.parametrize("param", SWEEP_PARAMS)
def test_sweep_rows_equal_separate_runs(param):
    # objects shared across sweep values must change no row: each value's
    # rows equal those of a run at that configuration alone
    base = SystemConfig(d1=10.0, n_users=2, k_antennas=2, l_positions=8, seed=5)
    schemes = ("matching", "random", "distance", "exhaustive", "conventional")
    sweep = SweepSpec(param, *REUSE_SWEEPS[param])
    swept = run_experiment(ExperimentSpec(base=base, schemes=schemes,
                                          trials=3, sweep=sweep))
    separate = []
    for value in sweep.values():
        cfg = apply_sweep_value(base, param, value)
        separate += [replace(row, sweep_value=value) for row in run_experiment(
            ExperimentSpec(base=cfg, schemes=schemes, trials=3))]
    assert swept == separate


def _count_builds(monkeypatch) -> dict:
    """Patch the harness's drop and grid builders to count their calls, and
    the trials whose drops they draw."""
    built = {"drops": 0, "trials": 0, "grids": 0}
    amplitude_matrix = kernels.amplitude_matrix

    def drops(cfg, rngs):
        built["drops"] += 1
        built["trials"] += len(rngs)
        return make_deployment(cfg, rngs)

    def grids(*args, **kwargs):
        built["grids"] += 1
        return amplitude_matrix(*args, **kwargs)

    monkeypatch.setattr("pinchsim.harness.make_deployment", drops)
    monkeypatch.setattr("pinchsim.kernels.amplitude_matrix", grids)
    return built


def test_drops_and_amplitudes_built_once_per_shared_field_set(monkeypatch):
    # a block's drops are built in one call, drawing each trial's drop once,
    # and its grid matrices in another; a power sweep shares them across its
    # values, any other sweep rebuilds them at each value; 70 trials are two
    # blocks
    monkeypatch.setattr(harness, "BLOCK", 64)
    assert harness.BLOCK == 64
    built = _count_builds(monkeypatch)
    for param, start, stop, step, drops, trials, grids in (
            ("pt_dbm", 20.0, 40.0, 10.0, 2, 70, 2),        # nothing rebuilt
            ("kappa_db_per_m", 0.0, 0.2, 0.1, 6, 210, 6),  # rebuilt per value
            ("k_antennas", 1.0, 2.0, 1.0, 4, 140, 4),
            ("d1", 8.0, 12.0, 2.0, 6, 210, 6)):
        built.update(drops=0, trials=0, grids=0)
        run_experiment(ExperimentSpec(
            base=FAST, schemes=("matching", "distance"), trials=70,
            sweep=SweepSpec(param, start, stop, step)))
        assert (built["drops"], built["trials"], built["grids"]) == (
            drops, trials, grids), param


@pytest.mark.parametrize("preset, drops", [
    ("power", 1), ("area-length", 3), ("antenna-count", 4),
    ("convergence", 1)])
def test_each_preset_builds_its_drops_once_per_shared_block(preset, drops,
                                                            monkeypatch):
    # at its default trial count a preset's trials are one block: its drops
    # are built once for the values of a power sweep (or none), once per
    # value of any other sweep
    built = _count_builds(monkeypatch)
    spec = build_spec(PRESETS[preset])
    (convergence_trace if preset == "convergence" else run_experiment)(spec)
    assert (built["drops"], built["trials"]) == (drops, drops * spec.trials)


ALL_SCHEMES = ("matching", "random", "distance", "exhaustive", "conventional")
BLOCK_BASE = SystemConfig(n_users=2, k_antennas=2, l_positions=8, seed=11)
# sha256 of each result CSV, recorded before trials ran in blocks of 64:
# block boundaries and the sweep order change no byte
BLOCK_DIGESTS = {
    ("trials", 1): "0a893f04915ab1f0330f359c448caf1f39a09ca15dcf3873942e2f10c2850f90",
    ("trials", 63): "c84840ab6f52c44f674d7f8e65406086ac0080e96b86c67f94bfd69c8669557e",
    ("trials", 64): "00496f1826ff93c82f3870faff53847b650d30790d7014960c6206c7364d069d",
    ("trials", 65): "a662d9c59c63c8737c3899018c5bb438dc19760e9584bf0f678bfa0ec547d53e",
    ("trials", 129): "5f05d2afebd5dccb1f201019d94de29b547f5960af1de6a0fab0efffaf977d1c",
    ("pt_dbm", 70): "817d53f4f9504b72a82d5062c26d033839fa8229dfb7cae63cecdbb80efe205f",
    ("d1", 70): "7130cee9cca7c4be0bbc234cf879b77eeef84d32d05721f2555266c92fdf69d4",
}
# sha256 of a `baselines`-shaped sweep at a seed of two 32-bit words, 70
# trials (two blocks), recorded while each trial's streams were seeded one
# numpy SeedSequence at a time:
#   pinchsim sweep --schemes random,distance,conventional --n-users 8
#     --k-antennas 8 --l-positions 60 --d1 30 --sweep-param pt_dbm
#     --sweep-from 20 --sweep-to 40 --sweep-step 10
#     --seed 18446744073709551615 --trials 70
TWO_WORD_SEED_DIGEST = (
    "0ad2e65c5a526d08592b20d5d48763563ee1e45ed9cd0eb733c35f1bcf84912a")
BLOCK_SWEEPS = {"trials": None, "pt_dbm": SweepSpec("pt_dbm", 20.0, 30.0, 10.0),
                "d1": SweepSpec("d1", 8.0, 12.0, 2.0)}


@pytest.mark.parametrize("case", BLOCK_DIGESTS)
def test_block_boundaries_change_no_byte(case, tmp_path, monkeypatch):
    kind, trials = case
    out = tmp_path / "r.csv"
    for size in (64, harness.BLOCK):
        monkeypatch.setattr(harness, "BLOCK", size)
        run_experiment(ExperimentSpec(base=BLOCK_BASE, schemes=ALL_SCHEMES,
                                      trials=trials, sweep=BLOCK_SWEEPS[kind],
                                      output_path=out))
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == BLOCK_DIGESTS[case])


def test_a_two_word_seed_run_changes_no_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 64)
    out = tmp_path / "r.csv"
    run_experiment(ExperimentSpec(
        base=SystemConfig(d1=30.0, n_users=8, k_antennas=8, l_positions=60,
                          seed=2**64 - 1),
        schemes=("random", "distance", "conventional"), trials=70,
        sweep=SweepSpec("pt_dbm", 20.0, 40.0, 10.0), output_path=out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TWO_WORD_SEED_DIGEST


def test_block_terms_equal_per_trial_calls_exactly(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 64)
    cfg = SystemConfig(d1=30.0, n_users=8, k_antennas=8, l_positions=60, seed=4)
    assert harness._blocks(70) == [range(0, 64), range(64, 70)]
    block = harness._block((cfg,), range(64, 70), ALL_SCHEMES)
    assert block.trials == range(64, 70)
    block_dep = block.deployment
    assert block_dep.users.shape == (6, 8, 3)
    # random and conventional are one group each, of all the block's trials
    (everyone, random_terms), = block.terms["random"]
    assert everyone == slice(None)
    (everyone, conventional_terms), = block.terms["conventional"]
    assert everyone == slice(None)
    distance = {i: (terms, j) for idx, terms in block.terms["distance"]
                for j, i in enumerate(idx)}
    assert sorted(distance) == list(range(6))
    for i, trial in enumerate(block.trials):
        dep = make_deployment(cfg, stream_rng(cfg.seed, 0, trial))
        assert block_dep.users[i].tolist() == dep.users.tolist()
        for f in dataclasses.fields(Deployment):
            if f.name != "users":
                assert (np.asarray(getattr(block_dep, f.name)).tolist()
                        == np.asarray(getattr(dep, f.name)).tolist())
        initial = block.initial[i]
        assert initial == random_matching(
            cfg, dep, stream_rng(cfg.seed, 1, trial))
        assert (block.grid[i].tolist()
                == kernels.amplitude_matrix(cfg, dep).tolist())
        # random's terms are at the start's sorted active positions
        points = dep.positions[list(initial.active_positions())]
        assert (random_terms[i].tolist()
                == amplitudes(cfg, dep.users, points, dep.feed).tolist())
        placement = distance_based_activation(cfg, dep)
        terms, j = distance[i]
        assert (terms[j].tolist()
                == amplitudes(cfg, dep.users, placement, dep.feed).tolist())
        assert (conventional_terms[i].tolist()
                == conventional_amplitudes(cfg, dep.users).tolist())
        for trial_terms in (block.grid[i], random_terms[i], terms[j],
                            conventional_terms[i]):
            assert trial_terms.flags.f_contiguous  # users fastest, as per trial
    # coinciding users collapse a placement: that trial is batched apart
    cfg = SystemConfig(n_users=2, k_antennas=2)
    grid = make_deployment(cfg, stream_rng(1, 0, 0))
    users = np.array([((2.0, 1.0, 0.0), (7.0, -1.0, 0.0)),
                      ((4.0, 1.0, 0.0), (4.0, -2.0, 0.0)),
                      ((9.0, 0.5, 0.0), (1.0, 2.0, 0.0))])
    drops = [Deployment(users=u, positions=grid.positions, feed=grid.feed)
             for u in users]
    block_dep = Deployment(users=users, positions=grid.positions,
                           feed=grid.feed)
    placements = distance_based_activation(cfg, block_dep)
    assert [p.tolist() for p in placements] == [
        distance_based_activation(cfg, d).tolist() for d in drops]
    assert [len(p) for p in placements] == [2, 1, 2]
    groups = harness.BASELINES["distance"](cfg, block_dep, None)
    assert [idx for idx, _ in groups] == [[0, 2], [1]]
    for idx, terms in groups:
        assert terms.shape == (len(idx), 2, len(placements[idx[0]]))
        for i, got in zip(idx, terms):
            d, p = drops[i], placements[i]
            assert got.tolist() == amplitudes(cfg, d.users, p, d.feed).tolist()
    block = conventional_amplitudes(cfg, users)
    assert block.shape == (3, 2, len(conventional_positions(cfg)))
    for d, got in zip(drops, block):
        assert got.tolist() == conventional_amplitudes(cfg, d.users).tolist()


def _count_calls(monkeypatch, module, name: str) -> list:
    """Patch `module.name` to log the arguments of each call, then make it;
    return the log."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_block_placements_come_from_one_waveguide_points_call(monkeypatch):
    # a block whose paired users all have distinct x places every drop in one
    # (T, S, 3) call; a drop whose users share an x adds one call of its own
    calls = _count_calls(monkeypatch, activation, "waveguide_points")
    cfg = SystemConfig(d1=30.0, n_users=8, k_antennas=8, l_positions=60, seed=4)
    block_dep = make_deployment(cfg, stream_rngs(cfg.seed, 0, range(40)))
    placements = distance_based_activation(cfg, block_dep)
    assert len(calls) == 1
    for i, placement in enumerate(placements):
        dep = Deployment(users=block_dep.users[i],
                         positions=block_dep.positions, feed=block_dep.feed)
        assert (placement.tolist()
                == distance_based_activation(cfg, dep).tolist())
    calls.clear()
    cfg = SystemConfig(n_users=2, k_antennas=2)
    grid = make_deployment(cfg, stream_rng(1, 0, 0))
    users = np.array([((2.0, 1.0, 0.0), (7.0, -1.0, 0.0)),
                      ((4.0, 1.0, 0.0), (4.0, -2.0, 0.0)),
                      ((9.0, 0.5, 0.0), (1.0, 2.0, 0.0))])
    distance_based_activation(cfg, Deployment(
        users=users, positions=grid.positions, feed=grid.feed))
    assert len(calls) == 2
    # the points of a (T, M) array of x-coordinates are each row's
    xs = block_dep.users[:, :5, 0]
    block = waveguide_points(xs, 3.0)
    assert block.shape == (40, 5, 3)
    for row, got in zip(xs, block):
        assert got.tolist() == waveguide_points(row.tolist(), 3.0).tolist()


def test_a_trial_scans_from_one_matching_at_every_shared_power(monkeypatch):
    # a shared block builds each trial's start once, for all its powers
    calls = _count_calls(monkeypatch, harness, "matching_activation")
    run_experiment(ExperimentSpec(
        base=FAST, schemes=("matching", "random"), trials=6,
        sweep=SweepSpec("pt_dbm", 20.0, 30.0, 5.0)))
    starts = [initial for _, initial in calls]
    assert len(starts) == 3 * 6
    for i in range(6):
        assert starts[i] is starts[6 + i] is starts[12 + i]
        assert starts[i] == random_matching(
            FAST, make_deployment(FAST, stream_rng(FAST.seed, 0, i)),
            stream_rng(FAST.seed, 1, i))


def test_a_random_only_block_draws_its_starts_in_one_call(monkeypatch):
    calls = _count_calls(monkeypatch, harness, "random_matching")
    block = harness._block((FAST,), range(5, 25), ("random", "distance"))
    assert block.initial is None
    assert len(calls) == 1
    (_, terms), = block.terms["random"]
    dep = block.deployment
    for i, trial in enumerate(block.trials):
        one = random_matching(FAST, dep, stream_rng(FAST.seed, 1, trial))
        points = dep.positions[list(one.active_positions())]
        assert (terms[i].tolist()
                == amplitudes(FAST, dep.users[i], points, dep.feed).tolist())


def test_at_most_one_block_of_drops_is_alive(monkeypatch):
    # one deployment per block, and the last one is released before the next
    # is built: the live deployments never hold more than BLOCK drops
    monkeypatch.setattr(harness, "BLOCK", 64)
    live = weakref.WeakSet()
    most = []

    def tracked(*args, **kwargs):
        deployment = make_deployment(*args, **kwargs)
        live.add(deployment)
        most.append((len(live), sum(len(d.users) for d in live)))
        return deployment

    monkeypatch.setattr("pinchsim.harness.make_deployment", tracked)
    run_experiment(ExperimentSpec(base=BLOCK_BASE, schemes=ALL_SCHEMES,
                                  trials=129,
                                  sweep=SweepSpec("d1", 8.0, 10.0, 2.0)))
    assert len(most) == 2 * 3  # 2 sweep values x 3 blocks
    assert max(most) == (1, harness.BLOCK) == (1, 64)
    assert sum(drops for _, drops in most) == 2 * 129
    most.clear()
    convergence_trace(ExperimentSpec(base=BLOCK_BASE, trials=129))
    assert most == [(1, 64), (1, 64), (1, 1)]

def test_csv_round_trip_and_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ExperimentSpec(base=FAST, schemes=("matching", "random"), trials=5,
                          sweep=SweepSpec("pt_dbm", 25.0, 30.0, 5.0))
    rows_a = run_experiment(ExperimentSpec(base=FAST, schemes=base.schemes,
                                           trials=5, sweep=base.sweep,
                                           output_path=out_a))
    rows_b = run_experiment(ExperimentSpec(base=FAST, schemes=base.schemes,
                                           trials=5, sweep=base.sweep,
                                           output_path=out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    assert read_results(out_a) == rows_a == rows_b
    sidecar = json.loads((tmp_path / "a.spec.json").read_text())
    assert sidecar == spec_to_dict(ExperimentSpec(base=FAST, schemes=base.schemes,
                                                  trials=5, sweep=base.sweep,
                                                  output_path=out_a))
    assert sidecar["base"]["pt_dbm"] == 30.0
    assert sidecar["sweep"]["param"] == "pt_dbm"


def test_read_results_rejects_foreign_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_results(bad)


GOOD_ROW = "20,matching,1.5,0.9,2,1.25,,3\n"


@pytest.mark.parametrize("line, error", [
    ("20,matching,1.5,0.9,2,1.25,\n", "expected 8 fields, got 7"),
    ("20,matching,1.5,0.9,2,1.25,,3,9\n", "expected 8 fields, got 9"),
    ("20,matching,fast,0.9,2,1.25,,3\n", "mean_sum_rate must be a number, got 'fast'"),
    ("20,matching,1.5,0.9,2,1.25,,3.0\n", "trials must be an integer, got '3.0'"),
    ("20,matching,,0.9,2,1.25,,3\n", "mean_sum_rate must be a number, got ''"),
    ("20,matching,nan,0.9,2,1.25,,3\n", "mean_sum_rate must be finite, got 'nan'"),
    ("20,matching,1.5,0.9,2,inf,,3\n", "mean_cycles must be finite, got 'inf'"),
    ("-Infinity,matching,1.5,0.9,2,1.25,,3\n",
     "sweep_value must be finite, got '-Infinity'"),
], ids=["short", "long", "text", "fraction", "blank", "nan", "inf", "-inf"])
def test_read_results_names_the_line_of_a_malformed_row(tmp_path, line, error):
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(harness.RESULT_FIELDS) + "\n" + GOOD_ROW + line)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{bad}:3: {error}')}$"):
        read_results(bad)
    bad.write_text(",".join(harness.RESULT_FIELDS) + "\n" + GOOD_ROW)
    assert read_results(bad)[0].mean_ratio_to_exhaustive is None


def test_read_results_rejects_an_empty_file(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError, match="unexpected header"):
        read_results(empty)


def test_convergence_trace_shape():
    spec = ExperimentSpec(base=FAST, trials=6)
    rows = convergence_trace(spec)
    by_trial = {}
    for r in rows:
        by_trial.setdefault(r.trial, []).append(r)
    assert set(by_trial) == set(range(6))
    for trial_rows in by_trial.values():
        assert [r.step for r in trial_rows] == list(range(len(trial_rows)))
        ratios = [r.ratio for r in trial_rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert all(0.0 < r.ratio <= 1.0 for r in trial_rows)
        assert trial_rows[0].cycle == 0
        assert math.isclose(trial_rows[0].ratio,
                            trial_rows[0].utility / trial_rows[0].optimum,
                            rel_tol=1e-6)


def test_convergence_trace_shares_the_trial_setup(monkeypatch):
    # each trial's trace starts from the drop and random matching that
    # run_experiment scores, and draws each of them once; the drops and the
    # grid matrices are built once per block of trials
    monkeypatch.setattr(harness, "BLOCK", 64)
    built = _count_builds(monkeypatch)
    rows = convergence_trace(ExperimentSpec(base=FAST, trials=66))
    assert (built["drops"], built["trials"], built["grids"]) == (2, 66, 2)
    starts = [r.utility for r in rows if r.step == 0]
    assert len(starts) == 66
    random_row = run_experiment(ExperimentSpec(base=FAST, schemes=("random",),
                                               trials=66))[0]
    assert math.isclose(sum(starts) / 66, random_row.mean_sum_rate,
                        rel_tol=1e-8)


def test_run_and_trace_agree_trial_for_trial(monkeypatch):
    # over two blocks, each trial's optimum and last matching state in the
    # trace are the exhaustive and matching results the run averages; trace
    # rows store 9 digits, hence the tolerance
    monkeypatch.setattr(harness, "BLOCK", 64)
    rows = convergence_trace(ExperimentSpec(base=FAST, trials=66))
    last = {r.trial: r for r in rows}
    optimum = {r.trial: r.optimum for r in rows if r.step == 0}
    assert sorted(last) == sorted(optimum) == list(range(66))
    run = {r.scheme: r for r in run_experiment(ExperimentSpec(
        base=FAST, schemes=("matching", "exhaustive"), trials=66))}
    for got, want in (
            (sum(optimum.values()), run["exhaustive"].mean_sum_rate),
            (sum(r.utility for r in last.values()),
             run["matching"].mean_sum_rate),
            (sum(r.ratio for r in last.values()),
             run["matching"].mean_ratio_to_exhaustive)):
        assert math.isclose(got / 66, want, rel_tol=1e-8)


def test_convergence_rejects_sweeps():
    spec = ExperimentSpec(base=FAST, trials=2,
                          sweep=SweepSpec("pt_dbm", 20.0, 25.0, 5.0))
    with pytest.raises(ConfigError):
        convergence_trace(spec)


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "# power study\n"
        "d1 = 10\n"
        "n_users = 2        # N\n"
        "k_antennas = 2\n"
        "l_positions = 12\n"
        "trials = 7\n"
        "schemes = matching, random\n"
        "sweep_param = pt_dbm\n"
        "sweep_from = 20\n"
        "sweep_to = 30\n"
        "sweep_step = 5\n")
    entries = parse_config_file(cfg_file)
    assert entries["schemes"] == "matching, random"
    spec = build_spec(entries)
    assert spec.base.l_positions == 12
    assert spec.trials == 7
    assert spec.schemes == ("matching", "random")
    assert spec.sweep.values() == (20.0, 25.0, 30.0)


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    bad.write_text("not_a_key = 3\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


def test_exhaustive_budget_key_round_trips_into_the_sidecar(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("l_positions = 12\nschemes = exhaustive\n"
                        "exhaustive_budget = 2500\ntrials = 1\n")
    out = tmp_path / "r.csv"
    spec = build_spec({**parse_config_file(cfg_file), "output_path": str(out)})
    assert spec.exhaustive_budget == 2500
    run_experiment(spec)
    sidecar = json.loads((tmp_path / "r.spec.json").read_text())
    assert sidecar["exhaustive_budget"] == 2500
    assert build_spec({}).exhaustive_budget == 10 ** 6
    for bad in ("many", "2.5", "1e6"):
        with pytest.raises(ConfigError, match="exhaustive_budget"):
            build_spec({"exhaustive_budget": bad})
    for bad in ("0", "-3"):
        with pytest.raises(ConfigError, match="exhaustive_budget"):
            build_spec({"exhaustive_budget": bad})


def test_build_spec_errors():
    with pytest.raises(ConfigError):
        build_spec({"sweep_param": "pt_dbm"})  # incomplete sweep block
    with pytest.raises(ConfigError):
        build_spec({"trials": "many"})
    with pytest.raises(ConfigError):
        build_spec({"n_users": "0"})
    spec = build_spec({})
    assert spec.base == SystemConfig()
    assert spec.schemes == ("matching",)


NUMERIC_KEYS = [(key, "2.0" if key in harness.COUNT_PARAMS + ("seed",)
                 else "a") for key in harness.config_field_names()] + [
    ("trials", "2.0"), ("exhaustive_budget", "2.0"),
    ("sweep_from", "a"), ("sweep_to", "a"), ("sweep_step", "a")]


@pytest.mark.parametrize("key, text", NUMERIC_KEYS)
def test_unparseable_number_names_its_key(key, text):
    entries = {"sweep_param": "pt_dbm", "sweep_from": "20", "sweep_to": "30",
               "sweep_step": "5", key: text}
    what = "an integer" if text == "2.0" else "a number"
    with pytest.raises(ConfigError, match=f"^{key} must be {what}, got '{text}'$"):
        build_spec(entries)


@st.composite
def _valid_entries(draw):
    """String entries that `build_spec` accepts, as a config file or the
    flags give them; each key present or left to its default.  Floats are
    printed by `repr`, so each parses back to the same float."""
    def real(lo, hi):
        return repr(draw(st.floats(lo, hi)))

    l_positions = draw(st.integers(2, 40))
    carrier = draw(st.floats(1e9, 1e11))
    # spacing at least half a wavelength, as SystemConfig requires
    d1 = (l_positions - 1) * SPEED_OF_LIGHT / carrier / 2 * draw(
        st.floats(1.01, 100.0))
    schemes = draw(st.lists(st.sampled_from(harness.SCHEMES), min_size=1,
                            unique=True))
    k_antennas = draw(st.integers(1, min(l_positions, 4)))
    count = harness.candidate_count(l_positions, k_antennas)
    entries = {
        "d1": repr(d1), "d2": real(0.1, 100.0), "height": real(0.1, 50.0),
        "carrier_hz": repr(carrier), "n_eff": real(1.0, 4.0),
        "kappa_db_per_m": real(0.0, 2.0), "pt_dbm": real(-50.0, 60.0),
        "noise_dbm": real(-150.0, -50.0),
        "n_users": str(draw(st.integers(1, 8))),
        "k_antennas": str(k_antennas), "l_positions": str(l_positions),
        "seed": str(draw(st.integers(0, 2 ** 64 - 1))),
        "trials": str(draw(st.integers(1, 10 ** 6))),
        "schemes": ",".join(schemes),
        "output_path": draw(st.sampled_from(["out.csv", "runs/a b.csv"])),
        "exhaustive_budget": str(draw(st.integers(count, 10 ** 7))),
    }
    # the keys that SystemConfig checks together stay in or out together
    together = ("d1", "carrier_hz", "k_antennas", "l_positions")
    kept = {key: text for key, text in entries.items()
            if key in together or draw(st.booleans())}
    if not draw(st.booleans()):
        kept = {key: text for key, text in kept.items()
                if key not in together}
        if "exhaustive" in schemes:
            kept["exhaustive_budget"] = str(10 ** 6)
    if draw(st.booleans()):
        start = draw(st.floats(0.1, 50.0))
        kept |= {"sweep_param": draw(st.sampled_from(
                     ["pt_dbm", "d2", "kappa_db_per_m"])),
                 "sweep_from": repr(start),
                 "sweep_to": repr(start + draw(st.floats(0.0, 10.0))),
                 "sweep_step": real(0.5, 5.0)}
    return kept


def _entries_of(spec_dict: dict) -> dict[str, str]:
    """A `spec_to_dict` dict as the string entries that built it: every key
    that has a value, printed as its entry is."""
    flat = {**spec_dict["base"], "schemes": ",".join(spec_dict["schemes"])}
    flat |= {key: spec_dict[key] for key in ("trials", "output_path",
                                             "exhaustive_budget")}
    if spec_dict["sweep"] is not None:
        sweep = spec_dict["sweep"]
        flat |= {"sweep_param": sweep["param"], "sweep_from": sweep["start"],
                 "sweep_to": sweep["stop"], "sweep_step": sweep["step"]}
    return {key: repr(value) if isinstance(value, float) else str(value)
            for key, value in flat.items() if value is not None}


@settings(max_examples=100, deadline=None)
@given(_valid_entries())
def test_spec_entries_come_back_unchanged_from_spec_to_dict(entries):
    spec = build_spec(entries)
    back = _entries_of(spec_to_dict(spec))
    assert {key: back[key] for key in entries} == entries
    # the keys left out come back as their defaults, and every entry
    # together builds the same spec again
    defaults = _entries_of(spec_to_dict(build_spec({})))
    assert all(back[key] == defaults[key] for key in defaults
               if key not in entries)
    assert build_spec(back) == spec


# How a config file may write one entry, and the lines it may hold between
# entries.
_LINE_FORMATS = ("{key}={value}", "{key} = {value}", "  {key}\t=  {value}  ",
                 "{key} = {value}  # a note = 3", "{key}={value}#")
_FILLER_LINES = ("", "   ", "# a comment", "\t# key = value", "#")


@st.composite
def _config_file_text(draw, entries: dict[str, str]) -> str:
    """`entries` as a config file writes them: `key = value` lines in any
    order and spacing, some with trailing comments, mixed with comment and
    blank lines."""
    lines = [draw(st.sampled_from(_LINE_FORMATS)).format(key=key, value=value)
             for key, value in draw(st.permutations(list(entries.items())))]
    for at, filler in draw(st.lists(st.tuples(
            st.integers(0, len(lines)), st.sampled_from(_FILLER_LINES)),
            max_size=4)):
        lines.insert(at, filler)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_config_file_entries_come_back_unchanged_from_parse_config_file(
        tmp_path_factory, data):
    entries = data.draw(_valid_entries())
    # one file, rewritten by each example
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text(data.draw(_config_file_text(entries)))
    parsed = parse_config_file(path)
    assert parsed == entries
    assert build_spec(parsed) == build_spec(entries)


@settings(max_examples=300, deadline=None)
@given(st.integers(-5000, 5000), st.integers(1, 500), st.integers(0, 100),
       st.integers(0, 4))
def test_sweep_values_keep_both_endpoints_whatever_the_signs(a, b, m, digits):
    # a decimal grid as a user writes it: start a/10^d, step b/10^d and
    # stop (a + m*b)/10^d, which start + m*step may miss by a rounding
    scale = 10 ** digits
    sweep = SweepSpec("pt_dbm", a / scale, (a + m * b) / scale, b / scale)
    values = sweep.values()
    assert len(values) == m + 1
    assert values[0] == sweep.start
    assert math.isclose(values[-1], sweep.stop, rel_tol=0.0,
                        abs_tol=1e-12 * max(abs(sweep.stop), 1.0))


NUMBER_KEYS = [key for key in harness.SPEC_KEYS
               if key not in ("schemes", "output_path", "sweep_param")]


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NUMBER_KEYS), st.text().filter(_not_a_number))
def test_a_non_numeric_value_is_a_config_error_naming_its_key(key, text):
    entries = {"sweep_param": "pt_dbm", "sweep_from": "20", "sweep_to": "30",
               "sweep_step": "5", key: text}
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        build_spec(entries)


def test_block_gains_and_reports_equal_per_trial_calls():
    cfg = SystemConfig(d1=30.0, n_users=8, k_antennas=8, l_positions=60, seed=4)
    block = harness._block((cfg,), range(0, 70), ALL_SCHEMES)
    alloc = PowerAllocation.equal(cfg.n_users)
    pt = dbm_to_watts(cfg.pt_dbm)
    terms = [t for s in ("random", "conventional", "distance")
             for _, t in block.terms[s]]
    for batch in terms:
        gains = power_gains(batch, pt)
        assert gains.shape == batch.shape[:2]
        for got, trial_terms in zip(gains, batch):
            assert got.tolist() == power_gains(trial_terms, pt).tolist()
    conventional, conventional_active = harness._size_report(
        block.terms["conventional"], block.deployment, cfg, alloc)
    random, random_active = harness._size_report(
        block.terms["random"], block.deployment, cfg, alloc)
    assert len(block.trials) == len(random.sum_rate) == 70
    assert len(conventional.sum_rate) == 70
    assert (random_active.tolist() == conventional_active.tolist()
            == [cfg.k_antennas] * 70)
    for i, trial in enumerate(block.trials):
        dep = make_deployment(cfg, stream_rng(cfg.seed, 0, trial))
        one = conventional_baseline(cfg, dep.users, alloc)
        assert conventional.sum_rate[i] == one.sum_rate
        assert conventional.fairness[i] == one.fairness
        assert conventional.rates[i].tolist() == one.rates.tolist()
        one = sum_rate(block.initial[i].active_positions(), dep, cfg, alloc)
        assert random.sum_rate[i] == one.sum_rate
        assert random.fairness[i] == one.fairness
        assert random.rates[i].tolist() == one.rates.tolist()


def test_every_scheme_reports_through_one_size_report(monkeypatch):
    # one `_size_report` per (block, sweep value, scheme), and no other
    # report path
    monkeypatch.setattr(harness, "BLOCK", 64)
    reports = _count_calls(monkeypatch, harness, "_size_report")
    others = [_count_calls(monkeypatch, harness, name)
              for name in ("sum_rate", "conventional_baseline")]
    run_experiment(ExperimentSpec(base=FAST, schemes=ALL_SCHEMES, trials=70,
                                  sweep=SweepSpec("pt_dbm", 20.0, 30.0, 10.0)))
    cells = [(len(deployment.users), cfg.pt_dbm)
             for _, deployment, cfg, _ in reports]
    assert sorted(cells) == sorted(
        [(t, p) for t in (64, 6) for p in (20.0, 30.0)] * len(ALL_SCHEMES))
    assert others == [[], []]


@pytest.mark.parametrize("k", [6, 8])
def test_size_report_equals_per_trial_reports(k):
    # the antenna-count geometry, where the scan deactivates antennas: the
    # found sets of one block differ in size, and each size is one gather
    entries = {key: v for key, v in PRESETS["antenna-count"].items()
               if not key.startswith("sweep_")}
    cfg = replace(build_spec(entries).base, k_antennas=k)
    alloc = PowerAllocation.equal(cfg.n_users)
    block = harness._block((cfg,), range(0, 40), ("matching",))
    found = [f["matching"] for _, f, _, _ in harness._search_block(
        block, 0, None, cfg, ("matching",), 10 ** 6)]
    assert len({len(f) for f in found}) > 1
    found[3] = ()  # no search finds the empty set; the report still takes it
    terms = harness._by_size(found, lambda idx, sel: harness._found_terms(
        block.grid, idx, sel))
    assert sorted(i for idx, _ in terms for i in idx) == [
        i for i, f in enumerate(found) if f]
    report, active = harness._size_report(terms, block.deployment, cfg, alloc)
    noise = dbm_to_watts(cfg.noise_dbm)
    for i, (trial, positions) in enumerate(zip(block.trials, found)):
        dep = make_deployment(cfg, stream_rng(cfg.seed, 0, trial))
        one = rate_report(effective_channel(positions, dep, cfg), alloc, noise)
        assert report.gains[i].tolist() == one.gains.tolist()
        assert report.rates[i].tolist() == one.rates.tolist()
        assert report.sum_rate[i] == one.sum_rate
        assert report.fairness[i] == one.fairness
        assert active[i] == len(positions)
    assert report.gains[3].tolist() == [0.0] * cfg.n_users
    assert active[3] == 0 and report.sum_rate[3] == 0.0


def test_one_report_per_block_scheme_and_sweep_value(monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", 64)
    reports = []

    def counted(original):
        def report(gains, alloc, noise_watts):
            reports.append(np.shape(gains))
            return original(gains, alloc, noise_watts)
        return report

    for module in (harness, noma, activation):
        monkeypatch.setattr(module, "rate_report",
                            counted(module.rate_report))
    spec = ExperimentSpec(base=FAST, schemes=ALL_SCHEMES, trials=70,
                          sweep=SweepSpec("pt_dbm", 20.0, 30.0, 10.0))
    run_experiment(spec)
    # 2 blocks x 2 sweep values x 5 schemes, each of its block's trials
    assert sorted(reports) == sorted([(64, 2)] * 10 + [(6, 2)] * 10)


def test_zero_exhaustive_rate_fails_loudly():
    # at -3000 dBm every rate rounds to 0, so no ratio to exhaustive exists
    spec = ExperimentSpec(base=dataclasses.replace(FAST, pt_dbm=-3000.0),
                          schemes=("exhaustive", "matching", "random"),
                          trials=2)
    with pytest.raises(ValueError, match=r"^exhaustive sum rate is 0 at "
                                         r"-3000\.0 dBm .*\(trial 0\)"):
        run_experiment(spec)
    # without the exhaustive scheme the run stops too, naming the power
    spec = dataclasses.replace(spec, schemes=("random",))
    with pytest.raises(ValueError, match=r"^every trial of every scheme rates "
                                         r"0 at pt_dbm=-3000\.0 dBm"):
        run_experiment(spec)


def test_a_power_at_which_every_rate_is_0_stops_by_name():
    # at -3000 dBm the run once wrote sum rate 0 and fairness 1 for every
    # scheme but the exhaustive one
    low = dataclasses.replace(FAST, pt_dbm=-3000.0)
    for scheme in ("matching", "random", "distance", "conventional"):
        with pytest.raises(ValueError, match=r"rates 0 at pt_dbm=-3000\.0 "):
            run_experiment(ExperimentSpec(base=low, schemes=(scheme,),
                                          trials=70))
    # in a sweep, the value at which everything rates 0 is the one named,
    # whatever the swept parameter
    sweeps = [(FAST, SweepSpec("pt_dbm", -3000.0, 30.0, 3030.0), -3000.0),
              (low, SweepSpec("d1", 10.0, 20.0, 10.0), -3000.0)]
    for base, sweep, named in sweeps:
        spec = ExperimentSpec(base=base, schemes=("matching", "random"),
                              trials=3, sweep=sweep)
        with pytest.raises(ValueError, match=rf"at pt_dbm={named} dBm"):
            run_experiment(spec)
    # a trace stops by name too, not with a ZeroDivisionError
    with pytest.raises(ValueError, match=r"^exhaustive sum rate is 0 at "
                                         r"-3000\.0 dBm .*\(trial 0\)"):
        convergence_trace(ExperimentSpec(base=low, trials=2))
    # a scheme that rates 0 beside one that does not is reported as it is
    rows = run_experiment(ExperimentSpec(base=FAST, trials=3,
                                         schemes=("matching", "random")))
    assert all(row.mean_sum_rate > 0 for row in rows)


def test_an_output_path_that_is_a_directory_is_refused(tmp_path,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path, Path(""), Path(".")):
        with pytest.raises(ConfigError, match=r"^output_path .* is a "
                                              r"directory: name a file$"):
            ExperimentSpec(base=FAST, trials=2, output_path=path)
    spec = ExperimentSpec(base=FAST, trials=2, output_path=tmp_path / "r.csv")
    with pytest.raises(ConfigError, match="^output_path"):
        replace(spec, output_path=tmp_path)
    # so is a directory where the writer puts the sidecar
    sidecar = harness.write_spec_sidecar(spec.output_path, spec)
    sidecar.unlink()
    sidecar.mkdir()
    for path in (tmp_path / "r.csv", Path("r.csv"), Path("r")):
        with pytest.raises(ConfigError, match=r"^output_path .* has its "
                                              r"sidecar .*r\.spec\.json' at "
                                              r"a directory$"):
            replace(spec, output_path=path)
    sidecar.rmdir()
    # a file where a directory of the path is to be
    (tmp_path / "f").write_text("")
    for path in (tmp_path / "f" / "r.csv", Path("f/a/r.csv")):
        with pytest.raises(ConfigError, match=r"^output_path .* lies under "
                                              r"the file .*f'$"):
            ExperimentSpec(base=FAST, trials=2, output_path=path)
    # directories still to be made are fine; the writer makes them
    spec = ExperimentSpec(base=FAST, trials=2, schemes=("random",),
                          output_path=Path("new/dirs/r.csv"))
    run_experiment(spec)
    assert (tmp_path / "new" / "dirs" / "r.spec.json").is_file()
