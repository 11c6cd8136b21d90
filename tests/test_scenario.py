"""Geometry, RF derivations, unit conversion, and drop sampling."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (Deployment, ExperimentSpec, SweepSpec, SystemConfig,
                      build_positions, dbm_to_watts, derived_rf, feed_point,
                      make_deployment, sample_users, stream_rng)
from pinchsim.harness import spec_to_dict
from pinchsim.scenario import waveguide_points

NO_USERS = np.empty((0, 3))


def test_derived_rf_at_28ghz():
    lam, lam_g, eta = derived_rf(SystemConfig())
    assert lam == 0.0107068735
    assert math.isclose(lam_g, 0.0076477667857142865, rel_tol=1e-15)
    assert math.isclose(eta, 0.0008520259212923112, rel_tol=1e-15)
    assert lam_g == lam / 1.4
    assert math.isclose(eta, lam / (4 * math.pi), rel_tol=1e-15)


def test_position_grid_endpoints():
    cfg = SystemConfig(d1=10.0, l_positions=2)
    pos = build_positions(cfg)
    assert pos[:, 0].tolist() == [0.0, 10.0]
    assert (pos[:, 1] == 0.0).all() and (pos[:, 2] == cfg.height).all()


def test_position_grid_six():
    pos = build_positions(SystemConfig(d1=10.0, l_positions=6))
    assert pos[:, 0].tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def test_position_grid_spacing_20():
    pos = build_positions(SystemConfig(d1=10.0, l_positions=20))
    assert len(pos) == 20
    assert pos[1, 0] == 10.0 / 19.0
    for d in np.diff(pos[:, 0]):
        assert math.isclose(d, 10.0 / 19.0, rel_tol=1e-12)
    assert pos[-1, 0] == 10.0


def test_feed_sits_at_x0():
    cfg = SystemConfig(height=3.0)
    assert feed_point(cfg).tolist() == [0.0, 0.0, 3.0]


def test_sampling_is_deterministic():
    cfg = SystemConfig(n_users=4)
    a = sample_users(cfg, stream_rng(9, 0, 3))
    b = sample_users(cfg, stream_rng(9, 0, 3))
    assert a.shape == (4, 3) and a.tolist() == b.tolist()
    c = sample_users(cfg, stream_rng(9, 0, 4))
    assert a.tolist() != c.tolist()


def test_sampling_mean_and_support():
    cfg = SystemConfig(d1=10.0, d2=6.0, n_users=100000)
    users = sample_users(cfg, stream_rng(0, 0, 0))
    xs, ys, zs = users.T
    assert 4.9 <= xs.mean() <= 5.1
    assert xs.min() >= 0.0 and xs.max() <= 10.0
    assert ys.min() >= -3.0 and ys.max() <= 3.0
    assert (zs == 0.0).all()


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == 1.0
    assert math.isclose(dbm_to_watts(-90.0), 1e-12, rel_tol=1e-12)
    assert math.isclose(dbm_to_watts(0.0), 1e-3, rel_tol=1e-12)


def test_stream_rng_streams_are_distinct():
    r1 = stream_rng(5, 0, 0).uniform(size=4)
    r2 = stream_rng(5, 1, 0).uniform(size=4)
    r3 = stream_rng(5, 0, 1).uniform(size=4)
    assert not np.allclose(r1, r2)
    assert not np.allclose(r1, r3)
    assert np.array_equal(r1, stream_rng(5, 0, 0).uniform(size=4))


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SystemConfig(l_positions=1)
    with pytest.raises(ValueError):
        SystemConfig(k_antennas=0)
    with pytest.raises(ValueError):
        SystemConfig(k_antennas=21, l_positions=20)
    with pytest.raises(ValueError):
        SystemConfig(kappa_db_per_m=-0.1)
    with pytest.raises(ValueError):
        SystemConfig(n_users=0)
    with pytest.raises(ValueError):
        SystemConfig(d1=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(seed=-1)


@pytest.mark.parametrize("name", ["d1", "d2", "height", "carrier_hz", "n_eff",
                                  "kappa_db_per_m", "pt_dbm", "noise_dbm"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SystemConfig(**{name: value})


@pytest.mark.parametrize("name, value", [("pt_dbm", 4000.0),
                                         ("pt_dbm", -4000.0),
                                         ("noise_dbm", -4000.0),
                                         ("noise_dbm", 1e308)])
def test_config_rejects_powers_outside_the_float_range(name, value):
    # 10^((dBm - 30)/10) W overflows above about 3,100 dBm and underflows
    # to 0 W below about -3,200 dBm
    message = f"{name}={value!r} dBm is not a positive finite power in watts"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SystemConfig(**{name: value})
    for edge in (3100.0, -3200.0):
        watts = dbm_to_watts(getattr(SystemConfig(**{name: edge}), name))
        assert 0.0 < watts < math.inf


def test_config_rejects_subwavelength_spacing():
    # spacing d1/(L-1) must stay >= lambda/2 = 5.35e-3 m at 28 GHz
    with pytest.raises(ValueError):
        SystemConfig(d1=0.005, l_positions=2)
    SystemConfig(d1=0.011, l_positions=2)  # just above, fine


def test_deployment_validation():
    cfg = SystemConfig(n_users=2)
    dep = make_deployment(cfg, stream_rng(1, 0, 0))
    assert len(dep.users) == 2
    assert len(dep.positions) == cfg.l_positions
    with pytest.raises(ValueError, match="z=0 plane"):
        Deployment(users=((1.0, 0.0, 1.0),), positions=dep.positions,
                   feed=dep.feed)  # user off the ground plane
    with pytest.raises(ValueError, match="x=50.0 outside"):
        Deployment(users=((50.0, 0.0, 0.0),), positions=dep.positions,
                   feed=dep.feed, d1=cfg.d1)  # outside the rectangle
    with pytest.raises(ValueError, match="x=-1.0 outside"):
        Deployment(users=((2.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
                   positions=dep.positions, feed=dep.feed)
    with pytest.raises(ValueError, match="y=-3.5 outside"):
        Deployment(users=((2.0, 3.0, 0.0), (2.0, -3.5, 0.0)),
                   positions=dep.positions, feed=dep.feed, d2=cfg.d2)
    bad = ((0.0, 0.0, 3.0), (1.0, 0.0, 3.0), (5.0, 0.0, 3.0))
    with pytest.raises(ValueError):
        Deployment(users=NO_USERS, positions=bad, feed=dep.feed)  # uneven grid
    with pytest.raises(ValueError, match="two candidate positions"):
        Deployment(users=NO_USERS, positions=bad[:1], feed=dep.feed)
    with pytest.raises(ValueError):  # users are checked on every drop
        Deployment(users=((99.0, 0.0, 0.0),), positions=dep.positions,
                   feed=dep.feed)


def test_block_of_drops_equals_the_single_draws():
    cfg = SystemConfig(n_users=3)
    block = make_deployment(cfg, [stream_rng(1, 0, t) for t in range(5)])
    single = [make_deployment(cfg, stream_rng(1, 0, t)) for t in range(5)]
    assert block.users.shape == (5, 3, 3)
    assert (block.users == np.stack([d.users for d in single])).all()
    for name in ("positions", "feed", "d1", "d2"):
        assert np.array_equal(getattr(block, name), getattr(single[0], name))
    # each drop is drawn exactly as it would be alone: the generators end in
    # the same state
    rngs = [stream_rng(2, 0, t) for t in range(3)]
    make_deployment(cfg, rngs)
    for t, rng in enumerate(rngs):
        alone = stream_rng(2, 0, t)
        make_deployment(cfg, alone)
        assert rng.uniform() == alone.uniform()
    assert make_deployment(cfg, []).users.shape == (0, 3, 3)
    assert (make_deployment(cfg, (stream_rng(1, 0, 4),)).users
            == single[4].users).all()
    # any generator with `uniform` still draws one drop
    assert make_deployment(cfg, np.random.RandomState(0)).users.shape == (3, 3)


# The user cases of `test_deployment_validation` and
# `test_deployment_rejects_non_finite_coordinates`: one drop's users, with
# the rectangle bounds its check needs.
BAD_DROPS = [
    (((1.0, 0.0, 1.0), (2.0, 0.0, 0.0)), {}),               # z != 0
    (((50.0, 0.0, 0.0), (2.0, 0.0, 0.0)), {"d1": 10.0}),    # beyond d1
    (((2.0, 0.0, 0.0), (-1.0, 0.0, 0.0)), {}),              # before the feed
    (((2.0, 3.0, 0.0), (2.0, -3.5, 0.0)), {"d2": 6.0}),     # beyond d2
    (((99.0, 0.0, 0.0), (2.0, 0.0, 0.0)), {}),              # beyond the grid
    (((2.0, 0.0, 0.0), (2.0, math.nan, 0.0)), {}),          # not finite
    (((2.0, math.inf, 0.0), (2.0, 0.0, 0.0)), {}),
    (((2.0, 0.0, 0.0), (2.0, 0.0, -math.inf)), {}),
]


@pytest.mark.parametrize("bad, bounds", BAD_DROPS)
def test_block_with_one_bad_drop_raises_the_drops_message(bad, bounds):
    grid = make_deployment(SystemConfig(), stream_rng(1, 0, 0))
    fields = {"positions": grid.positions, "feed": grid.feed, **bounds}
    with pytest.raises(ValueError) as alone:
        Deployment(users=bad, **fields)
    good = ((1.0, 0.5, 0.0), (9.0, -2.0, 0.0))
    Deployment(users=[good] * 3, **fields)
    for trial in range(3):
        users = [good] * 3
        users[trial] = bad
        with pytest.raises(ValueError) as block:
            Deployment(users=users, **fields)
        assert str(block.value) == str(alone.value)


def test_block_names_the_first_bad_user_in_trial_order():
    grid = make_deployment(SystemConfig(), stream_rng(1, 0, 0))
    users = [((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)),
             ((2.0, 0.0, 0.0), (50.0, 0.0, 0.0)),
             ((40.0, 0.0, 0.0), (2.0, 0.0, 0.0))]
    with pytest.raises(ValueError, match=r"^user x=50.0 outside \[0.0, 10.0\]$"):
        Deployment(users=users, positions=grid.positions, feed=grid.feed)
    with pytest.raises(ValueError, match="^users must have shape"):
        Deployment(users=np.zeros((2, 3, 2)), positions=grid.positions,
                   feed=grid.feed)
    with pytest.raises(ValueError, match="^users must have shape"):
        Deployment(users=np.zeros((1, 2, 3, 3)), positions=grid.positions,
                   feed=grid.feed)


def _scalar_grid_error(xs):
    """The per-gap `math.isclose` rule of the grid validation, over Python
    floats."""
    span = xs[-1] - xs[0]
    step = span / (len(xs) - 1)
    for i in range(1, len(xs)):
        if not math.isclose(xs[i] - xs[i - 1], step, rel_tol=1e-12,
                            abs_tol=1e-12 * max(1.0, span)):
            return "uniformly spaced"
        if xs[i] <= xs[i - 1]:
            return "ascending x"
    return None


def _grid(xs):
    return waveguide_points(xs, 3.0)


def test_deployment_rejects_uneven_or_descending_grids():
    feed = (0.0, 0.0, 3.0)
    cases = {
        (0.0, 1.0, 2.5, 3.0): "uniformly spaced",   # one gap off, inside
        (0.0, 1.0, 2.0, 3.0, 4.0, 5.5): "uniformly spaced",  # last gap off
        (4.0, 3.0, 2.0, 1.0, 0.0): "ascending x",   # even, but descending
        (2.0, 2.0, 2.0): "ascending x",             # zero span
        (0.0, -2.0, -3.0, -6.0): "ascending x",     # first bad gap is even
        (0.0, -1.0, -2.0, -6.0): "uniformly spaced",
    }
    for xs, message in cases.items():
        assert _scalar_grid_error(xs) == message
        with pytest.raises(ValueError, match=message):
            Deployment(users=NO_USERS, positions=_grid(xs), feed=feed)
    Deployment(users=NO_USERS, positions=_grid((0.0, 1.0, 2.0, 3.0)), feed=feed)


_GRID, _FEED = build_positions(SystemConfig()), feed_point(SystemConfig())
# The shared-geometry cases of the neighbouring tests, each bad in one way.
BAD_GRIDS = {
    "uneven": (_grid((0.0, 1.0, 2.5, 3.0)), _FEED),
    "descending": (_grid((4.0, 3.0, 2.0, 1.0, 0.0)), _FEED),
    "one position": (_GRID[:1], _FEED),
    "nan position": (np.where(np.arange(3) == 2, math.nan, _GRID), _FEED),
    "inf feed": (_GRID, (0.0, math.inf, 3.0)),
    "positions shape": (np.zeros((4, 3, 1)), _FEED),
    "feed shape": (_GRID, np.zeros((1, 3))),
}


@pytest.mark.parametrize("case", BAD_GRIDS)
def test_block_with_a_bad_grid_or_feed_raises_the_drops_message(case):
    positions, feed = BAD_GRIDS[case]
    drop = ((1.0, 0.5, 0.0), (3.0, -2.0, 0.0))
    with pytest.raises(ValueError) as alone:
        Deployment(users=drop, positions=positions, feed=feed)
    with pytest.raises(ValueError) as block:
        Deployment(users=[drop] * 3, positions=positions, feed=feed)
    assert str(block.value) == str(alone.value)


@st.composite
def _grids(draw):
    """Candidate x-coordinates: uniform, ascending or descending, or of zero
    span, with some of them moved by a few times the 1e-12 tolerance."""
    n = draw(st.integers(2, 12))
    start = draw(st.floats(-100.0, 100.0))
    step = draw(st.one_of(st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3),
                          st.just(0.0)))
    xs = [start + i * step for i in range(n)]
    scale = 1e-12 * max(1.0, abs(step) * (n - 1))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        xs[i] += draw(st.floats(-4.0, 4.0)) * scale
    return xs


@settings(max_examples=400, deadline=None)
@given(_grids())
def test_grid_check_agrees_with_the_scalar_check(xs):
    message = _scalar_grid_error(xs)
    if message is None:
        Deployment(users=NO_USERS, positions=_grid(xs), feed=(0.0, 0.0, 3.0))
        return
    with pytest.raises(ValueError, match=message):
        Deployment(users=NO_USERS, positions=_grid(xs), feed=(0.0, 0.0, 3.0))


@pytest.mark.parametrize("name", ["users", "positions", "feed"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_deployment_rejects_non_finite_coordinates(name, value):
    dep = make_deployment(SystemConfig(), stream_rng(1, 0, 0))
    fields = {"users": dep.users, "positions": dep.positions, "feed": dep.feed}
    bad = fields[name].copy()
    bad.flat[-1] = value
    with pytest.raises(ValueError, match=f"^{name} coordinates must be finite"):
        Deployment(**{**fields, name: bad})


@pytest.mark.parametrize("name, value", [
    ("users", np.zeros((2, 2))), ("users", np.zeros(3)),
    ("positions", np.zeros((4, 3, 1))), ("feed", np.zeros((1, 3))),
    ("feed", np.zeros(2)), ("users", ()),
])
def test_deployment_rejects_arrays_of_the_wrong_shape(name, value):
    dep = make_deployment(SystemConfig(), stream_rng(1, 0, 0))
    fields = {"users": dep.users, "positions": dep.positions, "feed": dep.feed}
    with pytest.raises(ValueError, match=f"^{name} must have shape"):
        Deployment(**{**fields, name: value})


def test_deployment_fields_are_read_only_float_arrays():
    cfg = SystemConfig(n_users=3)
    dep = make_deployment(cfg, stream_rng(1, 0, 0))
    for name, shape in (("users", (3, 3)), ("positions", (20, 3)),
                        ("feed", (3,))):
        arr = getattr(dep, name)
        assert arr.shape == shape and arr.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):  # cached, so shared
        build_positions(cfg)[0, 0] = 1.0
    # the input is copied, so the caller cannot move a drop's users
    users = np.array([[1, 0, 0]])
    dep = Deployment(users=users, positions=dep.positions, feed=dep.feed)
    users[0, 0] = 2
    assert dep.users.tolist() == [[1.0, 0.0, 0.0]] and users.flags.writeable


def test_block_deployment_is_read_only():
    cfg = SystemConfig(n_users=3)
    users = np.stack([sample_users(cfg, stream_rng(1, 0, t)) for t in range(4)])
    block = make_deployment(cfg, [stream_rng(1, 0, t) for t in range(4)])
    for name, shape in (("users", (4, 3, 3)), ("positions", (20, 3)),
                        ("feed", (3,))):
        arr = getattr(block, name)
        assert arr.shape == shape and arr.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        block.users[1, 2, 0] = 1.0
    # the input is copied, as for a single drop
    copy = Deployment(users=users, positions=block.positions, feed=block.feed)
    users[0, 0, 0] = 2.0
    assert copy.users.tolist() == block.users.tolist()
    assert users.flags.writeable


@pytest.mark.parametrize("name", ["n_users", "k_antennas", "l_positions", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_config_integer_fields_reject_non_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SystemConfig(**{name: value})


FLOAT_FIELDS = ["d1", "d2", "height", "carrier_hz", "n_eff", "kappa_db_per_m",
                "pt_dbm", "noise_dbm"]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [True, "30", None])
def test_config_float_fields_reject_non_reals(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        SystemConfig(**{name: value})


def test_config_float_fields_store_reals_as_float():
    cfg = SystemConfig(d1=np.float32(10.0), d2=6, height=np.int64(3),
                       pt_dbm=np.float64(30.0), noise_dbm=-90)
    assert [type(getattr(cfg, name)) for name in FLOAT_FIELDS] == [float] * 8
    assert cfg == SystemConfig()
    json.dumps(spec_to_dict(ExperimentSpec(base=cfg)))  # the sidecar takes them
    with pytest.raises(ValueError, match="^d1 must be finite"):
        SystemConfig(d1=10 ** 400)  # beyond the float range


@pytest.mark.parametrize("name", ["trials", "exhaustive_budget"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_spec_integer_fields_reject_non_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        ExperimentSpec(base=SystemConfig(), **{name: value})


def test_integer_fields_store_numpy_integers_as_int():
    cfg = SystemConfig(n_users=np.int64(3), k_antennas=np.int32(2),
                       l_positions=np.uint16(20), seed=np.uint64(2**64 - 1))
    # the sweep's bounds are floats, as SystemConfig's float fields are
    sweep = SweepSpec("k_antennas", np.int64(1), np.int64(2), np.int64(1))
    spec = ExperimentSpec(base=cfg, trials=np.int64(2),
                          exhaustive_budget=np.int16(9), sweep=sweep)
    for value in (cfg.n_users, cfg.k_antennas, cfg.l_positions, cfg.seed,
                  spec.trials, spec.exhaustive_budget):
        assert type(value) is int
    assert [type(x) for x in (sweep.start, sweep.stop, sweep.step)] == [float] * 3
    assert (cfg.n_users, cfg.seed, spec.trials) == (3, 2**64 - 1, 2)
    json.dumps(spec_to_dict(spec))  # the sidecar takes them
    assert spec_to_dict(spec)["sweep"] == {"param": "k_antennas", "start": 1.0,
                                           "stop": 2.0, "step": 1.0}
