"""Geometry, RF derivations, unit conversion, and drop sampling."""

import math

import numpy as np
import pytest

from pinchsim import (Deployment, Point3, SystemConfig, build_positions,
                      dbm_to_watts, derived_rf, feed_point, make_deployment,
                      sample_users, stream_rng)


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
    assert [p.x for p in pos] == [0.0, 10.0]
    assert all(p.y == 0.0 and p.z == cfg.height for p in pos)


def test_position_grid_six():
    pos = build_positions(SystemConfig(d1=10.0, l_positions=6))
    assert [p.x for p in pos] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


def test_position_grid_spacing_20():
    pos = build_positions(SystemConfig(d1=10.0, l_positions=20))
    assert len(pos) == 20
    assert pos[1].x == 10.0 / 19.0
    diffs = [b.x - a.x for a, b in zip(pos, pos[1:])]
    for d in diffs:
        assert math.isclose(d, 10.0 / 19.0, rel_tol=1e-12)
    assert pos[-1].x == 10.0


def test_feed_sits_at_x0():
    cfg = SystemConfig(height=3.0)
    assert feed_point(cfg) == Point3(0.0, 0.0, 3.0)


def test_sampling_is_deterministic():
    cfg = SystemConfig(n_users=4)
    a = sample_users(cfg, stream_rng(9, 0, 3))
    b = sample_users(cfg, stream_rng(9, 0, 3))
    assert a == b
    c = sample_users(cfg, stream_rng(9, 0, 4))
    assert a != c


def test_sampling_mean_and_support():
    cfg = SystemConfig(d1=10.0, d2=6.0, n_users=100000)
    users = sample_users(cfg, stream_rng(0, 0, 0))
    xs = np.array([u.x for u in users])
    ys = np.array([u.y for u in users])
    assert 4.9 <= xs.mean() <= 5.1
    assert xs.min() >= 0.0 and xs.max() <= 10.0
    assert ys.min() >= -3.0 and ys.max() <= 3.0
    assert all(u.z == 0.0 for u in users)


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
    with pytest.raises(ValueError):
        Deployment(users=(Point3(1.0, 0.0, 1.0),), positions=dep.positions,
                   feed=dep.feed)  # user off the ground plane
    with pytest.raises(ValueError):
        Deployment(users=(Point3(50.0, 0.0, 0.0),), positions=dep.positions,
                   feed=dep.feed, d1=cfg.d1)  # outside the rectangle
    bad = (Point3(0.0, 0.0, 3.0), Point3(1.0, 0.0, 3.0), Point3(5.0, 0.0, 3.0))
    with pytest.raises(ValueError):
        Deployment(users=(), positions=bad, feed=dep.feed)  # uneven grid


def _scalar_grid_error(xs):
    """The per-gap `math.isclose` check the grid validation replaces."""
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
    return tuple(Point3(x, 0.0, 3.0) for x in xs)


def test_deployment_rejects_uneven_or_descending_grids():
    feed = Point3(0.0, 0.0, 3.0)
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
            Deployment(users=(), positions=_grid(xs), feed=feed)
    Deployment(users=(), positions=_grid((0.0, 1.0, 2.0, 3.0)), feed=feed)


def test_grid_is_checked_once_per_position_tuple(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return math_isclose(*args, **kwargs)

    math_isclose = math.isclose
    monkeypatch.setattr(math, "isclose", counted)
    feed = Point3(0.0, 0.0, 3.0)
    even = _grid((0.0, 1.5, 3.0, 4.5))
    Deployment(users=(), positions=even, feed=feed)
    assert len(calls) == 3
    Deployment(users=(Point3(1.0, 0.0, 0.0),), positions=even, feed=feed)
    assert len(calls) == 3  # the same tuple passed before
    Deployment(users=(), positions=tuple(even[:3]) + even[3:], feed=feed)
    assert len(calls) == 6  # equal grid, another tuple: checked
    uneven = _grid((0.0, 1.0, 3.0))
    for _ in range(2):  # a failure is never remembered as a pass
        with pytest.raises(ValueError, match="uniformly spaced"):
            Deployment(users=(), positions=uneven, feed=feed)
    with pytest.raises(ValueError):  # users are checked on every drop
        Deployment(users=(Point3(9.0, 0.0, 0.0),), positions=even, feed=feed)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        Point3(0.0, math.inf, 0.0)
