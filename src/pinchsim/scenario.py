"""Scenario definition: geometry, RF parameters, unit conversion, user drops.

Coordinate convention: the waveguide runs along the x-axis at y=0, z=height,
fed from the x=0 end; users live in the ground rectangle x in [0, d1],
y in [-d2/2, d2/2], z=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

# Sub-stream tags so user drops and initial matchings never share a stream.
USER_STREAM = 0
MATCHING_STREAM = 1


@dataclass(frozen=True)
class Point3:
    """A location in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"coordinates must be finite, got {self!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of one scenario.

    Powers are taken in dBm at this interface and converted to watts once,
    inside the evaluation code; every formula runs on linear units.
    """

    d1: float = 10.0              # m, waveguide / rectangle length
    d2: float = 6.0               # m, rectangle width
    height: float = 3.0           # m, antenna height above the user plane
    carrier_hz: float = 28e9      # Hz
    n_eff: float = 1.4            # effective refractive index of the waveguide
    kappa_db_per_m: float = 0.1   # dB/m, in-waveguide attenuation
    pt_dbm: float = 30.0          # dBm, total transmit power
    noise_dbm: float = -90.0      # dBm, noise power
    n_users: int = 2
    k_antennas: int = 2
    l_positions: int = 20
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("d1", "d2", "height", "carrier_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.n_eff >= 1:
            raise ValueError("n_eff must be >= 1")
        if self.kappa_db_per_m < 0:
            raise ValueError("kappa_db_per_m must be >= 0")
        if self.n_users < 1:
            raise ValueError("n_users must be >= 1")
        if self.l_positions < 2:
            raise ValueError("l_positions must be >= 2 (position spacing is "
                             "d1/(l_positions-1))")
        if not 1 <= self.k_antennas <= self.l_positions:
            raise ValueError("need 1 <= k_antennas <= l_positions")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ValueError("seed must fit in 64 unsigned bits")
        spacing = self.d1 / (self.l_positions - 1)
        half_wave = SPEED_OF_LIGHT / self.carrier_hz / 2.0
        if spacing < half_wave:
            raise ValueError(
                f"adjacent position spacing {spacing:.6g} m is below half a "
                f"wavelength ({half_wave:.6g} m)")


# Position tuples that passed `_check_grid`, newest first.  Drops of one
# configuration share the cached `build_positions` tuple, so its check runs
# once, not once per drop.
_CHECKED_GRIDS: list[tuple[Point3, ...]] = []


def _check_grid(positions: tuple[Point3, ...]) -> None:
    """Raise ValueError unless the positions are uniformly spaced in
    ascending x; a tuple that passed before is not checked again."""
    global _CHECKED_GRIDS
    if any(positions is grid for grid in _CHECKED_GRIDS):
        return
    xs = [p.x for p in positions]
    span = xs[-1] - xs[0]
    step = span / (len(xs) - 1)
    for i in range(1, len(xs)):
        if not math.isclose(xs[i] - xs[i - 1], step, rel_tol=1e-12,
                            abs_tol=1e-12 * max(1.0, span)):
            raise ValueError("candidate positions must be uniformly spaced")
        if xs[i] <= xs[i - 1]:
            raise ValueError("candidate positions must have ascending x")
    _CHECKED_GRIDS = [positions, *_CHECKED_GRIDS[:15]]


@dataclass(frozen=True)
class Deployment:
    """One realization: user drop, candidate antenna positions, feed point."""

    users: tuple[Point3, ...]
    positions: tuple[Point3, ...]
    feed: Point3
    d1: float | None = field(repr=False, default=None)  # rectangle bounds
    d2: float | None = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "positions", tuple(self.positions))
        if len(self.positions) < 2:
            raise ValueError("need at least two candidate positions")
        _check_grid(self.positions)
        d1 = (self.d1 if self.d1 is not None
              else self.positions[-1].x - self.positions[0].x)
        d2 = self.d2
        for u in self.users:
            if u.z != 0.0:
                raise ValueError("users must lie in the z=0 plane")
            if not 0.0 <= u.x <= d1 * (1 + 1e-12):
                raise ValueError(f"user x={u.x} outside [0, {d1}]")
            if d2 is not None and abs(u.y) > d2 / 2 * (1 + 1e-12):
                raise ValueError(f"user y={u.y} outside [-{d2/2}, {d2/2}]")


def derived_rf(config: SystemConfig) -> tuple[float, float, float]:
    """Free-space wavelength, guided wavelength, and amplitude constant.

    Returns (lambda, lambda_g, eta) with lambda = c/f_c, lambda_g = lambda/n_eff
    and eta = c/(4 pi f_c), all in meters.
    """
    lam = SPEED_OF_LIGHT / config.carrier_hz
    return lam, lam / config.n_eff, lam / (4.0 * math.pi)


@lru_cache(maxsize=16)
def build_positions(config: SystemConfig) -> tuple[Point3, ...]:
    """Uniformly spaced candidate positions along the waveguide, cached per
    configuration so that its drops share one grid.

    Position i sits at x = i*d1/(L-1), y=0, z=height, for i = 0..L-1.
    """
    step_den = config.l_positions - 1
    return tuple(Point3(config.d1 * i / step_den, 0.0, config.height)
                 for i in range(config.l_positions))


def feed_point(config: SystemConfig) -> Point3:
    """Waveguide feed at the x=0 end, on the waveguide axis."""
    return Point3(0.0, 0.0, config.height)


def sample_users(config: SystemConfig, rng: np.random.Generator) -> tuple[Point3, ...]:
    """Drop n_users uniformly in the rectangle, on the ground plane."""
    xs = rng.uniform(0.0, config.d1, config.n_users)
    ys = rng.uniform(-config.d2 / 2.0, config.d2 / 2.0, config.n_users)
    return tuple(Point3(float(x), float(y), 0.0) for x, y in zip(xs, ys))


def make_deployment(config: SystemConfig, rng: np.random.Generator) -> Deployment:
    """Sample a user drop and assemble it with the fixed grid and feed."""
    return Deployment(
        users=sample_users(config, rng),
        positions=build_positions(config),
        feed=feed_point(config),
        d1=config.d1,
        d2=config.d2,
    )


def stream_rng(seed: int, stream: int, trial: int = 0) -> np.random.Generator:
    """Independent, reproducible generator for (stream, trial).

    Streams keyed only by (seed, stream, trial): the drop for a given trial is
    identical across schemes and across sweeps of non-geometry parameters.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, trial)))


def dbm_to_watts(value: float) -> float:
    """10^((dBm - 30)/10); 30 dBm is 1 W."""
    return 10.0 ** ((value - 30.0) / 10.0)


def config_field_names() -> tuple[str, ...]:
    return tuple(f.name for f in fields(SystemConfig))
