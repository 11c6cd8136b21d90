"""Scenario definition: geometry, RF parameters, unit conversion, user drops.

Coordinate convention: the waveguide runs along the x-axis at y=0, z=height,
fed from the x=0 end; users live in the ground rectangle x in [0, d1],
y in [-d2/2, d2/2], z=0.  Point sets are float arrays of shape (M, 3), one
(x, y, z) row per point; a deployment's are read-only.  A deployment holds
one drop's (N, 3) users or a block's (T, N, 3), on one grid and feed, and is
checked once when built.  Each trial's drop and random start come from its
own numpy SeedSequence -> PCG64 stream.  `stream_rngs` seeds a block of
trials at once: numpy's SeedSequence gives the pool of the seed and stream,
and only the trial words and the output step run in arrays.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact

# Sub-stream tags so user drops and initial matchings never share a stream.
USER_STREAM = 0
MATCHING_STREAM = 1


def integer(name: str, value, error: type[Exception] = ValueError) -> int:
    """`value`, a Python or numpy integer, as an int; `error` naming `name`
    for anything else, a bool included."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def real(name: str, value, error: type[Exception] = ValueError) -> float:
    """`value`, a finite Python or numpy real number, ints included, as a
    float; `error` naming `name` for anything else, a bool included."""
    if (not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, bool)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int beyond the float range
        pass
    raise error(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of one scenario.

    Powers are taken in dBm at this interface and converted to watts once,
    inside the evaluation code; every formula runs on linear units.  A
    scenario whose distances, phases, loss, amplitude sums or SINR would
    leave the float range is refused, naming the fields they depend on.
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
            check = integer if f.type == "int" else real
            object.__setattr__(self, f.name, check(f.name, getattr(self, f.name)))
        for name in ("d1", "d2", "height", "carrier_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.n_eff >= 1:
            raise ValueError("n_eff must be >= 1")
        for name in ("pt_dbm", "noise_dbm"):
            value = getattr(self, name)
            try:
                watts = dbm_to_watts(value)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:
                raise ValueError(f"{name}={value!r} dBm is not a positive "
                                 "finite power in watts")
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
        # Bounds on what the channel and the rates compute, each by the float
        # operations `*`, `/` and `+`, which give inf where `**` would raise.
        # No scheme places an antenna outside x in [0, d1], every amplitude
        # term is at most eta/height, and so a gain is at most `peak`.
        lam, _, eta = derived_rf(self)
        half = self.d2 / 2.0
        r2 = self.d1 * self.d1 + half * half + self.height * self.height
        unit = eta / self.height
        terms = self.k_antennas * unit
        peak = dbm_to_watts(self.pt_dbm) * self.k_antennas * unit * unit
        noise = dbm_to_watts(self.noise_dbm)
        for names, quantity, value in (
                ("d1, d2, height", "the squared farthest user-antenna "
                 "distance d1^2 + (d2/2)^2 + height^2", r2),
                ("carrier_hz", "the free-space phase 2*pi*r/lambda",
                 2.0 * math.pi * math.sqrt(r2) / lam),
                ("n_eff", "the guided phase 2*pi*d1*n_eff/lambda",
                 2.0 * math.pi * self.d1 * self.n_eff / lam),
                ("kappa_db_per_m", "the loss exponent kappa*d1/10",
                 self.kappa_db_per_m * self.d1 / 10.0),
                ("k_antennas, carrier_hz, height", "the bound "
                 "(K*eta/height)^2 on |sum of amplitude terms|^2",
                 terms * terms),
                ("pt_dbm, noise_dbm", "the SINR bound "
                 "P_t*K*(eta/height)^2/sigma^2", peak / noise),
                ("pt_dbm, noise_dbm", "the interference-plus-noise bound "
                 "P_t*K*(eta/height)^2 + sigma^2", peak + noise)):
            if not math.isfinite(value):
                raise ValueError(f"{names}: {quantity} is beyond the "
                                 "float range")


def _check_grid(xs: np.ndarray) -> None:
    """ValueError unless every gap of the candidate x-coordinates is
    `math.isclose` to the mean step and positive; the first gap that is not,
    in order, decides the message."""
    span = xs[-1] - xs[0]
    step = span / (len(xs) - 1)
    abs_tol = 1e-12 * max(1.0, span)
    for gap in (xs[1:] - xs[:-1]).tolist():
        if not math.isclose(gap, step, rel_tol=1e-12, abs_tol=abs_tol):
            raise ValueError("candidate positions must be uniformly spaced")
        if gap <= 0.0:
            raise ValueError("candidate positions must have ascending x")


@dataclass(frozen=True, eq=False)
class Deployment:
    """One realization: user drop, candidate antenna positions, feed point;
    or a block of drops that share the grid and feed.

    `users` is (N, 3) for one drop or (T, N, 3) for a block of T, `positions`
    (L, 3) and `feed` (3,): read-only float copies of the given coordinates,
    in meters.  A block is checked in one pass, by the same rules as each of
    its drops alone; a bad user is named as its drop alone would name it,
    the first in trial order.  Users lie at z=0 and x in [0, d1], from the
    feed end; without `d1`, x in [0, the grid's last x].  Given `d2`, they
    lie at |y| <= d2/2.  Last, each drop's squared spread must be
    finite: per axis, the farthest distance from one of its users to a
    position or the feed, squared and summed over the axes.  It bounds every
    squared distance the channel takes; two users alone may lie farther
    apart, as a config's users do across its rectangle's width d2.
    """

    users: np.ndarray
    positions: np.ndarray
    feed: np.ndarray
    d1: float | None = field(repr=False, default=None)  # rectangle bounds
    d2: float | None = field(repr=False, default=None)

    def __post_init__(self):
        for name, ndims, shape in (("users", (2, 3), "(M, 3) or (T, M, 3)"),
                                   ("positions", (2,), "(M, 3)"),
                                   ("feed", (1,), "(3,)")):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            if arr.ndim not in ndims or arr.shape[-1] != 3:
                raise ValueError(f"{name} must have shape {shape}, "
                                 f"got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} coordinates must be finite")
            object.__setattr__(self, name, arr)
        if len(self.positions) < 2:
            raise ValueError("need at least two candidate positions")
        xs = self.positions[:, 0]
        _check_grid(xs)
        if self.users[..., 2].any():
            raise ValueError("users must lie in the z=0 plane")
        d1 = self.d1 if self.d1 is not None else xs[-1]
        half = math.inf if self.d2 is None else self.d2 / 2
        for axis, v, lo, hi in (("x", self.users[..., 0], 0.0, d1),
                                ("y", self.users[..., 1], -half, half)):
            outside = (v < lo * (1 + 1e-12)) | (v > hi * (1 + 1e-12))
            if outside.any():
                raise ValueError(f"user {axis}={v[outside][0]} outside "
                                 f"[{lo}, {hi}]")
        others = np.concatenate((self.positions, self.feed[None]))
        with np.errstate(over="ignore"):
            far = np.maximum(self.users - others.min(0),
                             others.max(0) - self.users).max(-2, initial=0.0)
            spread = (far * far).sum(-1)
        if not np.isfinite(spread).all():
            raise ValueError("users, positions, feed: their squared spread, "
                             f"summed over x, y and z, reads {spread.max()}, "
                             "beyond the float range")


def derived_rf(config: SystemConfig) -> tuple[float, float, float]:
    """Free-space wavelength, guided wavelength, and amplitude constant.

    Returns (lambda, lambda_g, eta) with lambda = c/f_c, lambda_g = lambda/n_eff
    and eta = c/(4 pi f_c), all in meters.
    """
    lam = SPEED_OF_LIGHT / config.carrier_hz
    return lam, lam / config.n_eff, lam / (4.0 * math.pi)


def waveguide_points(xs, height: float) -> np.ndarray:
    """(..., M, 3) points on the waveguide axis (y=0, z=height) at the
    given (..., M) x-coordinates: (M, 3) for a sequence of M, (T, M, 3) for
    a block's (T, M) array."""
    points = np.full((*np.shape(xs), 3), (0.0, 0.0, height))
    points[..., 0] = xs
    return points


@lru_cache(maxsize=16)
def build_positions(config: SystemConfig) -> np.ndarray:
    """(L, 3) uniformly spaced candidate positions along the waveguide,
    cached per configuration, so read-only.

    Position i sits at x = i*d1/(L-1), y=0, z=height, for i = 0..L-1.
    """
    step_den = config.l_positions - 1
    grid = waveguide_points(
        [config.d1 * i / step_den for i in range(config.l_positions)],
        config.height)
    grid.flags.writeable = False
    return grid


def feed_point(config: SystemConfig) -> np.ndarray:
    """(3,) waveguide feed at the x=0 end, on the waveguide axis."""
    return np.array((0.0, 0.0, config.height))


def sample_users(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """(N, 3) users dropped uniformly in the rectangle, on the ground
    plane."""
    users = np.zeros((config.n_users, 3))
    users[:, 0] = rng.uniform(0.0, config.d1, config.n_users)
    users[:, 1] = rng.uniform(-config.d2 / 2.0, config.d2 / 2.0, config.n_users)
    return users


def make_deployment(config: SystemConfig,
                    rng: np.random.Generator | Sequence[np.random.Generator]
                    ) -> Deployment:
    """Sample a user drop from the generator `rng` and assemble it with the
    fixed grid and feed; or, from a sequence of T generators, a block of T
    drops, each drawn from its generator as it would be alone."""
    if isinstance(rng, Sequence):
        users = np.array([sample_users(config, r) for r in rng]
                         ).reshape(-1, config.n_users, 3)
    else:
        users = sample_users(config, rng)
    return Deployment(
        users=users,
        positions=build_positions(config),
        feed=feed_point(config),
        d1=config.d1,
        d2=config.d2,
    )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), all of it
# mod 2^32: see `stream_rngs`.
_M32, _SHIFT, _32 = np.uint64(0xFFFFFFFF), np.uint64(16), np.uint64(32)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875,
                                      0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_POOL = 4


def _words(name: str, n) -> tuple[int, int]:
    """`n`, a non-negative integer, as an int, and the number of 32-bit
    words that SeedSequence splits it into (1 for 0).  ValueError naming
    `name` for anything else."""
    if (n := integer(name, n)) < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    return n, max(-(-n.bit_length() // 32), 1)


def _hash(v, hc: int, mult: int, rows: int):
    """SeedSequence's `hashmix` run `rows` times in turn, row i of the
    result on row i of `v` (rows broadcast), each call stepping the hash
    constant `hc` by `mult`; and the constant after the last."""
    consts = [hc * pow(mult, k, 1 << 32) % (1 << 32) for k in range(rows + 1)]
    c = np.array(consts, dtype=np.uint64)[:, None]
    v = (v ^ c[:-1]) * c[1:] & _M32
    return v ^ v >> _SHIFT, consts[-1]


def _absorb(pool: np.ndarray, hc: int, word: np.ndarray):
    """The (4, T) pool after SeedSequence's `mix` of each row of `pool`,
    (4, 1) or (4, T), with the `hashmix` of `word`, a (T,) array of one
    word per trial; and the hash constant after them."""
    v, hc = _hash(word, hc, _MULT_A, len(pool))
    r = (_MIX_L * pool - _MIX_R * v) & _M32
    return r ^ r >> _SHIFT, hc


@lru_cache(maxsize=None)
def _seed_words():
    """A numpy `ISeedSequence` that hands PCG64 its precomputed state words;
    made on first use, since importing numpy.random loads hashlib."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds exactly 4 uint64 words of PCG64 "
                                 f"state, not {n_words} of {np.dtype(dtype)}")
            return self.words

    return SeedWords


def stream_rngs(seed: int, stream: int, trials: range
                ) -> list[np.random.Generator]:
    """Independent, reproducible generators for (stream, trial), one per
    trial of `trials`, indices in [0, 2^64).

    Streams keyed only by (seed, stream, trial): the drop for a given trial is
    identical across schemes and across sweeps of non-geometry parameters.
    Each is numpy's `default_rng(SeedSequence(seed, spawn_key=(stream,
    trial)))`, state for state.  The pool after the seed and stream words
    is numpy's own, `SeedSequence(seed, spawn_key=(stream,)).pool`, shared
    by every trial; only the trial words and the output step run for all of
    `trials` at once, as array operations, and seed each trial's PCG64.  The
    generators' `seed_seq` only holds their PCG64 state words, so it is not
    a `SeedSequence` and cannot `spawn`.
    """
    if trials and not (min(trials) >= 0 and max(trials) < 1 << 64):
        raise ValueError("trial indices must lie in [0, 2**64)")
    seed, seed_words = _words("seed", seed)
    stream, stream_words = _words("stream", stream)
    # Filling the pool steps the hash constant 16 times, and each entropy
    # word past the padded seed's 4 steps it 4 times more.
    later = max(seed_words - _POOL, 0) + stream_words
    hc = _INIT_A * pow(_MULT_A, _POOL * (_POOL + later), 1 << 32) % (1 << 32)
    pool = np.random.SeedSequence(seed, spawn_key=(stream,)).pool
    t = np.array(trials, dtype=np.uint64)
    pool, hc = _absorb(pool.astype(np.uint64)[:, None], hc, t & _M32)
    if trials and max(trials) >> 32:  # a second trial word
        wide = t > _M32
        pool[:, wide] = _absorb(pool[:, wide], hc, t[wide] >> _32)[0]
    w, _ = _hash(np.tile(pool, (2, 1)), _INIT_B, _MULT_B, 2 * _POOL)
    words = np.ascontiguousarray((w[0::2] | w[1::2] << _32).T)
    seeded, pcg64 = _seed_words(), np.random.PCG64
    return [np.random.Generator(pcg64(seeded(row))) for row in words]


def stream_rng(seed: int, stream: int, trial: int = 0) -> np.random.Generator:
    """The generator of one (stream, trial): numpy's SeedSequence -> PCG64
    stream, as `stream_rngs` seeds it for a block, and like its generators
    one whose `seed_seq` is not a `SeedSequence` (no `spawn`)."""
    return stream_rngs(seed, stream, range(trial, trial + 1))[0]


def dbm_to_watts(value: float) -> float:
    """10^((dBm - 30)/10); 30 dBm is 1 W."""
    return 10.0 ** ((value - 30.0) / 10.0)


def config_field_names() -> tuple[str, ...]:
    return tuple(f.name for f in fields(SystemConfig))
