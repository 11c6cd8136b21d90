"""Physical channel: the amplitude terms of users and antennas, and the
power gain of each user for a set of active antennas.

A user's channel coherently sums, over the activated antennas, the
spherical-wave coefficient times the in-waveguide phase rotation times the
square root of the per-antenna transmit power.  Noise is never folded in here.
Every scheme's terms come from `amplitudes` and every gain from `power_gains`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Deployment, Point3, SystemConfig, dbm_to_watts, derived_rf


@dataclass(frozen=True)
class ActiveSet:
    """Set of activated antennas: distinct 0-based indices into
    Deployment.positions."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("active positions must be distinct")
        if any(i < 0 for i in self.indices):
            raise ValueError("position indices are 0-based and non-negative")

    @property
    def size(self) -> int:
        return len(self.indices)

    def antenna_points(self, deployment: Deployment) -> tuple[Point3, ...]:
        n = len(deployment.positions)
        if any(i >= n for i in self.indices):
            raise ValueError("position index out of range")
        return tuple(deployment.positions[i] for i in self.indices)


def _coords(points) -> np.ndarray:
    """(..., M, 3) coordinates: a coordinate array as it is, or a Point3
    sequence as an (M, 3) array."""
    if isinstance(points, np.ndarray):
        return points
    return np.array([q.as_tuple() for q in points], dtype=float).reshape(-1, 3)


def _distances(points: np.ndarray, users: np.ndarray) -> np.ndarray:
    """(..., S, N) distances between (..., S, 3) points and (..., N, 3)
    users."""
    d = points[..., :, None, :] - users[..., None, :, :]
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


def amplitudes(config: SystemConfig, users, points, feed: Point3 | None
               ) -> np.ndarray:
    """(..., N, S) complex amplitude terms of N users and S antenna points.

    `users` and `points` are Point3 sequences or (..., N, 3) and (..., S, 3)
    coordinate arrays whose leading axes broadcast, so one call builds the
    terms of a whole block of drops.  Entry (n, s) is the spherical-wave
    coefficient of user n and point s, rotated by the waveguide phase of s
    and scaled by the square root of the dielectric attenuation over its
    feed distance; `feed=None` is a fixed array, with neither.  Phases stay
    real until the exponential: numpy divides a complex by a real through
    the reciprocal, an ulp off at thousands of radians.
    """
    lam, lam_g, eta = derived_rf(config)
    points = _coords(points)
    r = _distances(points, _coords(users))
    if not r.all():
        raise ValueError("user and antenna coincide (singular channel)")
    amp = np.exp(-1j * (2.0 * np.pi * r / lam)) * (eta / r)
    if feed is not None:
        r = _distances(points, _coords((feed,)))
        col = np.exp(-1j * (2.0 * np.pi * r / lam_g)) * np.sqrt(
            10.0 ** (-config.kappa_db_per_m * r / 10.0))
        # The product by parts: numpy's complex multiply may fuse in its
        # vector loop, so an entry would depend on how many points there are.
        re = amp.real * col.real - amp.imag * col.imag
        amp.imag = amp.real * col.imag + amp.imag * col.real
        amp.real = re
    # Built point-major, so that in each drop's (N, S) slice users vary
    # fastest in memory, as in a gather amp[:, sel]: see `power_gains`.
    return np.swapaxes(amp, -1, -2)


def power_gains(terms: np.ndarray, pt_watts: float) -> np.ndarray:
    """Power gain P_t/S * |sum of terms|^2 of each user, from (N, S)
    amplitude terms, or (N, B) gains from a (N, B, S) batch; P_t is split
    equally over the S antennas.

    Each user's terms add in antenna order when users vary fastest in
    memory, as they do in `amplitudes` and in a gather `amp[:, sel]`; so a
    gain is the same bit for bit whichever of them it comes from.
    """
    z = terms.sum(axis=-1)
    return (pt_watts / terms.shape[-1]) * (z.real * z.real + z.imag * z.imag)


def effective_channel(users: tuple[Point3, ...], active: ActiveSet,
                      deployment: Deployment, config: SystemConfig,
                      amp: np.ndarray | None = None) -> np.ndarray:
    """(N,) power gains |h_n|^2 of every user for the given activation.

    `amp`, the users' `amplitudes` at the active antennas, spares their
    rebuild when the caller keeps them across transmit powers.  Empty active
    set yields all-zero gains (the caller convention for a fully
    deactivated system).
    """
    if active.size == 0:
        return np.zeros(len(users))
    if amp is None:
        amp = amplitudes(config, users, active.antenna_points(deployment),
                         deployment.feed)
    return power_gains(amp, dbm_to_watts(config.pt_dbm))
