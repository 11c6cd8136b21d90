"""Physical channel: free-space coefficients, waveguide phase and loss,
and the effective scalar channel of each user for a set of active antennas.

The effective channel coherently sums, over the activated antennas, the
spherical-wave coefficient times the in-waveguide phase rotation times the
square root of the per-antenna transmit power.  Noise is never folded in here.
Every scheme's channel comes from `amplitudes`; the scalar helpers state the
same physics one term at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Deployment, Point3, SystemConfig, dbm_to_watts, derived_rf


@dataclass(frozen=True)
class ActiveSet:
    """Set of activated antennas.

    Normally a set of grid indices into Deployment.positions (0-based,
    distinct).  Baselines that place antennas off the grid supply explicit
    points via `overrides`, which then take precedence over `indices`.
    """

    indices: tuple[int, ...] = ()
    overrides: tuple[Point3, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if self.overrides is not None:
            object.__setattr__(self, "overrides", tuple(self.overrides))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("active positions must be distinct")
        if any(i < 0 for i in self.indices):
            raise ValueError("position indices are 0-based and non-negative")

    @property
    def size(self) -> int:
        if self.overrides is not None:
            return len(self.overrides)
        return len(self.indices)

    def antenna_points(self, deployment: Deployment) -> tuple[Point3, ...]:
        if self.overrides is not None:
            return self.overrides
        n = len(deployment.positions)
        if any(i >= n for i in self.indices):
            raise ValueError("position index out of range")
        return tuple(deployment.positions[i] for i in self.indices)


@dataclass(frozen=True)
class EffectiveChannel:
    """Complex effective channel per user and the corresponding power gains."""

    per_user: tuple[complex, ...]
    gains: tuple[float, ...]


def free_space_coeff(user: Point3, antenna: Point3, lam: float, eta: float) -> complex:
    """Spherical-wave coefficient eta * exp(-j 2 pi r / lambda) / r."""
    r = user.distance_to(antenna)
    if r == 0.0:
        raise ValueError("user and antenna coincide (singular channel)")
    return eta * cmath.exp(-2j * math.pi * r / lam) / r


def waveguide_phase(feed: Point3, antenna: Point3, lam_g: float) -> float:
    """Phase accumulated travelling from the feed to the antenna, radians.

    Not reduced mod 2 pi; reduction happens only inside the complex
    exponential so large feed distances stay exact.
    """
    return 2.0 * math.pi * feed.distance_to(antenna) / lam_g


def antenna_power(pt_watts: float, set_size: int, kappa_db_per_m: float,
                  dist_from_feed: float) -> float:
    """Transmit power of one activated antenna, watts.

    Total power split equally over the active set, then attenuated by
    kappa dB per meter of waveguide travelled.  kappa = 0 is the lossless case.
    """
    if set_size < 1:
        raise ValueError("active set must be nonempty")
    if dist_from_feed < 0:
        raise ValueError("feed distance must be >= 0")
    return (pt_watts / set_size) * 10.0 ** (-kappa_db_per_m * dist_from_feed / 10.0)


def amplitudes(config: SystemConfig, users, points, feed: Point3 | None
               ) -> np.ndarray:
    """(N, S) complex amplitude terms of N users and S antenna points.

    Entry (n, s) is the spherical-wave coefficient of user n and point s,
    rotated by the waveguide phase of s and scaled by the square root of the
    dielectric attenuation over its feed distance; `feed=None` is a fixed
    array, with neither.  Phases stay real until the exponential: numpy
    divides a complex by a real through the reciprocal, an ulp off at
    thousands of radians.
    """
    lam, lam_g, eta = derived_rf(config)
    # The feed is one more row: its distances are the feed distances.
    sources = [q.as_tuple() for q in users]
    wavelengths = [lam] * len(sources)
    if feed is not None:
        sources.append(feed.as_tuple())
        wavelengths.append(lam_g)
    d = np.array(sources)[:, None, :] - np.array([q.as_tuple() for q in points])
    d *= d
    r = np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])
    rotation = np.exp(-1j * (2.0 * np.pi * r / np.array(wavelengths)[:, None]))
    n = len(users)
    if not r[:n].all():
        raise ValueError("user and antenna coincide (singular channel)")
    amp = rotation[:n] * (eta / r[:n])
    if feed is not None:
        col = rotation[n] * np.sqrt(10.0 ** (-config.kappa_db_per_m * r[n] / 10.0))
        # The product by parts: numpy's complex multiply may fuse in its
        # vector loop, so an entry would depend on how many points there are.
        re = amp.real * col.real - amp.imag * col.imag
        amp.imag = amp.real * col.imag + amp.imag * col.real
        amp.real = re
    return amp


def coherent_sum(amp: np.ndarray, pt_watts: float) -> np.ndarray:
    """Per-user channel of (N, S) amplitude terms, P_t split over the S
    antennas; summed in the column-major layout of a gather `amp[:, sel]`."""
    return np.asfortranarray(amp).sum(axis=1) * math.sqrt(pt_watts / amp.shape[1])


def antenna_amplitudes(active: ActiveSet, deployment: Deployment,
                       config: SystemConfig) -> np.ndarray:
    """(N, S) `amplitudes` of the deployment's users at the antennas of
    `active`.  They do not depend on the transmit power."""
    return amplitudes(config, deployment.users, active.antenna_points(deployment),
                      deployment.feed)


def effective_channel(users: tuple[Point3, ...], active: ActiveSet,
                      deployment: Deployment, config: SystemConfig,
                      amp: np.ndarray | None = None) -> EffectiveChannel:
    """Effective scalar channel h_n of every user for the given activation.

    `amp`, the users' `amplitudes` at the active antennas, spares their
    rebuild when the caller keeps them across transmit powers.  Empty active
    set yields all-zero channels (the caller convention for a fully
    deactivated system).
    """
    if active.size == 0:
        return EffectiveChannel((0j,) * len(users), (0.0,) * len(users))
    if amp is None:
        amp = amplitudes(config, users, active.antenna_points(deployment),
                         deployment.feed)
    h = coherent_sum(amp, dbm_to_watts(config.pt_dbm))
    return EffectiveChannel(per_user=tuple(h.tolist()),
                            gains=tuple((np.abs(h) ** 2).tolist()))
