"""Physical channel: the amplitude terms of users and antennas, and the
power gain of each user for a set of active antennas.

A user's channel coherently sums, over the activated antennas, the
spherical-wave coefficient times the in-waveguide phase rotation times the
square root of the per-antenna transmit power.  Noise is never folded in here.
Every scheme's terms come from `amplitudes` and every gain from `power_gains`.
"""

from __future__ import annotations

import numpy as np

from .scenario import Deployment, SystemConfig, dbm_to_watts, derived_rf


_BOOLS = {bool, np.bool_}


def selection(indices, n_positions: int) -> np.ndarray:
    """The sorted grid indices of one activation as an index array;
    ValueError unless they are distinct integers in [0, n_positions).
    Checked on the sorted list, which is cheaper than on an array at a few
    indices: the exhaustive search scores one set per call."""
    sel = sorted(indices)
    if not sel:
        return np.empty(0, dtype=np.intp)
    if len(set(sel)) < len(sel):
        raise ValueError("position indices must be distinct")
    if sel[0] < 0 or sel[-1] >= n_positions:
        raise ValueError("position index out of range")
    arr = np.asarray(sel)
    # numpy turns (True, 3) into [1, 3].  A bool is 0 or 1, so among sorted,
    # distinct, non-negative indices only the first two can be one.
    if arr.dtype.kind not in "iu" or (
            sel[0] < 2 and not _BOOLS.isdisjoint(map(type, sel[:2]))):
        raise ValueError("position indices must be integers")
    return arr


def _distances(points: np.ndarray, users: np.ndarray) -> np.ndarray:
    """(..., S, N) distances between (..., S, 3) points and (..., N, 3)
    users."""
    d = points[..., :, None, :] - users[..., None, :, :]
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


def amplitudes(config: SystemConfig, users: np.ndarray, points: np.ndarray,
               feed: np.ndarray | None) -> np.ndarray:
    """(..., N, S) complex amplitude terms of N users and S antenna points.

    `users` and `points` are (..., N, 3) and (..., S, 3) coordinate arrays
    whose leading axes broadcast, so one call builds the terms of a whole
    block of drops.  Entry (n, s) is the spherical-wave coefficient of user
    n and point s, rotated by the waveguide phase of s and scaled by the
    square root of the dielectric attenuation over its distance from the (3,)
    `feed`; `feed=None` is a fixed array, with neither.  Phases stay real
    until the exponential: numpy divides a complex by a real through the
    reciprocal, an ulp off at thousands of radians.
    """
    lam, lam_g, eta = derived_rf(config)
    r = _distances(points, users)
    if not r.all():
        raise ValueError("user and antenna coincide (singular channel)")
    amp = np.exp(-1j * (2.0 * np.pi * r / lam)) * (eta / r)
    if feed is not None:
        r = _distances(points, feed[None])
        col = np.exp(-1j * (2.0 * np.pi * r / lam_g)) * np.sqrt(
            10.0 ** (-config.kappa_db_per_m * r / 10.0))
        # The product by parts: numpy's complex multiply may fuse in its
        # vector loop, so an entry would depend on how many points there are.
        re = amp.real * col.real - amp.imag * col.imag
        amp.imag = amp.real * col.imag + amp.imag * col.real
        amp.real = re
    return np.swapaxes(amp, -1, -2)


def power_gains(terms: np.ndarray, pt_watts: float) -> np.ndarray:
    """Power gain P_t/S * |sum of terms|^2 of each user, from (N, S)
    amplitude terms, or (..., N) gains from (..., N, S) terms, such as a
    (T, N, S) block of drops or the search kernel's (B, N, S) batch; P_t is
    split equally over the S antennas.  It is `_gains_of_terms`, scaled in
    place by P_t/S.
    """
    gains = _gains_of_terms(terms)
    gains *= pt_watts / terms.shape[-1]
    return gains


def _gains_of_terms(terms: np.ndarray) -> np.ndarray:
    """The unscaled gains |z|^2 of (..., N, S) amplitude terms, z being each
    user's running sum of its terms in antenna order, formed in one new
    buffer as re*re + im*im.  The order is fixed, whatever the user count
    and the storage order of `terms`, so a gain is the same bit for bit
    whichever path it comes from; numpy's reduction would sum contiguous
    terms pairwise.  `power_gains` scales the gains in place by the
    transmit power per antenna; the search kernel sorts them first and
    scales them after.
    """
    z = np.add.accumulate(terms, axis=-1)[..., -1]
    g = z.real * z.real
    g += z.imag * z.imag
    return g


def effective_channel(indices, deployment: Deployment, config: SystemConfig,
                      amp: np.ndarray | None = None) -> np.ndarray:
    """(N,) power gains |h_n|^2 of the deployment's users for the activation
    of the grid `indices`, or (T, N) for a (T, S) integer array of T
    activations or for a block deployment of T drops.

    `amp`, the users' `amplitudes` at the active antennas, spares their
    rebuild when the caller keeps them across transmit powers; it needs one
    column per index, (N, S) or (T, N, S).  The users are read only when
    `amp` is None, so a batch's terms may come from other drops on the
    deployment's grid and feed.  Empty active set yields all-zero gains (the
    caller convention for a fully deactivated system).
    """
    n_positions = len(deployment.positions)
    if isinstance(indices, np.ndarray) and indices.ndim == 2:
        # Each row is one activation.  Rows of ascending integers in range,
        # which `selection` passes as they are, are checked in array
        # operations; any other batch runs `selection` row by row, so that
        # its first bad row raises as it would alone.
        if indices.dtype.kind in "iu" and np.diff(
                indices, prepend=-1, append=n_positions).min(initial=1) > 0:
            sel = indices.astype(np.intp, copy=False)
        else:
            sel = np.array([selection(r, n_positions) for r in indices],
                           dtype=np.intp).reshape(indices.shape)
    else:
        sel = selection(indices, n_positions)
    if sel.size == 0:
        shape = deployment.users.shape
        return np.zeros((*np.broadcast_shapes(sel.shape[:-1], shape[:-2]),
                         shape[-2]))
    if amp is None:
        amp = amplitudes(config, deployment.users, deployment.positions[sel],
                         deployment.feed)
    elif amp.shape[-1] != sel.shape[-1]:
        raise ValueError("amp must have one column per position index: "
                         f"got {amp.shape[-1]} for {sel.shape[-1]}")
    elif amp.shape[:-2] != sel.shape[:-1] or amp.ndim < 2:
        raise ValueError("amp must hold one (N, S) block per activation: "
                         f"got shape {amp.shape} for indices of shape "
                         f"{sel.shape}")
    return power_gains(amp, dbm_to_watts(config.pt_dbm))
