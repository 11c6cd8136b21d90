"""SIC decoding order, per-rank achievable rates, sum rate, and fairness.

Users are ordered by ascending effective channel gain.  The user of SIC rank m
decodes ranks below m first, so its own signal sees only the power of ranks
above m as interference; the top-ranked user decodes interference free.
Rates are spectral efficiencies in bits/s/Hz.  `sic_rates` is the one rate
formula: the search kernel sums it and every report reads it per user.  The
reports take one activation's (N,) gains or a (..., N) batch, one activation
per row, by the same code path; a run reports each block of trials at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import effective_channel
from .scenario import Deployment, SystemConfig, dbm_to_watts

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power fractions, indexed by SIC rank; must sum to one."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if any(a < 0 for a in self.alpha):
            raise ValueError("power fractions must be >= 0")
        if not math.isclose(sum(self.alpha), 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("power fractions must sum to 1")

    @classmethod
    def equal(cls, n_users: int) -> "PowerAllocation":
        """Fixed allocation: every signal gets 1/N of the power."""
        if n_users < 1:
            raise ValueError("need at least one user")
        return cls(alpha=(1.0 / n_users,) * n_users)

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per SIC rank, its power fraction and the sum of the fractions of
        the ranks above it, as arrays."""
        alpha = np.array(self.alpha)
        above = np.cumsum(alpha[::-1])
        return alpha, np.concatenate(((0.0,), above[:-1]))[::-1].copy()


@dataclass(frozen=True, eq=False)
class RateReport:
    """Rates of one activation, or of a batch of them: SIC order, per-user
    rates, sum, fairness.  Arrays of shape (N,) per activation, or (..., N)
    and (...) for a batch; a single activation's sum and fairness are numpy
    floats."""

    order: np.ndarray             # (..., N) user indices, ascending gain
    rates: np.ndarray             # (..., N) bits/s/Hz, indexed by user
    sum_rate: np.ndarray          # (...) bits/s/Hz
    fairness: np.ndarray          # (...) Jain index, in [1/N, 1]
    gains: np.ndarray             # (..., N) |h|^2 sorted ascending (rank order)


def sic_rates(gains: np.ndarray, alloc: PowerAllocation,
              noise_watts: float) -> np.ndarray:
    """Achievable rate of each SIC rank, from gains sorted ascending along
    the last axis, (N,) or a (B, N) batch.

    Rank m gets log2(1 + a_m g_m / (g_m * sum_{i>m} a_i + sigma^2)); the
    interference term vanishes for the top rank.  The rates are formed in
    one buffer, by the formula's operations in the same order.
    """
    alpha, tails = alloc.ranks
    if gains.shape[-1] != alpha.size:
        raise ValueError("allocation length must match number of users")
    if not noise_watts > 0:
        raise ValueError("noise power must be positive")
    x = gains * tails
    x += noise_watts
    np.divide(alpha * gains, x, out=x)
    x += 1.0
    return np.log2(x, out=x)


def jain_fairness(rates):
    """Jain's index (sum r)^2 / (N sum r^2) of an (N,) rate array, or (...)
    indices of the rows of a (..., N) batch; all-zero rates count as equal.

    ValueError unless there is at least one rate per row and every rate is
    finite and >= 0.  Each row's sum of squares is a matmul, which gives
    `rates @ rates` bit for bit at any batch shape.  A row whose squared sum
    or sum of squares leaves the normal float range, by underflow or
    overflow, is computed again divided by its largest rate, which leaves
    its index unchanged; no other row is rescaled.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim == 0 or rates.shape[-1] == 0:
        raise ValueError("need at least one rate per row")
    if not np.isfinite(rates).all():
        raise ValueError("rates must be finite")
    if (rates < 0).any():
        raise ValueError("rates must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        total = rates.sum(axis=-1)
        numerator = total * total
        squares = (rates[..., None, :] @ rates[..., :, None])[..., 0, 0]
        zero = total == 0.0
        # An all-zero row divides by 1 instead of 0 and is then set to 1.
        index = np.where(zero, 1.0, numerator / (
            rates.shape[-1] * np.where(zero, 1.0, squares)))
    rescale = ~zero & ((np.minimum(numerator, squares) < _TINY)
                       | (np.maximum(numerator, squares) == math.inf))
    if rescale.any():
        rows = rates[rescale]
        index[rescale] = jain_fairness(rows / rows.max(axis=-1, keepdims=True))
    return index[()]


def rate_report(gains, alloc: PowerAllocation, noise_watts: float) -> RateReport:
    """Assemble a RateReport from (N,) per-user gains, or from a (..., N)
    batch of them, one activation per row.

    Users take SIC ranks by a stable sort, so equal gains keep ascending
    user index.  Gains are continuous in practice so ties have probability
    zero, but the tie rule makes runs reproducible bit for bit.  A row's
    sum and fairness are the same, bit for bit, whether it is reported alone
    or in a batch (the tests check it).
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim == 0 or gains.shape[-1] != len(alloc.alpha):
        raise ValueError("allocation length must match number of users")
    order = gains.argsort(axis=-1, kind="stable")
    ranked_gains = np.take_along_axis(gains, order, axis=-1)
    # NaN sorts last, so the two ends of each row bound its gains.
    if not ((ranked_gains[..., 0] >= 0.0).all()
            and (ranked_gains[..., -1] < math.inf).all()):
        raise ValueError("gains must be finite and >= 0")
    ranked = sic_rates(ranked_gains, alloc, noise_watts)
    rates = np.empty_like(ranked)
    np.put_along_axis(rates, order, ranked, axis=-1)
    return RateReport(
        order=order,
        rates=rates,
        sum_rate=ranked.sum(axis=-1)[()],
        fairness=jain_fairness(ranked),
        gains=ranked_gains,
    )


def sum_rate(indices, deployment: Deployment, config: SystemConfig,
             alloc: PowerAllocation, amp=None) -> RateReport:
    """Rates for the activation of the grid `indices`, or for a (T, S) batch
    of activations: power gains -> SIC order -> rates.

    `amp` is the activation's (N, S) `channel.amplitudes` at its antenna
    points, or the batch's (T, N, S), if the caller already has them; see
    `effective_channel`.  An empty activation reports zero rates for
    everyone.
    """
    gains = effective_channel(indices, deployment, config, amp)
    return rate_report(gains, alloc, dbm_to_watts(config.noise_dbm))
