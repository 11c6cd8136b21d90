"""SIC decoding order, per-rank achievable rates, sum rate, and fairness.

Users are ordered by ascending effective channel gain.  The user of SIC rank m
decodes ranks below m first, so its own signal sees only the power of ranks
above m as interference; the top-ranked user decodes interference free.
Rates are spectral efficiencies in bits/s/Hz.  `sic_rates` is the one rate
formula: the search kernel sums it and every report reads it per user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import effective_channel
from .scenario import Deployment, SystemConfig, dbm_to_watts


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


@dataclass(frozen=True)
class RateReport:
    """Rates of one activation: SIC order, per-user rates, sum, fairness."""

    order: tuple[int, ...]        # user indices, ascending gain
    rates: tuple[float, ...]      # bits/s/Hz, indexed by user
    sum_rate: float               # bits/s/Hz
    fairness: float               # Jain index, in [1/N, 1]
    gains: tuple[float, ...]      # |h|^2 sorted ascending (rank order)


def sic_rates(gains: np.ndarray, alloc: PowerAllocation,
              noise_watts: float) -> np.ndarray:
    """Achievable rate of each SIC rank, from gains sorted ascending along
    the last axis, (N,) or a (B, N) batch.

    Rank m gets log2(1 + a_m g_m / (g_m * sum_{i>m} a_i + sigma^2)); the
    interference term vanishes for the top rank.
    """
    alpha, tails = alloc.ranks
    if gains.shape[-1] != alpha.size:
        raise ValueError("allocation length must match number of users")
    if not noise_watts > 0:
        raise ValueError("noise power must be positive")
    return np.log2(1.0 + alpha * gains / (gains * tails + noise_watts))


def jain_fairness(rates) -> float:
    """Jain's index (sum r)^2 / (N sum r^2) of a rate array; all-zero rates
    count as equal."""
    rates = np.asarray(rates, dtype=float)
    if rates.min() < 0:
        raise ValueError("rates must be >= 0")
    total = rates.sum()
    if total == 0.0:
        return 1.0
    return float(total * total / (rates.size * (rates @ rates)))


def rate_report(gains, alloc: PowerAllocation, noise_watts: float) -> RateReport:
    """Assemble a RateReport from per-user gains.

    Users take SIC ranks by a stable sort, so equal gains keep ascending
    user index.  Gains are continuous in practice so ties have probability
    zero, but the tie rule makes runs reproducible bit for bit.
    """
    gains = np.asarray(gains, dtype=float)
    order = gains.argsort(kind="stable")
    ranked_gains = gains[order]
    sorted_gains = ranked_gains.tolist()
    # NaN sorts last, so the two ends bound every gain.
    if not 0.0 <= sorted_gains[0] <= sorted_gains[-1] < math.inf:
        raise ValueError("gains must be finite and >= 0")
    ranked = sic_rates(ranked_gains, alloc, noise_watts)
    rates = np.empty_like(ranked)
    rates[order] = ranked
    return RateReport(
        order=tuple(order.tolist()),
        rates=tuple(rates.tolist()),
        sum_rate=float(ranked.sum()),
        fairness=jain_fairness(ranked),
        gains=tuple(sorted_gains),
    )


def sum_rate(indices, deployment: Deployment, config: SystemConfig,
             alloc: PowerAllocation, amp=None) -> RateReport:
    """Rates for the activation of the grid `indices`: power gains -> SIC
    order -> rates.

    `amp` is the activation's (N, S) `channel.amplitudes` at its antenna
    points, if the caller already has them.  An empty activation reports
    zero rates for everyone.
    """
    gains = effective_channel(indices, deployment, config, amp)
    return rate_report(gains, alloc, dbm_to_watts(config.noise_dbm))
