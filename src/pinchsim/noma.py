"""SIC decoding order, per-user achievable rates, sum rate, and fairness.

Users are ordered by ascending effective channel gain.  The user of SIC rank m
decodes ranks below m first, so its own signal sees only the power of ranks
above m as interference; the top-ranked user decodes interference free.
Rates are spectral efficiencies in bits/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .channel import ActiveSet, effective_channel
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


@dataclass(frozen=True)
class RateReport:
    """Rates of one activation: SIC order, per-user rates, sum, fairness."""

    order: tuple[int, ...]        # user indices, ascending gain
    rates: tuple[float, ...]      # bits/s/Hz, indexed by user
    sum_rate: float               # bits/s/Hz
    fairness: float               # Jain index, in [1/N, 1]
    gains: tuple[float, ...]      # |h|^2 sorted ascending (rank order)


def sic_order(gains) -> tuple[int, ...]:
    """User indices sorted by ascending gain; ties keep ascending user index.

    Gains are continuous in practice so ties have probability zero, but the
    tie rule makes runs reproducible bit for bit.
    """
    gains = list(gains)
    for g in gains:
        if not math.isfinite(g) or g < 0:
            raise ValueError("gains must be finite and >= 0")
    return tuple(sorted(range(len(gains)), key=lambda i: (gains[i], i)))


def user_rates(sorted_gains, alloc: PowerAllocation, noise_watts: float) -> tuple[float, ...]:
    """Achievable rate of each SIC rank, given gains sorted ascending.

    Rank m gets log2(1 + a_m g_m / (g_m * sum_{i>m} a_i + sigma^2)); the
    interference term vanishes for the top rank.
    """
    gains = list(sorted_gains)
    if len(alloc.alpha) != len(gains):
        raise ValueError("allocation length must match number of users")
    if noise_watts <= 0:
        raise ValueError("noise power must be positive")
    # sum of alpha above each rank, accumulated from the top rank down
    tails = list(accumulate(reversed(alloc.alpha[1:]), initial=0.0))[::-1]
    return tuple(math.log2(1.0 + a * g / (g * tail + noise_watts))
                 for a, g, tail in zip(alloc.alpha, gains, tails))


def jain_fairness(rates) -> float:
    """Jain's index (sum r)^2 / (N sum r^2); all-zero rates count as equal."""
    rates = list(rates)
    if any(r < 0 for r in rates):
        raise ValueError("rates must be >= 0")
    total = sum(rates)
    if total == 0.0:
        return 1.0
    return total * total / (len(rates) * sum(r * r for r in rates))


def rate_report(gains, alloc: PowerAllocation, noise_watts: float) -> RateReport:
    """Assemble a RateReport from per-user gains."""
    order = sic_order(gains)
    sorted_gains = tuple(gains[i] for i in order)
    ranked = user_rates(sorted_gains, alloc, noise_watts)
    rates = [0.0] * len(order)
    for rank, user in enumerate(order):
        rates[user] = ranked[rank]
    return RateReport(
        order=order,
        rates=tuple(rates),
        sum_rate=sum(ranked),
        fairness=jain_fairness(rates),
        gains=sorted_gains,
    )


def sum_rate(active: ActiveSet, deployment: Deployment, config: SystemConfig,
             alloc: PowerAllocation, amp=None) -> RateReport:
    """Rates for one activation: effective channel -> SIC order -> rates.

    `amp` is the activation's `channel.antenna_amplitudes`, if the caller
    already has them.  An empty active set reports zero rates for everyone.
    """
    eff = effective_channel(deployment.users, active, deployment, config, amp)
    return rate_report(eff.gains, alloc, dbm_to_watts(config.noise_dbm))
