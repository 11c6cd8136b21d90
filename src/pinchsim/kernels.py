"""The precomputed set evaluator and its sum-rate kernel.

The evaluator exposes one operation, the sum rate of a candidate activation,
which the matching search and the exhaustive search call O(C*K*L) times per
drop; the matching search scores one antenna's candidates as a batch.
"""

from __future__ import annotations

import numpy as np

from .channel import amplitudes, coherent_sum
from .noma import PowerAllocation
from .scenario import Deployment, SystemConfig, dbm_to_watts


def set_sum_rate(amp, sel, scale, noise, alpha, tails):
    """Sum rate of one activation, or of every row of a batch of them.

    amp:   (N, L) complex matrix of per-(user, position) amplitude terms,
           power split and sqrt(P_t) excluded.
    sel:   sorted position indices of one activation, shape (S,), or a batch
           of B activations of one size, shape (B, S), each row sorted; S >= 1.
    scale: per-antenna power P_t / S in watts.
    noise: noise power in watts.
    alpha: power fractions indexed by SIC rank.
    tails: per SIC rank, the power fractions of the ranks above it.

    Returns a 0-d float for one activation and (B,) floats for a batch.  A
    row's result is bit-identical either way (the tests check it): columns
    and log2 terms are summed along a contiguous last axis, so every
    addition happens in the same order.
    """
    z = amp[:, sel].sum(axis=-1)
    gains = np.ascontiguousarray((scale * (z.real * z.real + z.imag * z.imag)).T)
    gains.sort(axis=-1)
    sinr = alpha * gains / (gains * tails + noise)
    return np.log2(1.0 + sinr).sum(axis=-1)


def amplitude_matrix(config: SystemConfig, deployment: Deployment) -> np.ndarray:
    """(N, L) `channel.amplitudes` of the users at the grid positions."""
    return amplitudes(config, deployment.users, deployment.positions,
                      deployment.feed)


class SetEvaluator:
    """Fast sum-rate oracle for grid activations of one (config, drop) pair.

    Counts the activations it scores so searches can report their evaluation
    budget.
    """

    def __init__(self, config: SystemConfig, deployment: Deployment,
                 alloc: PowerAllocation, amp: np.ndarray | None = None):
        """`amp` is the drop's `amplitude_matrix`, if the caller already has
        it: it does not depend on the transmit power, so one matrix serves
        evaluators at every power of a sweep."""
        if len(alloc.alpha) != len(deployment.users):
            raise ValueError("allocation length must match number of users")
        if amp is None:
            amp = amplitude_matrix(config, deployment)
        elif amp.shape != (len(deployment.users), len(deployment.positions)):
            raise ValueError("amplitude matrix must be (users, positions)")
        self._amp = amp
        self._alpha = np.array(alloc.alpha)
        rev = np.cumsum(self._alpha[::-1])
        self._tails = np.concatenate(((0.0,), rev[:-1]))[::-1].copy()
        self._pt_watts = dbm_to_watts(config.pt_dbm)
        self._noise_watts = dbm_to_watts(config.noise_dbm)
        self.calls = 0

    @property
    def n_positions(self) -> int:
        return self._amp.shape[1]

    def utility(self, indices) -> float:
        """Sum rate in bits/s/Hz for the given position indices; 0 if empty."""
        sel = np.asarray(sorted(indices), dtype=np.intp)
        if sel.size == 0:
            return 0.0
        self.calls += 1
        if sel[0] < 0 or sel[-1] >= self.n_positions:
            raise ValueError("position index out of range")
        return float(set_sum_rate(self._amp, sel, self._pt_watts / sel.size,
                                  self._noise_watts, self._alpha, self._tails))

    def utilities(self, rows) -> np.ndarray:
        """Sum rates of a batch of activations of one size, one per row of
        the (B, S) index array `rows`; equal, bit for bit, to `utility` of
        each row.  Rows of size 0 score 0."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D index array")
        rows = np.sort(rows, axis=1)
        if rows.size == 0:
            return np.zeros(rows.shape[0])
        self.calls += rows.shape[0]
        if rows[:, 0].min() < 0 or rows[:, -1].max() >= self.n_positions:
            raise ValueError("position index out of range")
        return set_sum_rate(self._amp, rows, self._pt_watts / rows.shape[1],
                            self._noise_watts, self._alpha, self._tails)

    def gains(self, indices) -> np.ndarray:
        """Per-user |h|^2 of an activation, equal to `effective_channel`'s."""
        sel = np.asarray(sorted(indices), dtype=np.intp)
        if sel.size == 0:
            return np.zeros(self._amp.shape[0])
        return np.abs(coherent_sum(self._amp[:, sel], self._pt_watts)) ** 2
