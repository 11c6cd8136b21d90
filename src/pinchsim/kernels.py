"""The precomputed set evaluator and its sum-rate kernel.

The evaluator exposes one operation, the sum rate of a candidate activation,
which the matching search and the exhaustive search call O(C*K*L) times per
drop; the matching search scores one antenna's candidates as a batch.
"""

from __future__ import annotations

import numpy as np

from .channel import amplitudes, power_gains
from .noma import PowerAllocation, sic_rates
from .scenario import Deployment, SystemConfig, dbm_to_watts


def set_sum_rate(amp, sel, pt_watts, noise, alloc):
    """Sum rate of one activation, or of every row of a batch of them.

    amp:      (N, L) `amplitude_matrix` of per-(user, position) terms.
    sel:      sorted position indices of one activation, shape (S,), or a
              batch of B activations of one size, shape (B, S), each row
              sorted; S >= 1.
    pt_watts: total transmit power, split over the S antennas.
    noise:    noise power in watts.
    alloc:    power fractions indexed by SIC rank.

    Returns a 0-d float for one activation and (B,) floats for a batch.  A
    row's result is bit-identical either way (the tests check it), and to
    the sum rate of `noma.rate_report` on its `power_gains`: each user's
    columns add in antenna order and the log2 terms along a contiguous last
    axis, so every addition happens in the same order.
    """
    gains = np.ascontiguousarray(power_gains(amp[:, sel], pt_watts).T)
    gains.sort(axis=-1)
    return sic_rates(gains, alloc, noise).sum(axis=-1)


def amplitude_matrix(config: SystemConfig, deployment: Deployment,
                     users: np.ndarray | None = None) -> np.ndarray:
    """(N, L) `channel.amplitudes` of the users at the grid positions; or
    (T, N, L) of the (T, N, 3) coordinates `users`, a block of drops that
    share the deployment's grid and feed."""
    return amplitudes(config, deployment.users if users is None else users,
                      deployment.positions, deployment.feed)


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
        self._alloc = alloc
        self._pt_watts = dbm_to_watts(config.pt_dbm)
        self._noise_watts = dbm_to_watts(config.noise_dbm)
        self.calls = 0

    @property
    def n_positions(self) -> int:
        return self._amp.shape[1]

    def _selection(self, indices) -> np.ndarray:
        """The sorted position indices of one activation as an index array;
        ValueError unless they are distinct integers in range.  Checked on
        the sorted list, which is cheaper than on an array at a few
        indices: the exhaustive search scores one set per call."""
        sel = sorted(indices)
        if not sel:
            return np.empty(0, dtype=np.intp)
        if len(set(sel)) < len(sel):
            raise ValueError("position indices must be distinct")
        if sel[0] < 0 or sel[-1] >= self.n_positions:
            raise ValueError("position index out of range")
        arr = np.asarray(sel)
        if arr.dtype.kind not in "iu":
            raise ValueError("position indices must be integers")
        return arr

    def utility(self, indices) -> float:
        """Sum rate in bits/s/Hz for the given position indices; 0 if empty."""
        sel = self._selection(indices)
        if sel.size == 0:
            return 0.0
        self.calls += 1
        return float(set_sum_rate(self._amp, sel, self._pt_watts,
                                  self._noise_watts, self._alloc))

    def utilities(self, rows) -> np.ndarray:
        """Sum rates of a batch of activations of one size, one per row of
        the (B, S) index array `rows`; equal, bit for bit, to `utility` of
        each row.  Rows of size 0 score 0."""
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D index array")
        if rows.size == 0:
            return np.zeros(rows.shape[0])
        if rows.dtype.kind not in "iu":
            raise ValueError("position indices must be integers")
        rows = np.sort(rows, axis=1)
        if rows[:, 0].min() < 0 or rows[:, -1].max() >= self.n_positions:
            raise ValueError("position index out of range")
        # count_nonzero: a third of the cost of .any() on a few rows.
        if np.count_nonzero(rows[:, 1:] == rows[:, :-1]):
            raise ValueError("position indices must be distinct")
        self.calls += rows.shape[0]
        return set_sum_rate(self._amp, rows, self._pt_watts,
                            self._noise_watts, self._alloc)

    def gains(self, indices) -> np.ndarray:
        """Per-user |h|^2 of an activation, equal to `effective_channel`'s
        and to the gains `utility` ranks."""
        sel = self._selection(indices)
        if sel.size == 0:
            return np.zeros(self._amp.shape[0])
        return power_gains(self._amp[:, sel], self._pt_watts)
