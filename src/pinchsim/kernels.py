"""The precomputed set evaluator and its sum-rate kernel.

The evaluator scores candidate activations by their sum rate.  Its only
public scoring, `utility` (the sum rate of one set), checks the grid indices
it is given (`channel.selection`).  A report's gains come from
`channel.power_gains`, whose sum rate is `utility`'s bit for bit.  The
exhaustive search scores every set once, one `utility` call each, and is
the package's only caller of `utility`.  The matching search walks each
antenna once per cycle and scores, in one batch of the private
`_utilities`, the relocations of that walk that its run has not scored yet,
and, as a spare row, the other antennas' set if the run has not scored it:
an active antenna's deactivation, an inactive one's current set; it reuses
the rest.  The batch skips the index check: the walk builds its indices
from the grid and from a start that its search has checked.

Every evaluator belongs to a `family`, a lone one to a family of one.  The
evaluators of one drop at the powers of a sweep form one family, whose
matching scans run as one group: each batch then scores its rows at every
power of the group at once, as (G, B) rates.  The batch scores at the
power it is handed, a lone scan's float or a group's array, and counts
nothing: a search counts in each evaluator's `calls` the sets its own scan
kept, once, when its call returns.
"""

from __future__ import annotations

import weakref

import numpy as np

from .channel import _gains_of_terms, amplitudes, selection
from .noma import PowerAllocation, sic_rates
from .scenario import Deployment, SystemConfig, dbm_to_watts


def set_sum_rate(amp, sel, watts, noise, alloc):
    """Sum rate of one activation, or of every row of a batch of them, at
    one transmit power or at each of G powers.

    amp:   (N, L) `amplitude_matrix` of per-(user, position) terms.
    sel:   sorted position indices of one activation, shape (S,), or a
           batch of B activations of one size, shape (B, S), each row
           sorted; S >= 1.
    watts: transmit power per antenna, P_t/S, or a (B, 1) array of each
           row's; at G powers, a (G, 1, 1) or (G, B, 1) array.
    noise: noise power in watts.
    alloc: power fractions indexed by SIC rank.

    Returns a 0-d float for one activation and (B,) floats for a batch; at
    G powers, (G, 1) and (G, B).  A row's result is bit-identical either
    way (the tests check it), and to the sum rate of `noma.rate_report` on
    its `power_gains`.  One `take` along axis 0 of the position-major view
    `amp.T` gathers the (S, N) or (B, S, N) rows of the active positions,
    whatever `amp`'s storage order, and `_gains_of_terms` sums each user's
    terms in antenna order, as `power_gains` does.  Each row's unscaled
    |z|^2 is sorted once and then scaled by its watts, or by each power's at
    G powers: a product by a positive factor rounds monotonically, so this
    equals scaling first and sorting after, bit for bit.  The (..., N)
    gains come out C-contiguous, their log2 terms adding along a contiguous
    last axis.
    """
    gains = _gains_of_terms(amp.T.take(sel, axis=0).swapaxes(-1, -2))
    gains.sort(axis=-1)
    gains = gains * watts
    return np.add.reduce(sic_rates(gains, alloc, noise), axis=-1)


def amplitude_matrix(config: SystemConfig, deployment: Deployment
                     ) -> np.ndarray:
    """(N, L) `channel.amplitudes` of a drop's users at the grid positions;
    (T, N, L) of a block of T drops."""
    return amplitudes(config, deployment.users, deployment.positions,
                      deployment.feed)


class SetEvaluator:
    """Fast sum-rate oracle for grid activations of one (config, drop) pair,
    and the searches' only input.

    Scores one set (`utility`), or, for the matching scan's walk, every set
    that adds one position to a common base in one kernel call
    (`_utilities`), with the base alone as a spare row, at its own power or
    at each power of its `family`: the evaluators of its drop that `family`
    linked, or itself alone.  `calls` counts the sets scored for it,
    batched or not, so searches can report their evaluation budget:
    `utility` counts its set, and a matching scan or stability check
    counts, when it returns, the batch rows its walks kept, a spare row
    only if taken.
    """

    def __init__(self, config: SystemConfig, deployment: Deployment,
                 alloc: PowerAllocation, amp: np.ndarray | None = None):
        """`amp` is the drop's `amplitude_matrix`, if the caller already has
        it: it does not depend on the transmit power, so one matrix serves
        evaluators at every power of a sweep.  A block deployment serves
        the drop whose matrix `amp` is, which it must then be given."""
        n_users = deployment.users.shape[-2]
        if len(alloc.alpha) != n_users:
            raise ValueError("allocation length must match number of users")
        if amp is None:
            if deployment.users.ndim != 2:
                raise ValueError("a block deployment needs the drop's "
                                 "amplitude matrix amp")
            amp = amplitude_matrix(config, deployment)
        elif amp.shape != (n_users, len(deployment.positions)):
            raise ValueError("amplitude matrix must be (users, positions)")
        self._amp = amp
        self._alloc = alloc
        self._pt_watts = dbm_to_watts(config.pt_dbm)
        self._noise_watts = dbm_to_watts(config.noise_dbm)
        self.n_positions = amp.shape[1]
        self._padded = None
        self.calls = 0
        # Weak references to the evaluators of this drop at every power of a
        # sweep (`family`), whose matching scans run as one group, this one
        # alone until linked; and this evaluator's scan result, held from
        # its family's scan until its own call takes it.
        self.family: tuple[weakref.ref, ...] = (weakref.ref(self),)
        self._held = None

    def utility(self, indices) -> float:
        """Sum rate in bits/s/Hz for the given position indices; 0 if empty."""
        sel = selection(indices, self.n_positions)
        if sel.size == 0:
            return 0.0
        self.calls += 1
        return float(set_sum_rate(self._amp, sel, self._pt_watts / sel.size,
                                  self._noise_watts, self._alloc))

    def _utilities(self, base: list[int], positions: list[int],
                   pt_watts) -> np.ndarray:
        """Sum rates of the sets `base` + {p}, one for each p of
        `positions`, at the transmit power `pt_watts`: this evaluator's
        float, as (B,) floats, or a (G, 1, 1) array of the powers of G
        members of its `family`, as (G, B); equal, bit for bit, to
        `utility` of each set at its evaluator.  No set is counted in
        `calls`: its callers, the matching scan and the stability check,
        count the rows their walks keep when they return.  No index is
        checked: the walk vouches that the sorted `base` and the
        `positions` are distinct grid indices.

        A last position `n_positions` adds the spare row: `base` and a
        zero column, which lives in a position-major copy of `amp` built on
        first use, with the power split over `len(base)` antennas, so that
        adding an exact 0 leaves it `utility(base)`, bit for bit.  The
        walk offers it only for a nonempty `base`."""
        n = len(positions)
        rows = np.empty((n, len(base) + 1), dtype=np.intp)
        rows[:, :-1] = base
        rows[:, -1] = positions
        rows.sort(axis=1)
        amp, watts = self._amp, pt_watts / (len(base) + 1)
        if positions and positions[-1] == self.n_positions:
            if self._padded is None:
                self._padded = np.zeros((len(amp.T) + 1, len(amp)), complex)
                self._padded[:-1] = amp.T
            per_row = np.empty(getattr(watts, "shape", ())[:1] + (n, 1))
            per_row[...] = watts
            per_row[..., -1:, :] = pt_watts / len(base)
            amp, watts = self._padded.T, per_row
        return set_sum_rate(amp, rows, watts, self._noise_watts, self._alloc)


def family(evaluators) -> tuple[SetEvaluator, ...]:
    """Link the evaluators of one drop's amplitude matrix at several
    transmit powers as one family: the first
    `activation.matching_activation` call on any of them scans the drop at
    every member's power as one group.  They may differ only in power.  A
    lone evaluator is a family of one, linked or not."""
    evaluators = tuple(evaluators)
    if len({(id(ev._amp), ev._alloc, ev._noise_watts)
            for ev in evaluators}) > 1:
        raise ValueError("a family's evaluators differ only in power")
    # A family that held its members would make a reference cycle, freed
    # only by the garbage collector's rare full passes.
    refs = tuple(map(weakref.ref, evaluators))
    for ev in evaluators:
        ev.family = refs
    return evaluators
