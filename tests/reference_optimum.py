"""Test-side exhaustive optimum: a vectorized prefix tree over every
activation of up to K grid positions, for one drop or a block of drops.

The sets of size s+1 extend those of size s in lexicographic order, so each
set's per-user sum of amplitude terms is its parent's plus one column: the
terms add in antenna order, as `channel._gains_of_terms` adds them.  Each
set is then scored by the steps of `kernels.set_sum_rate`, so every utility
is `SetEvaluator.utility`'s bit for bit, and the optimum is
`exhaustive_search`'s.  Not imported by the package.
"""

from __future__ import annotations

import numpy as np

from pinchsim import PowerAllocation
from pinchsim.noma import sic_rates


def best_per_size(amp: np.ndarray, k_antennas: int, pt_watts: float,
                  noise_watts: float, alloc: PowerAllocation
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each size s = 1..k_antennas, each drop's best set of s grid
    positions and its utility at the total transmit power `pt_watts`.

    `amp` is an (N, L) `amplitude_matrix`, or a (..., N, L) block of them.
    Returns k_antennas pairs: the (..., s) sorted position indices and the
    (...) utilities.  Within a size, ties go to the lexicographically first
    set, as in `exhaustive_search`.
    """
    n_positions = amp.shape[-1]
    columns = amp.swapaxes(-1, -2)  # (..., L, N): each position's terms
    sets = np.arange(n_positions)[:, None]
    z = columns
    best = []
    for size in range(1, k_antennas + 1):
        if size > 1:  # each set's children, in lexicographic order
            last = sets[:, -1]
            counts = n_positions - 1 - last
            parent = np.repeat(np.arange(len(sets)), counts)
            first = np.repeat(np.cumsum(counts) - counts, counts)
            column = last[parent] + 1 + np.arange(len(parent)) - first
            sets = np.column_stack((sets[parent], column))
            z = z[..., parent, :] + columns[..., column, :]
        gains = z.real * z.real
        gains += z.imag * z.imag
        gains.sort(axis=-1)
        gains = gains * (pt_watts / size)
        utilities = np.add.reduce(sic_rates(gains, alloc, noise_watts),
                                  axis=-1)
        i = utilities.argmax(axis=-1)
        best.append((sets[i],
                     np.take_along_axis(utilities, i[..., None], -1)[..., 0]))
    return best


def optimum(per_size: list[tuple[np.ndarray, np.ndarray]]
            ) -> tuple[tuple[int, ...], float]:
    """One drop's best set over every size of `best_per_size`'s result, as
    a tuple, and its utility.  A set wins if it is strictly better, or if it
    is as good and a lexicographically smaller tuple, as in
    `exhaustive_search`: `(1, 2, 3)` beats an equal `(1, 5)`."""
    top = max(float(u) for _, u in per_size)
    return min(tuple(s.tolist()) for s, u in per_size if u == top), top
