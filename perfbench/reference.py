"""Fixed reference work, timed beside every measured pinchsim call.

The benchmark's host is shared: its speed drifts by tens of percent over
seconds to minutes, and the drift moves every CPU-bound program alike.  So
each timed invocation sits between two runs of `reference_loop`, and its cost
is taken in units of that loop, then scaled back to seconds by
`REFERENCE_CPU_S`.  The loop imports nothing from pinchsim, so no change to
the package can move it.  It does the kind of work the package's hot path
does: small numpy array operations driven from a Python loop.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

# CPU seconds one `reference_loop` took on the 2-vCPU VM the benchmark was
# defined on (Python 3.11.7, numpy 2.4.6).  It only sets the scale of the
# reported figures; both sides of a comparison use the same value.
REFERENCE_CPU_S = 0.1

_rng = np.random.default_rng(20241217)
_AMP = _rng.standard_normal((4, 30)) + 1j * _rng.standard_normal((4, 30))
_ALPHA = np.array([0.4, 0.3, 0.2, 0.1])


def reference_loop() -> float:
    """A NOMA-style sum rate over every subset of up to 3 of 30 positions."""
    total = 0.0
    for size in (1, 2, 3):
        for sel in combinations(range(_AMP.shape[1]), size):
            z = _AMP[:, np.asarray(sel, dtype=np.intp)].sum(axis=1)
            gains = (z.real * z.real + z.imag * z.imag) / size
            gains.sort()
            tails = np.concatenate(((0.0,), np.cumsum(_ALPHA[::-1])[:-1]))[::-1]
            total += float(np.log2(1.0 + _ALPHA * gains
                                   / (gains * tails + 0.01)).sum())
    return total


def reference_cpu_s() -> float:
    """CPU seconds one `reference_loop` takes now, in this process."""
    start = time.process_time()
    reference_loop()
    return time.process_time() - start
