"""Fixed reference kernel: how fast the benchmark's CPU runs right now.

On a shared host the speed one CPU delivers drifts by 20 % and more over
minutes, more than the run-to-run noise of the program itself.  Each
operation's process runs this kernel once before it imports hallmhd and once
after the timed operation.  ``wall_norm_s`` is the operation's wall time
times run.REF_SECONDS over the mean of the two kernel times, so the divisor
is measured next to the operation, on the same CPU, by code hallmhd cannot
change.

The kernel mixes what the workloads spend their time on: batched real FFTs
at 32^3 and elementwise complex arithmetic streaming 64^3 arrays through
memory.  It allocates about 15 MB, below every workload's peak, so it does
not move ``peak_rss_mb``.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import fft as sfft

REPS = 32


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    rng = np.random.default_rng(0)
    fields = rng.random((9, 32, 32, 32))
    spectrum = rng.random((3, 64, 64, 33)) + 1j * rng.random((3, 64, 64, 33))
    out = np.empty_like(spectrum)
    t0 = time.perf_counter()
    for _ in range(REPS):
        half = sfft.rfftn(fields, axes=(-3, -2, -1), workers=1)
        sfft.irfftn(half, s=(32, 32, 32), axes=(-3, -2, -1), workers=1)
        for _ in range(6):
            np.multiply(spectrum, 1.0001, out=out)
            out += spectrum
    return time.perf_counter() - t0
