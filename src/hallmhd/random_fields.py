"""Seeded band-limited random fields for sweeps and initial data.

The generator is NumPy's default PCG64 bit stream seeded directly with the
integer seed; coefficients are drawn as standard complex normals on the modes
0 < |k| <= band of the full FFT lattice in a fixed (component-major, C-order
lattice) order, then Hermitian-symmetrized, cut to the real-FFT half spectrum
and Leray-projected: every draw is a divergence-free 3-component field.
Identical seeds give bit-identical fields on one platform.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid, SpectralField


def _hermitian_symmetrize(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Project full-lattice coefficients onto their Hermitian-symmetric part,
    whose physical values are real; the full-lattice form of what
    random_band_field does on its band box."""
    axes = tuple(range(-n, 0))
    flipped = coeffs.copy()
    for ax in axes:
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    return 0.5 * (coeffs + np.conj(flipped))


def random_band_field(grid: Grid, seed: int, band: float) -> SpectralField:
    """Divergence-free random 3-component field with spectral support in
    0 < |k| <= band.

    Only the half-spectrum box |k_i| <= band can be nonzero, so the mask, the
    Hermitian symmetrization and the Leray projection run there alone: each
    mode k of the box and its conjugate partner -k are read from the
    full-lattice draw, the arithmetic is that of _hermitian_symmetrize and
    then of leray_project, and the field is np.array_equal to the
    full-lattice construction.
    """
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.shape
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    freq = np.fft.fftfreq(grid.dims, 1.0 / grid.dims)
    rows = [np.flatnonzero(np.abs(freq) <= band)] * (grid.n - 1)
    rows.append(np.flatnonzero(np.arange(grid.dims // 2 + 1) <= band))
    box = (slice(None),) + np.ix_(*rows)
    partner = (slice(None),) + np.ix_(*[(-r) % grid.dims for r in rows])
    kmag = np.sqrt(sum(np.ix_(*[freq[r] ** 2 for r in rows])))
    mask = (kmag > 0) & (kmag <= band)
    v = 0.5 * ((re[box] + 1j * im[box]) * mask + np.conj((re[partner] + 1j * im[partner]) * mask))
    k, inv_ksq = grid.k[box], grid.inv_ksq[box[1:]]
    kdotv = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
    coeffs = np.zeros((3,) + grid.half_shape, dtype=complex)
    coeffs[box] = v - k * (kdotv * inv_ksq)
    return SpectralField(grid, coeffs)
