"""Seeded band-limited random fields for sweeps and initial data.

The generator is NumPy's default PCG64 bit stream seeded directly with the
integer seed; coefficients are drawn as standard complex normals on the modes
0 < |k| <= band of the full FFT lattice in a fixed (component-major, C-order
lattice) order, then Hermitian-symmetrized, cut to the real-FFT half spectrum
and optionally Leray-projected.  Identical seeds give bit-identical fields on
one platform.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid, SpectralField, leray_project


def _hermitian_symmetrize(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Project full-lattice coefficients onto their Hermitian-symmetric part,
    whose physical values are real."""
    axes = tuple(range(-n, 0))
    flipped = coeffs.copy()
    for ax in axes:
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    return 0.5 * (coeffs + np.conj(flipped))


def _full_kmag(grid: Grid) -> np.ndarray:
    """|k| on the full FFT lattice the draw runs over, cached on the grid."""

    def build():
        k1sq = np.fft.fftfreq(grid.dims, 1.0 / grid.dims) ** 2
        ksq = np.zeros(grid.shape)
        for axis in range(grid.n):
            sh = [1] * grid.n
            sh[axis] = -1
            ksq = ksq + k1sq.reshape(sh)
        return np.sqrt(ksq)

    return grid._cached("draw_kmag", build)


def random_band_field(
    grid: Grid,
    seed: int,
    band: float,
    m: int = 3,
    divergence_free: bool = True,
) -> SpectralField:
    """Random field with spectral support in 0 < |k| <= band."""
    rng = np.random.default_rng(seed)
    shape = (m,) + grid.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kmag = _full_kmag(grid)
    full = _hermitian_symmetrize(raw * ((kmag > 0) & (kmag <= band)), grid.n)
    f = SpectralField(grid, np.ascontiguousarray(full[..., : grid.dims // 2 + 1]))
    if divergence_free:
        if m != 3:
            raise ValueError("divergence-free draw requires m = 3")
        f = leray_project(f)
    return f
