"""Periodic-grid spectral field arithmetic.

Fields live on the torus [0, 2pi)^n (n = 2 or 3) and are stored as complex
Fourier amplitudes, normalized so that a constant field c has coefficient c
at k = 0.  All differential operators are exact Fourier multipliers; products
are formed pointwise in physical space and dealiased by the 2/3 rule.

2D grids carry 3-component fields that depend on (x, y) only ("2.5D"), so
curl and cross products remain well defined at 2D cost.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft


def _workers() -> int:
    """Worker count for batched FFTs; capped by HMHD_THREADS."""
    env = os.environ.get("HMHD_THREADS")
    if env:
        return max(1, int(env))
    return -1


def fftn_batch(arr: np.ndarray, n: int) -> np.ndarray:
    """Forward FFT over the last n axes (any number of leading batch axes)."""
    return sfft.fftn(arr, axes=tuple(range(-n, 0)), workers=_workers())


def ifftn_batch(arr: np.ndarray, n: int) -> np.ndarray:
    """Inverse FFT over the last n axes."""
    return sfft.ifftn(arr, axes=tuple(range(-n, 0)), workers=_workers())


def rfftn_batch(arr: np.ndarray, n: int, norm: str | None = None) -> np.ndarray:
    """Forward real FFT over the last n axes (half spectrum on the last axis);
    norm as in scipy.fft ("forward" divides by the number of points)."""
    return sfft.rfftn(arr, axes=tuple(range(-n, 0)), norm=norm, workers=_workers())


def irfftn_batch(arr: np.ndarray, n: int, shape: tuple, norm: str | None = None) -> np.ndarray:
    """Inverse real FFT over the last n axes back to the given spatial shape;
    norm as in scipy.fft ("forward" leaves the inverse unscaled)."""
    return sfft.irfftn(arr, s=shape, axes=tuple(range(-n, 0)), norm=norm, workers=_workers())


def half_to_full(half: np.ndarray, grid: "Grid") -> np.ndarray:
    """Expand a half-spectrum (real-FFT) array to the full Hermitian spectrum."""
    d = grid.dims
    full = np.empty(half.shape[: -grid.n] + grid.shape, dtype=complex)
    full[..., : d // 2 + 1] = half
    # the upper half is conj(half) at -k; on each leading spatial axis the index
    # map i -> (-i) mod d keeps 0 and reverses 1..d-1, so copy block by block
    pieces = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for block in itertools.product(pieces, repeat=grid.n - 1):
        dst = tuple(to for to, _ in block) + (slice(d // 2 + 1, None),)
        src = tuple(fro for _, fro in block) + (slice(d // 2 - 1, 0, -1),)
        np.conjugate(half[(..., *src)], out=full[(..., *dst)])
    return full


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2pi)^n with equal resolution per axis.

    dims must be a power of two >= 16.  Wavevectors are the integer lattice;
    kmax = dims/2 - 1 is the largest resolved integer wavenumber per axis.
    """

    n: int
    dims: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        d = self.dims
        if d < 16 or (d & (d - 1)) != 0:
            raise ValueError(f"dims must be a power of two >= 16, got {d}")

    @property
    def shape(self) -> tuple:
        return (self.dims,) * self.n

    @property
    def npoints(self) -> int:
        return self.dims**self.n

    @property
    def kmax(self) -> int:
        return self.dims // 2 - 1

    @property
    def cell_volume(self) -> float:
        return (2.0 * np.pi / self.dims) ** self.n

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def k(self) -> np.ndarray:
        """Integer wavevector components, shape (3, *grid.shape); kz = 0 in 2D."""

        def build():
            k1 = np.fft.fftfreq(self.dims, 1.0 / self.dims)
            comps = []
            for axis in range(self.n):
                sh = [1] * self.n
                sh[axis] = self.dims
                comps.append(np.broadcast_to(k1.reshape(sh), self.shape))
            while len(comps) < 3:
                comps.append(np.zeros(self.shape))
            return np.ascontiguousarray(np.stack(comps))

        return self._cached("k", build)

    @property
    def ksq(self) -> np.ndarray:
        return self._cached("ksq", lambda: (self.k**2).sum(axis=0))

    @property
    def kmag(self) -> np.ndarray:
        return self._cached("kmag", lambda: np.sqrt(self.ksq))

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: zero every mode with |k_i| > (2/3)(dims/2) on any axis."""

        def build():
            cutoff = (2.0 / 3.0) * (self.dims / 2)
            keep = np.ones(self.shape, dtype=bool)
            for i in range(self.n):
                keep &= np.abs(self.k[i]) <= cutoff
            return keep

        return self._cached("dealias", build)

    # Half-spectrum (real-FFT) companions, used by performance-critical paths.

    @property
    def half_shape(self) -> tuple:
        return (self.dims,) * (self.n - 1) + (self.dims // 2 + 1,)

    @property
    def k_half(self) -> np.ndarray:
        def build():
            k1 = np.fft.fftfreq(self.dims, 1.0 / self.dims)
            k_last = np.arange(self.dims // 2 + 1, dtype=float)
            comps = []
            for axis in range(self.n):
                sh = [1] * self.n
                sh[axis] = -1
                vec = k_last if axis == self.n - 1 else k1
                comps.append(np.broadcast_to(vec.reshape(sh), self.half_shape))
            while len(comps) < 3:
                comps.append(np.zeros(self.half_shape))
            return np.ascontiguousarray(np.stack(comps))

        return self._cached("k_half", build)

    @property
    def ksq_half(self) -> np.ndarray:
        return self._cached("ksq_half", lambda: (self.k_half**2).sum(axis=0))

    @property
    def dealias_mask_half(self) -> np.ndarray:
        def build():
            cutoff = (2.0 / 3.0) * (self.dims / 2)
            keep = np.ones(self.half_shape, dtype=bool)
            for i in range(self.n):
                keep &= np.abs(self.k_half[i]) <= cutoff
            return keep

        return self._cached("dealias_half", build)

    @property
    def inv_ksq_half(self) -> np.ndarray:
        def build():
            ksq = self.ksq_half
            safe = np.where(ksq > 0, ksq, 1.0)
            return np.where(ksq > 0, 1.0 / safe, 0.0)

        return self._cached("inv_ksq_half", build)

    def coordinates(self) -> list[np.ndarray]:
        """Physical coordinate arrays x, y (, z), each of shape grid.shape."""
        x1 = np.arange(self.dims) * (2.0 * np.pi / self.dims)
        return list(np.meshgrid(*([x1] * self.n), indexing="ij"))


@dataclass
class SpectralField:
    """m-component field as complex Fourier amplitudes of shape (m, *grid.shape)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[1:] != self.grid.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} inconsistent with grid {self.grid.shape}"
            )

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other):
        _check_compat(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_compat(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeffs)

    @classmethod
    def zero(cls, grid: Grid, m: int = 3) -> "SpectralField":
        return cls(grid, np.zeros((m,) + grid.shape, dtype=complex))


def _check_compat(f: SpectralField, g: SpectralField, same_m: bool = True):
    if f.grid.n != g.grid.n or f.grid.dims != g.grid.dims:
        raise ValueError("grid mismatch between fields")
    if same_m and f.m != g.m:
        raise ValueError(f"component-count mismatch: {f.m} vs {g.m}")


def hermitian_symmetrize(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Project onto the Hermitian-symmetric part so physical values are real."""
    axes = tuple(range(-n, 0))
    flipped = coeffs.copy()
    for ax in axes:
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    return 0.5 * (coeffs + np.conj(flipped))


def to_physical(f: SpectralField) -> np.ndarray:
    """Real physical-space values, shape (m, *grid.shape)."""
    return ifftn_batch(f.coeffs * f.grid.npoints, f.grid.n).real


def to_spectral(grid: Grid, values: np.ndarray) -> SpectralField:
    """Transform real grid values to a SpectralField; Hermitian symmetry enforced."""
    values = np.asarray(values, dtype=float)
    if values.ndim == grid.n:
        values = values[None]
    if values.shape[1:] != grid.shape:
        raise ValueError(f"value shape {values.shape} inconsistent with grid {grid.shape}")
    coeffs = fftn_batch(values.astype(complex), grid.n) / grid.npoints
    return SpectralField(grid, hermitian_symmetrize(coeffs, grid.n))


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field: ik multiplier, 3 components (kz = 0 in 2D)."""
    if f.m != 1:
        raise ValueError("gradient expects a scalar field (m = 1)")
    k = f.grid.k
    return SpectralField(f.grid, 1j * k * f.coeffs[0])


def divergence(v: SpectralField) -> SpectralField:
    """Divergence of a vector field: ik dot multiplier, scalar result."""
    if v.m != 3:
        raise ValueError("divergence expects a 3-component field")
    k = v.grid.k
    div = 1j * (k[0] * v.coeffs[0] + k[1] * v.coeffs[1] + k[2] * v.coeffs[2])
    return SpectralField(v.grid, div[None])


def curl(v: SpectralField) -> SpectralField:
    """Curl of a vector field: ik cross multiplier."""
    if v.m != 3:
        raise ValueError("curl expects a 3-component field")
    k = v.grid.k
    c = v.coeffs
    out = np.empty_like(c)
    out[0] = 1j * (k[1] * c[2] - k[2] * c[1])
    out[1] = 1j * (k[2] * c[0] - k[0] * c[2])
    out[2] = 1j * (k[0] * c[1] - k[1] * c[0])
    return SpectralField(v.grid, out)


def laplacian(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, -f.grid.ksq * f.coeffs)


def partial_derivative(f: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis applied componentwise (zero for the invariant axis in 2.5D)."""
    return SpectralField(f.grid, 1j * f.grid.k[axis] * f.coeffs)


def leray_project(v: SpectralField) -> SpectralField:
    """Divergence-free (Leray) projection; the k = 0 mode passes through."""
    if v.m != 3:
        raise ValueError("leray_project expects a 3-component field")
    g = v.grid
    k, ksq = g.k, g.ksq
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_ksq = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    kdotv = k[0] * v.coeffs[0] + k[1] * v.coeffs[1] + k[2] * v.coeffs[2]
    out = v.coeffs - k * (kdotv * inv_ksq)
    return SpectralField(v.grid, out)


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise physical-space product, dealiased (2/3 rule).

    Componentwise if m matches; a scalar factor broadcasts over a vector.
    """
    _check_compat(f, g, same_m=False)
    pf, pg = to_physical(f), to_physical(g)
    if f.m == g.m:
        prod = pf * pg
    elif f.m == 1:
        prod = pf[0] * pg
    elif g.m == 1:
        prod = pf * pg[0]
    else:
        raise ValueError(f"component-count mismatch: {f.m} vs {g.m}")
    return dealias(to_spectral(f.grid, prod))


def _half(f: SpectralField) -> np.ndarray:
    return f.coeffs[..., : f.grid.dims // 2 + 1]


def _dealiased_half(prod: np.ndarray, grid: Grid) -> np.ndarray:
    """Forward-transform real products and dealias, on the half spectrum."""
    return rfftn_batch(prod, grid.n) * (grid.dealias_mask_half / grid.npoints)


def cross(u: SpectralField, v: SpectralField) -> SpectralField:
    """Physical-space cross product u x v, dealiased."""
    _check_compat(u, v)
    if u.m != 3:
        raise ValueError("cross expects 3-component fields")
    g = u.grid
    phys = irfftn_batch(np.concatenate([_half(u), _half(v)]) * g.npoints, g.n, g.shape)
    prod = np.cross(phys[:3], phys[3:], axisa=0, axisb=0, axisc=0)
    return SpectralField(g, half_to_full(_dealiased_half(prod, g), g))


def advect_half(u_half: np.ndarray, v_half: np.ndarray, grid: Grid) -> np.ndarray:
    """(u . grad) v on the real-FFT half spectrum, formed in physical space and dealiased.

    u_half and v_half are half-spectrum coefficients of shapes (3, *half_shape)
    and (m, *half_shape); the result has the shape of v_half.
    """
    if u_half.shape[0] != 3:
        raise ValueError("advect expects a 3-component advecting field")
    m = v_half.shape[0]
    kh = grid.k_half
    gradv = np.stack([1j * kh[j] * v_half for j in range(3)])  # (3, m, ...)
    stacked = np.concatenate([u_half, gradv.reshape((3 * m,) + grid.half_shape)])
    phys = irfftn_batch(stacked * grid.npoints, grid.n, grid.shape)
    pu = phys[:3]
    pgrad = phys[3:].reshape((3, m) + grid.shape)
    prod = np.einsum("j...,jm...->m...", pu, pgrad)
    return _dealiased_half(prod, grid)


def advect(u: SpectralField, v: SpectralField) -> SpectralField:
    """Transport term (u . grad) v, formed in physical space and dealiased."""
    _check_compat(u, v, same_m=False)
    g = u.grid
    return SpectralField(g, half_to_full(advect_half(_half(u), _half(v), g), g))


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the torus via Parseval."""
    _check_compat(f, g)
    vol = (2.0 * np.pi) ** f.grid.n
    return float(vol * np.sum(f.coeffs * np.conj(g.coeffs)).real)


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm, p in {1, 2, inf}, of the pointwise Euclidean magnitude.

    p = 2 is computed spectrally (Parseval); p = 1 and inf by grid quadrature,
    so the sup norm is the grid-sampled lower bound of the true sup.
    """
    if p == 2:
        vol = (2.0 * np.pi) ** f.grid.n
        return float(np.sqrt(vol * np.sum(np.abs(f.coeffs) ** 2)))
    return lp_norm_half(_half(f), f.grid, p)


def lp_norm_half(half: np.ndarray, grid: Grid, p) -> float:
    """L^1 or L^inf norm, by grid quadrature, of a real field given on the half spectrum.

    half holds real-FFT coefficients of shape (m, *grid.half_shape); all m
    components go through one inverse batch, and the norm is that of their
    pointwise Euclidean magnitude.
    """
    sup = p in (np.inf, float("inf"), "inf")
    if not (sup or p == 1):
        raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")
    phys = irfftn_batch(half * grid.npoints, grid.n, grid.shape)
    mag = np.sqrt((phys**2).sum(axis=0))
    return float(mag.max()) if sup else float(mag.sum() * grid.cell_volume)
