"""Periodic-grid spectral field arithmetic.

Fields live on the torus [0, 2pi)^n (n = 2 or 3) and are real, so each is
stored as its real-FFT half spectrum: complex Fourier amplitudes on the modes
with k_last = 0 .. dims/2, the amplitude at -k being the conjugate of the one
at k.  Amplitudes are normalized so that a constant field c has coefficient c
at k = 0.  A sum over the whole lattice (Parseval) counts every interior
k_last plane twice, for k and -k, through grid.hermitian_weight.  All
differential operators are exact Fourier multipliers; products are formed
pointwise in physical space and dealiased by the 2/3 rule, which keeps the
cube |k_i| <= dealias_cutoff(dims) = dims // 3; gather_cube and scatter_cube
copy that cube to and from a compact array.

2D grids carry 3-component fields that depend on (x, y) only ("2.5D"), so
curl and cross products remain well defined at 2D cost.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft


def _workers() -> int:
    """Worker count for batched FFTs; capped by HMHD_THREADS."""
    env = os.environ.get("HMHD_THREADS")
    if not env:
        return -1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HMHD_THREADS: must be a positive integer, got {env!r}")
    return workers


def rfftn_batch(arr: np.ndarray, n: int, norm: str | None = None) -> np.ndarray:
    """Forward real FFT over the last n axes (half spectrum on the last axis);
    norm as in scipy.fft ("forward" divides by the number of points)."""
    return sfft.rfftn(arr, axes=tuple(range(-n, 0)), norm=norm, workers=_workers())


def irfftn_batch(arr: np.ndarray, n: int, shape: tuple, norm: str | None = None) -> np.ndarray:
    """Inverse real FFT over the last n axes back to the given spatial shape;
    norm as in scipy.fft ("forward" leaves the inverse unscaled)."""
    return sfft.irfftn(arr, s=shape, axes=tuple(range(-n, 0)), norm=norm, workers=_workers())


def dealias_cutoff(dims: int) -> int:
    """kc = floor((2/3)(dims/2)): the 2/3 rule keeps the modes with |k_i| <= kc
    on every axis, the dealias cube."""
    return dims // 3


@functools.lru_cache(maxsize=32)
def _cube_blocks(full_shape: tuple, comp_shape: tuple) -> tuple:
    """(full, compact) index pairs of the slab blocks that make up the dealias
    cube.  The spatial axes are the trailing ones whose lengths differ between
    the half spectrum and the cube; leading batch axes match and are taken
    whole.  A leading spatial axis has two blocks, k = 0 .. kc and -kc .. -1;
    the last (half) axis has one, k_last = 0 .. kc."""
    if len(full_shape) != len(comp_shape):
        raise ValueError(f"rank mismatch: {full_shape} vs {comp_shape}")
    kc = comp_shape[-1] - 1
    dims = 2 * (full_shape[-1] - 1)
    axes = [[(slice(None), slice(None))] if f == c else
            [(slice(0, kc + 1), slice(0, kc + 1)), (slice(dims - kc, None), slice(kc + 1, None))]
            for f, c in zip(full_shape[:-1], comp_shape[:-1])]
    axes.append([(slice(0, kc + 1), slice(None))])
    return tuple(tuple(zip(*pairs)) for pairs in itertools.product(*axes))


def gather_cube(full: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy the dealias cube of a half-spectrum array into its compact form.

    out has the cube shape (2kc+1,)*(n-1) + (kc+1,) on its trailing axes, the
    leading spatial axes ordered k = 0 .. kc, -kc .. -1 (kc = dealias_cutoff);
    2**(n-1) slab copies.  Returns out.
    """
    for f, c in _cube_blocks(full.shape, out.shape):
        out[c] = full[f]
    return out


def scatter_cube(comp: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Write a compact cube array into the cube of a half-spectrum array; the
    modes of full outside the cube are left as they are.  Returns full."""
    for f, c in _cube_blocks(full.shape, comp.shape):
        full[f] = comp[c]
    return full


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, 2pi)^n with equal resolution per axis.

    dims must be a power of two >= 16.  Wavevectors are the integer lattice;
    kmax = dims/2 - 1 is the largest resolved integer wavenumber per axis.
    The wavevector caches cover the half spectrum, shape grid.half_shape.
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
    def half_shape(self) -> tuple:
        return (self.dims,) * (self.n - 1) + (self.dims // 2 + 1,)

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
        """Integer wavevector components, shape (3, *half_shape); kz = 0 in 2D.

        The leading axes run in FFT order, the last over k_last = 0 .. dims/2.
        """

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

        return self._cached("k", build)

    @property
    def ksq(self) -> np.ndarray:
        return self._cached("ksq", lambda: (self.k**2).sum(axis=0))

    @property
    def kmag(self) -> np.ndarray:
        return self._cached("kmag", lambda: np.sqrt(self.ksq))

    @property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2, with 0 at k = 0."""

        def build():
            ksq = self.ksq
            safe = np.where(ksq > 0, ksq, 1.0)
            return np.where(ksq > 0, 1.0 / safe, 0.0)

        return self._cached("inv_ksq", build)

    @property
    def cube_shape(self) -> tuple:
        """Shape of the compact 2/3 dealias cube; see gather_cube."""
        kc = dealias_cutoff(self.dims)
        return (2 * kc + 1,) * (self.n - 1) + (kc + 1,)

    @property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the half spectrum: True exactly on the dealias cube."""

        def build():
            keep = np.zeros(self.half_shape, dtype=bool)
            scatter_cube(np.ones(self.cube_shape, dtype=bool), keep)
            return keep

        return self._cached("dealias", build)

    @property
    def hermitian_weight(self) -> np.ndarray:
        """Parseval weight per k_last plane, shape (dims/2 + 1,): 2 on the
        interior planes, which stand for k and -k, 1 on k_last = 0 and dims/2."""

        def build():
            w = np.full(self.dims // 2 + 1, 2.0)
            w[[0, -1]] = 1.0
            return w

        return self._cached("hermitian_weight", build)

    def coordinates(self) -> list[np.ndarray]:
        """Physical coordinate arrays x, y (, z), each of shape grid.shape."""
        x1 = np.arange(self.dims) * (2.0 * np.pi / self.dims)
        return list(np.meshgrid(*([x1] * self.n), indexing="ij"))


@dataclass
class SpectralField:
    """Real m-component field as its half spectrum, complex Fourier amplitudes
    of shape (m, *grid.half_shape)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape[1:] != self.grid.half_shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} inconsistent with the half "
                f"spectrum {self.grid.half_shape} of grid {self.grid.shape}"
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
        return cls(grid, np.zeros((m,) + grid.half_shape, dtype=complex))


def _check_compat(f: SpectralField, g: SpectralField, same_m: bool = True):
    if f.grid.n != g.grid.n or f.grid.dims != g.grid.dims:
        raise ValueError("grid mismatch between fields")
    if same_m and f.m != g.m:
        raise ValueError(f"component-count mismatch: {f.m} vs {g.m}")


def to_physical(f: SpectralField) -> np.ndarray:
    """Real physical-space values, shape (m, *grid.shape)."""
    return irfftn_batch(f.coeffs, f.grid.n, f.grid.shape, "forward")


def to_spectral(grid: Grid, values: np.ndarray) -> SpectralField:
    """Transform real grid values to a SpectralField."""
    values = np.asarray(values, dtype=float)
    if values.ndim == grid.n:
        values = values[None]
    if values.shape[1:] != grid.shape:
        raise ValueError(f"value shape {values.shape} inconsistent with grid {grid.shape}")
    return SpectralField(grid, rfftn_batch(values, grid.n, "forward"))


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
    k = g.k
    kdotv = k[0] * v.coeffs[0] + k[1] * v.coeffs[1] + k[2] * v.coeffs[2]
    out = v.coeffs - k * (kdotv * g.inv_ksq)
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


def _dealiased(prod: np.ndarray, grid: Grid) -> SpectralField:
    """Forward-transform real products and dealias."""
    return SpectralField(grid, rfftn_batch(prod, grid.n) * (grid.dealias_mask / grid.npoints))


def cross(u: SpectralField, v: SpectralField) -> SpectralField:
    """Physical-space cross product u x v, dealiased."""
    _check_compat(u, v)
    if u.m != 3:
        raise ValueError("cross expects 3-component fields")
    g = u.grid
    phys = irfftn_batch(np.concatenate([u.coeffs, v.coeffs]) * g.npoints, g.n, g.shape)
    prod = np.cross(phys[:3], phys[3:], axisa=0, axisb=0, axisc=0)
    return _dealiased(prod, g)


def advect(u: SpectralField, v: SpectralField) -> SpectralField:
    """Transport term (u . grad) v, formed in physical space and dealiased.

    u and the 3m derivatives of v go through one inverse batch.
    """
    _check_compat(u, v, same_m=False)
    if u.m != 3:
        raise ValueError("advect expects a 3-component advecting field")
    g, m = u.grid, v.m
    gradv = 1j * g.k[:, None] * v.coeffs  # (3, m, ...)
    stacked = np.concatenate([u.coeffs, gradv.reshape((3 * m,) + g.half_shape)])
    phys = irfftn_batch(stacked * g.npoints, g.n, g.shape)
    pu = phys[:3]
    pgrad = phys[3:].reshape((3, m) + g.shape)
    prod = np.einsum("j...,jm...->m...", pu, pgrad)
    return _dealiased(prod, g)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the torus via Parseval."""
    _check_compat(f, g)
    vol = (2.0 * np.pi) ** f.grid.n
    dot = (f.coeffs * np.conj(g.coeffs)).real
    return float(vol * np.sum(dot * f.grid.hermitian_weight))


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm, p in {1, 2, inf}, of the pointwise Euclidean magnitude.

    p = 2 is computed spectrally (Parseval); p = 1 and inf by grid quadrature,
    with all m components in one inverse batch, so the sup norm is the
    grid-sampled lower bound of the true sup.
    """
    g = f.grid
    if p == 2:
        vol = (2.0 * np.pi) ** g.n
        return float(np.sqrt(vol * np.sum(np.abs(f.coeffs) ** 2 * g.hermitian_weight)))
    sup = p in (np.inf, float("inf"), "inf")
    if not (sup or p == 1):
        raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")
    phys = to_physical(f)
    mag = np.sqrt((phys**2).sum(axis=0))
    return float(mag.max()) if sup else float(mag.sum() * g.cell_volume)
