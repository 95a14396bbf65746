"""Periodic-grid spectral field arithmetic.

Fields live on the torus [0, 2pi)^n (n = 2 or 3) and are real, so each is
stored as its real-FFT half spectrum: complex Fourier amplitudes on the modes
with k_last = 0 .. dims/2, the amplitude at -k being the conjugate of the one
at k.  Amplitudes are normalized so that a constant field c has coefficient c
at k = 0.  parseval is the one sum over the whole lattice: it counts every
interior k_last plane twice, for k and -k, through grid.hermitian_weight, as
only the shell sums also do; power is the one |f_k|^2.  All differential
operators are exact Fourier multipliers: _gradient_of is the one ik (x) f,
the gradient tensor of any m-component field, on the half spectrum or the
dealias cube; cross_into is the one cross-product kernel and curl_into,
i k x f through it, the one curl, which _curl_of forms in a new array;
transport_product is the one pointwise (u . grad) v.  Every product goes
through dealiased_product, the one home of the transform pair, its
normalization and the 2/3 rule, which keeps the cube
|k_i| <= dealias_cutoff(dims) = dims // 3; gather_cube and scatter_cube
copy that cube to and from a compact array, _on_cube gathers it into a new
one, _outside_cube measures a field's content outside such a cube, and
_support is the one exact in-cube test; _sampled_norm is the one grid
quadrature of the L^1 and sup norms.  The
k_last = 0 plane holds k and -k, so a real field has f_-k = conj f_k there;
_hermitian_defect measures how far a half spectrum is from that.  The batched
transforms are forward-normalized (scipy's norm="forward": the forward one
divides by the number of points, the inverse is unscaled), take either
layout and are bit-identical to scipy's full ones.  Each direction has one
body, which goes field by field and skips the lines that are zero outside a
box |k_i| <= kb: the inverse takes each field's own support box (_support),
or the cube's for cubes; the forward takes the cube, or the whole half
spectrum.  Both call scipy's pocketfft binding directly, the one private
scipy import, with one pocketfft thread per call.  On 3D grids from 64^3 up
a batch's fields are split into lanes, one per core this process may use,
in threads started per batch and joined before it returns (_run_lanes);
everywhere else, and in a process bound to one core, one lane runs the
plain loop and no thread is started.

2D grids carry 3-component fields that depend on (x, y) only ("2.5D"), so
curl and cross products remain well defined at 2D cost.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.fft._pocketfft import pypocketfft as _pocketfft


def rfftn_batch(arr: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Forward real FFT over the last n axes (half spectrum on the last axis),
    divided by the number of points: scipy.fft's norm="forward", and
    np.array_equal to it (see _rfftn_fields).

    Without out, the whole half spectrum of each field is returned.  Given
    out, with the trailing shape of the 2/3 dealias cube of arr's grid, only
    the cube of each field is formed and written to out, which is returned:
    np.array_equal to gather_cube of the whole transform.
    """
    dims = arr.shape[-1]
    if out is None:
        out = np.empty(arr.shape[:-1] + (dims // 2 + 1,), dtype=complex)
    else:
        expected = arr.shape[:-n] + _cube_shape(n, dealias_cutoff(dims))
        if out.shape != expected:
            raise ValueError(f"rfftn_batch: out has shape {out.shape}, expected the dealias cubes {expected}")
    _run_lanes(_rfftn_fields, arr.shape[:-n], n, dims, arr, n, out)
    return out


def irfftn_batch(arr: np.ndarray, n: int, shape: tuple) -> np.ndarray:
    """Inverse real FFT over the last n axes back to the given spatial shape,
    unscaled, the inverse of rfftn_batch: scipy.fft's norm="forward".

    arr holds half spectra (trailing shape that of shape's half spectrum) or
    dealias cubes (that of its 2/3 cube, see gather_cube); any other shape
    raises.  Each field is transformed on its own box (see _irfftn_fields):
    a half spectrum on its support (_support), a zero one written as zeros,
    and a cube on the cube.  The result is np.array_equal to scipy's full
    transform (of scatter_cube into zeros, for cubes).
    """
    shape = tuple(shape)
    dims = shape[-1]
    kc = dealias_cutoff(dims)
    half = shape[:-1] + (dims // 2 + 1,)
    cube = _cube_shape(n, kc)
    if arr.shape[-n:] not in (half, cube):
        raise ValueError(
            f"irfftn_batch: trailing shape {arr.shape[-n:]} is neither the half spectrum "
            f"{half} nor the dealias cube {cube} of grid {shape}"
        )
    support = _support(arr, n) if arr.shape[-n:] == half else np.full(arr.shape[:-n], kc)
    out = np.empty(arr.shape[:-n] + shape)
    _run_lanes(_irfftn_fields, arr.shape[:-n], n, dims, arr, n, shape, support, out)
    return out


def _support(arr: np.ndarray, n: int) -> np.ndarray:
    """Per field of the stacked half spectra arr, the smallest kb with every
    nonzero coefficient in the box |k_i| <= kb, or -1 for a zero field; NaN
    counts as nonzero.  One exact != 0 pass, then per-axis reductions."""
    batch, spatial = arr.shape[:-n], arr.shape[-n:]
    parts = np.ascontiguousarray(arr, dtype=complex).view(np.float64)
    reached = parts.reshape((-1, *spatial, 2)) != 0
    dims = spatial[0]
    lead = np.minimum(np.arange(dims), dims - np.arange(dims))
    support = np.full(reached.shape[0], -1)
    for axis in range(n):
        if axis < n - 1:
            hit = reached.reshape(reached.shape[:2] + (-1,)).any(axis=-1)
            reached = reached.any(axis=1)
            absk = lead
        else:
            hit = reached.any(axis=-1)
            absk = np.arange(spatial[-1])
        np.maximum(support, np.where(hit, absk, -1).max(axis=-1), out=support)
    return support.reshape(batch)


# Each body runs scipy's own passes, in its order, on the lines that are not
# all zero: its multi-axis inverse transforms the leading axes in order, then
# the last axis complex-to-real; its forward runs real-to-complex on the last
# axis, then the leading axes in order.  Each line sees the same 1-D pocketfft
# transform, and the 1/N applied per forward pass is exact for power-of-two
# lengths, so both bodies are bit-identical to scipy's transforms.  The passes
# call pocketfft directly with the axes, direction and normalization code
# scipy.fft passes it for norm="forward", which saves scipy's per-call
# dispatch, and with one pocketfft thread.  Fields go one at a time in each
# lane (see _run_lanes), so a lane's working set is one field's half
# spectrum, in a buffer of its own.
_DIVIDE_BY_N, _UNSCALED = 2, 0  # pocketfft's codes for norm="forward"

# Field lanes.  From _LANES_FROM points per axis on a 3D grid, the fields of
# a batch are split into L = min(_LANES, fields) lanes: the caller takes
# fields 0, L, 2L, ... and L - 1 threads, started by the batch and joined
# before it returns (_in_threads, which gives each lane a core of its own),
# take fields j, j + L, ... for j = 1 .. L - 1; between batches no lane
# thread runs, so a forked child loses none.
# pocketfft releases the GIL in each pass, so the lanes run on separate
# cores; a field's passes are the same in every lane, so the result is
# bit-identical to one lane's.  Lanes split fields, never passes:
# pocketfft's own threads on each pass were slower at 64^3.  Below 64^3 and
# in 2D one lane runs: at 2D 64^2 two lanes took twice as long
# (BENCH_31.json), and at 32^3 they lost end to end, 20-step runs going
# from 399 to 425 ms (3 of 12 pairs won) and from 404 to 475 ms (1 of 16).
# Product-level lanes inside the verification sweeps lost 0 of 8 pairs.
# Where a batch runs one lane, verification.run_verification runs its
# checks in two lanes instead (_field_lanes tells which).
# _LANES is the number of cores this process may use (taskset -c 0 makes
# it 1); no variable or option sets it.
_LANES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LANES_FROM = 64


def _field_lanes(n: int, dims: int) -> int:
    """The lanes a batch of at least _LANES fields takes on the grid (n, dims)."""
    return _LANES if n == 3 and dims >= _LANES_FROM else 1


def _in_threads(tasks) -> list:
    """Call tasks[0] here and each later task in a thread of its own, started
    before it and joined after it; return the results in task order.  Once
    every thread has joined, the exception of the first task that raised is
    re-raised instead.  One task starts no thread.

    Where the calling thread's affinity mask holds a core per task, task i
    runs on the i-th of them, the caller's mask being narrowed for the call
    and restored after it, also when a join is interrupted.  Left to the
    scheduler, a lane thread stayed on its creator's core for whole runs on
    a 2-vCPU guest, the two lanes taking turns: a fresh-process hmhd verify
    took 0.60-0.65 s unbound and 0.39-0.46 s with a core per lane
    (BENCH_33.json).  Binding only places the lanes: where the system
    refuses it, a lane keeps the mask it has and its task still runs."""
    results, errors = [None] * len(tasks), [None] * len(tasks)
    cores = sorted(os.sched_getaffinity(0)) if len(tasks) > 1 and hasattr(os, "sched_setaffinity") else []
    pin = len(cores) >= len(tasks)

    def bind(mask):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, mask)

    def call(i):
        try:
            if pin:
                bind({cores[i]})
            results[i] = tasks[i]()
        except BaseException as exc:
            errors[i] = exc

    threads = [threading.Thread(target=call, args=(i,), name=f"hallmhd-lane-{i}") for i in range(1, len(tasks))]
    for t in threads:
        t.start()
    try:
        call(0)
        for t in threads:
            t.join()
    finally:
        if pin:
            bind(cores)
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _run_lanes(body, batch: tuple, n: int, dims: int, *args) -> None:
    """body(*args, fields) over the field indices of the batch shape, fields
    an iterable of them, in lanes as above.  One lane runs body on all of
    them in order, here, and starts no thread.  Otherwise the batch starts
    its L - 1 lane threads and joins them before it returns or re-raises a
    lane's exception, the first lane's first."""
    lanes = min(_field_lanes(n, dims), math.prod(batch))
    if lanes <= 1:
        body(*args, np.ndindex(batch))
        return
    fields = list(np.ndindex(batch))
    _in_threads([functools.partial(body, *args, fields[j::lanes]) for j in range(lanes)])


def _irfftn_fields(arr: np.ndarray, n: int, shape: tuple, support: np.ndarray, out: np.ndarray, fields) -> None:
    """irfftn of the stacked half spectra or dealias cubes arr at the given
    batch indices into out, per field on the box |k_i| <= kb of its support
    kb: the box goes into a zeroed half spectrum of this lane's own and each
    leading axis is transformed only on the lines whose later leading indices
    lie in the box's rows and whose k_last <= kb; the other k_last planes stay
    zero for the final complex-to-real pass.  A field with kb = -1 is zero."""
    dims = shape[-1]
    half = np.zeros(shape[:-1] + (dims // 2 + 1,), dtype=complex)
    from_cube = arr.shape[-n:] != half.shape
    for i in fields:
        kb = int(support[i])
        if kb < 0:
            out[i] = 0.0
            continue
        if from_cube:
            scatter_cube(arr[i], half)
        else:
            for rows in itertools.product(_cube_rows(dims, kb), repeat=n - 1):
                box = rows + (slice(0, kb + 1),)
                half[box] = arr[i][box]
        low = half[..., : kb + 1]
        for axis in range(n - 1):
            for rows in itertools.product(_cube_rows(dims, kb), repeat=n - 2 - axis):
                lines = low[(slice(None),) * (axis + 1) + rows]
                _pocketfft.c2c(lines, (axis,), False, _UNSCALED, lines, 1)
        _pocketfft.c2r(half, (n - 1,), dims, False, _UNSCALED, out[i], 1)
        low[...] = 0.0


def _rfftn_fields(arr: np.ndarray, n: int, out: np.ndarray, fields) -> None:
    """rfftn of the stacked real fields arr at the given batch indices into
    out, whose trailing shape is the box |k_i| <= kb of a half spectrum: the
    dealias cube, or the whole half spectrum (kb = dims/2).  Per field, in a
    half spectrum of this lane's own, each leading axis is transformed only
    on the lines whose earlier leading indices lie in the box's rows and
    whose k_last <= kb, and the box is gathered into out."""
    dims, kb = arr.shape[-1], out.shape[-1] - 1
    half = np.empty(arr.shape[-n:-1] + (dims // 2 + 1,), dtype=complex)
    low = half[..., : kb + 1]
    for i in fields:
        _pocketfft.r2c(arr[i], (n - 1,), True, _DIVIDE_BY_N, half, 1)
        for axis in range(n - 1):
            for rows in itertools.product(_cube_rows(dims, kb), repeat=axis):
                lines = low[rows]
                _pocketfft.c2c(lines, (axis,), True, _DIVIDE_BY_N, lines, 1)
        gather_cube(half, out[i])


def dealias_cutoff(dims: int) -> int:
    """kc = floor((2/3)(dims/2)): the 2/3 rule keeps the modes with |k_i| <= kc
    on every axis, the dealias cube."""
    return dims // 3


def _cube_shape(n: int, kc: int) -> tuple:
    """Trailing shape of the compact cube |k_i| <= kc of an n-D half spectrum."""
    return (2 * kc + 1,) * (n - 1) + (kc + 1,)


def _cube_rows(dims: int, kb: int) -> tuple:
    """The slabs of the box |k| <= kb on a leading axis: k = 0 .. kb and, for
    kb > 0, -kb .. -1; the whole axis once if the two meet (2 kb >= dims), so
    the Nyquist line is not taken twice."""
    if 2 * kb >= dims:
        return (slice(None),)
    return (slice(0, kb + 1), slice(dims - kb, None)) if kb > 0 else (slice(0, 1),)


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
            list(zip(_cube_rows(dims, kc), (slice(0, kc + 1), slice(kc + 1, None))))
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


def _on_cube(g: Grid, a: np.ndarray) -> np.ndarray:
    """The dealias cube of a half-spectrum array a of grid g, in a new array."""
    return gather_cube(a, np.empty(a.shape[: -g.n] + g.cube_shape, dtype=a.dtype))


def scatter_cube(comp: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Write a compact cube array into the cube of a half-spectrum array; the
    modes of full outside the cube are left as they are.  Returns full."""
    for f, c in _cube_blocks(full.shape, comp.shape):
        full[f] = comp[c]
    return full


def _outside_cube(f: SpectralField, cutoff: int, mag: np.ndarray | None = None, peak: float = 0.0) -> float:
    """Largest |coefficient| with some |k_i| > cutoff, relative to the largest
    of all (0 for a zero field).  A caller holding mag = np.abs(f.coeffs) and
    its largest entry peak passes both, and mag is overwritten."""
    if mag is None:
        mag = np.abs(f.coeffs)
        peak = mag.max(initial=0.0)
    # zero the cube |k_i| <= cutoff; what is left lies outside it
    scatter_cube(np.zeros((f.m, *_cube_shape(f.grid.n, cutoff))), mag)
    return float(mag.max() / peak) if peak > 0 else 0.0


def _hermitian_defect(f: SpectralField) -> float:
    """Largest |f_k - conj f_-k| on the k_last = 0 plane, which holds both k
    and -k: 0 for the half spectrum of a real field."""
    plane = f.coeffs[..., 0]
    neg = (-np.arange(f.grid.dims)) % f.grid.dims
    mirror = plane[(slice(None), *np.ix_(*[neg] * (f.grid.n - 1)))]
    return float(np.abs(plane - np.conj(mirror)).max(initial=0.0))


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
            raise ValueError(f"grid.n: spatial dimension must be 2 or 3, got {self.n}")
        d = self.dims
        if d < 16 or (d & (d - 1)) != 0:
            raise ValueError(f"grid.dims: must be a power of two >= 16, got {d}")

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
        """The cached entry key, built by builder() the first time.  Two
        threads may both build it; the first stored is kept and returned to
        both, so callers of one grid share one array."""
        found = self._cache.get(key)
        if found is None:
            found = self._cache.setdefault(key, builder())
        return found

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
        return _cube_shape(self.n, dealias_cutoff(self.dims))

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
    return irfftn_batch(f.coeffs, f.grid.n, f.grid.shape)


def to_spectral(grid: Grid, values: np.ndarray) -> SpectralField:
    """Transform real grid values to a SpectralField."""
    values = np.asarray(values, dtype=float)
    if values.ndim == grid.n:
        values = values[None]
    if values.shape[1:] != grid.shape:
        raise ValueError(f"value shape {values.shape} inconsistent with grid {grid.shape}")
    return SpectralField(grid, rfftn_batch(values, grid.n))


def cross_into(out: np.ndarray, a: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = a x b over the leading axis, one component at a time, and return
    out; tmp is one-component scratch, and out shares no memory with a, b, tmp."""
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[l], out=out[i])
        np.multiply(a[l], b[j], out=tmp)
        np.subtract(out[i], tmp, out=out[i])
    return out


def curl_into(out: np.ndarray, k: np.ndarray, f: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = i k x f, the curl multiplier, by cross_into; returns out."""
    cross_into(out, k, f, tmp)
    out *= 1j
    return out


def dealiased_product(grid: Grid, spec: np.ndarray, product, out: np.ndarray | None = None) -> np.ndarray:
    """The 2/3 dealias cube, shape (p, *grid.cube_shape), of pointwise products.

    spec, the stacked input half spectra or dealias cubes, goes to physical
    space in one inverse batch; product maps those values to the stacked real
    products (it may use its argument as scratch, and may form the products in
    place in it and return a view of it), whose cubes come back in one forward
    batch.  The transforms are forward-normalized, exact as npoints is a power
    of two.  out receives the cube.
    """
    prods = product(irfftn_batch(spec, grid.n, grid.shape))
    if out is None:
        out = np.empty(prods.shape[: -grid.n] + grid.cube_shape, dtype=complex)
    return rfftn_batch(prods, grid.n, out)


def _expanded(grid: Grid, comp: np.ndarray) -> SpectralField:
    """The SpectralField with dealias cube comp, zero outside it."""
    full = np.zeros((len(comp), *grid.half_shape), dtype=complex)
    return SpectralField(grid, scatter_cube(comp, full))


def _gradient_of(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """ik (x) c of the stacked m-component spectra c, given k on the same
    layout (half spectrum or dealias cube): 3m components ordered (j, m),
    component j*m + c being d_j c_c.  Given the rows k[j0:j1] of k, it
    forms the derivatives d_j of j0 <= j < j1 alone, the same components of
    the whole tensor."""
    return ((1j * k)[:, None] * c).reshape((len(k) * len(c),) + c.shape[1:])


def _curl_of(k: np.ndarray, c: np.ndarray) -> np.ndarray:
    """i k x c of a 3-component spectrum c, given k on the same layout, in a
    new array."""
    return curl_into(np.empty_like(c), k, c, np.empty_like(c[0]))


def gradient(f: SpectralField) -> SpectralField:
    """Gradient tensor of an m-component field (_gradient_of; d_z = 0 in
    2D); for a scalar field, the gradient vector."""
    return SpectralField(f.grid, _gradient_of(f.grid.k, f.coeffs))


def power(coeffs: np.ndarray) -> np.ndarray:
    """|f_k|^2 summed over the components (the leading axis) of coeffs."""
    sq = coeffs.real**2
    sq += coeffs.imag**2
    return sq.sum(axis=0)


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
    return SpectralField(v.grid, _curl_of(v.grid.k, v.coeffs))


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
    """2/3-rule truncation: the dealias cube of f, zero outside it."""
    g = f.grid
    return _expanded(g, _on_cube(g, f.coeffs))


def multiply(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise physical-space product, dealiased (2/3 rule).

    Componentwise if m matches; a scalar factor broadcasts over a vector.
    """
    _check_compat(f, g, same_m=False)
    if f.m != g.m and 1 not in (f.m, g.m):
        raise ValueError(f"component-count mismatch: {f.m} vs {g.m}")
    spec, m = np.concatenate([f.coeffs, g.coeffs]), f.m
    return _expanded(f.grid, dealiased_product(f.grid, spec, lambda phys: phys[:m] * phys[m:]))


def cross(u: SpectralField, v: SpectralField) -> SpectralField:
    """Physical-space cross product u x v, dealiased."""
    _check_compat(u, v)
    if u.m != 3:
        raise ValueError("cross expects 3-component fields")
    g, prod = u.grid, np.empty((4, *u.grid.shape))
    spec = np.concatenate([u.coeffs, v.coeffs])
    return _expanded(g, dealiased_product(g, spec, lambda p: cross_into(prod[:3], p[:3], p[3:], prod[3])))


def transport_product(phys: np.ndarray) -> np.ndarray:
    """sum_j u_j d_j v_c at the grid points: the product callback of a
    dealiased_product whose input stacks u's 3 components and the 3m of
    grad v in gradient's (j, m) order."""
    return _transport(phys[:3], phys[3:])


def _transport(u: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """transport_product of the samples of u and, apart from them, of the 3m
    components of grad v; any m of v's components give the same values as
    in the whole product."""
    m = len(grad) // 3
    return np.einsum("j...,jm...->m...", u, grad.reshape((3, m) + grad.shape[1:]))


def advect(u: SpectralField, v: SpectralField) -> SpectralField:
    """Transport term (u . grad) v, formed in physical space and dealiased.

    u and the 3m derivatives of v go through one inverse batch.
    """
    _check_compat(u, v, same_m=False)
    if u.m != 3:
        raise ValueError("advect expects a 3-component advecting field")
    spec = np.concatenate([u.coeffs, gradient(v).coeffs])
    return _expanded(u.grid, dealiased_product(u.grid, spec, transport_product))


def parseval(grid: Grid, spectrum: np.ndarray) -> float:
    """(2 pi)^n sum_k spectrum over the whole lattice and any leading axes, for
    a half-layout spectrum even in k: Parseval's integral over the torus."""
    return float((2.0 * np.pi) ** grid.n * np.sum(spectrum * grid.hermitian_weight))


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the torus via Parseval."""
    _check_compat(f, g)
    prod = np.conj(g.coeffs)
    return parseval(f.grid, np.multiply(f.coeffs, prod, out=prod).real)


def _sampled_norm(grid: Grid, phys, sup: bool) -> float:
    """Grid quadrature of the pointwise Euclidean magnitude of the stacked
    samples phys: its largest value (sup) or its L^1 integral.  Samples whose
    squares overflow are scaled by a power of two first, so a finite norm is
    not inf.  phys may instead be a function returning the samples as an
    iterable of stacked chunks, in component order; it is called again only
    where the squares overflow, and one chunk at a time is held here."""
    chunks = phys if callable(phys) else lambda: (phys,)

    def quadrature(scale):
        # the components' squares summed in order, one component at a time
        mag = sq = None
        for chunk in chunks():
            for c in chunk:
                c = np.ldexp(c, scale) if scale else c
                if mag is None:
                    mag, sq = np.square(c), np.empty(c.shape)
                else:
                    mag += np.square(c, out=sq)
        np.sqrt(mag, out=mag)
        return mag.max() if sup else mag.sum() * grid.cell_volume

    with np.errstate(over="ignore"):
        norm = quadrature(0)
        if np.isinf(norm):
            finite, peak = True, 0.0
            for chunk in chunks():
                finite = finite and bool(np.isfinite(chunk).all())
                peak = max(peak, np.abs(chunk).max())
            if finite:
                # the squares or their sum overflowed: redo on samples scaled below 1
                e = int(np.frexp(peak)[1])
                norm = np.ldexp(quadrature(-e), e)
    return float(norm)


def lp_norm(f: SpectralField, p) -> float:
    """L^p norm, p in {1, 2, inf}, of the pointwise Euclidean magnitude.

    p = 2 is computed spectrally (Parseval); p = 1 and inf by grid quadrature
    (_sampled_norm), with all m components in one inverse batch, so the sup
    norm is the grid-sampled lower bound of the true sup.
    """
    g = f.grid
    if p == 2:
        return float(np.sqrt(parseval(g, power(f.coeffs))))
    sup = p in (np.inf, float("inf"), "inf")
    if not (sup or p == 1):
        raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")
    return _sampled_norm(g, to_physical(f), sup)
