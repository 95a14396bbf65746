"""Spectral core: transforms, multipliers, products, norms.

Oracles are closed-form trigonometric identities evaluated with plain
numpy.fft, independent of the package's own transform helpers.
"""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from scipy import fft as sfft

from hallmhd.spectral import (
    Grid,
    SpectralField,
    advect,
    cross,
    cross_into,
    curl,
    dealias,
    dealiased_product,
    divergence,
    gather_cube,
    gradient,
    inner_product,
    irfftn_batch,
    leray_project,
    lp_norm,
    multiply,
    rfftn_batch,
    scatter_cube,
    to_physical,
    to_spectral,
)
from hallmhd import PhysicalParams, SobolevParams, SolverConfig, make_initial, spectral, step
from hallmhd.littlewood_paley import resolved_band
from hallmhd.random_fields import _hermitian_symmetrize, random_band_field
from hallmhd.solver import _taylor_green_like, divergence_drift


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 16)


@pytest.fixture(scope="module")
def grid2d():
    return Grid(2, 16)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 32)
    with pytest.raises(ValueError):
        Grid(3, 24)  # not a power of two
    with pytest.raises(ValueError):
        Grid(3, 8)  # too small


def test_constant_normalization(grid):
    f = to_spectral(grid, np.full(grid.shape, 2.5))
    assert f.coeffs[0, 0, 0, 0] == pytest.approx(2.5)
    off = f.coeffs.copy()
    off[0, 0, 0, 0] = 0.0
    assert np.abs(off).max() < 1e-15


def test_cosine_coefficients(grid):
    # cos(x) = (e^{ix} + e^{-ix}) / 2: amplitude 1/2 at k = (+-1, 0, 0)
    x = grid.coordinates()[0]
    f = to_spectral(grid, np.cos(x))
    assert f.coeffs[0, 1, 0, 0] == pytest.approx(0.5)
    assert f.coeffs[0, -1, 0, 0] == pytest.approx(0.5)


def test_roundtrip_random(grid):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((3,) + grid.shape)
    back = to_physical(to_spectral(grid, vals))
    assert np.abs(back - vals).max() < 1e-12


def test_hermitian_symmetrize_is_projection(grid):
    rng = np.random.default_rng(4)
    c = rng.standard_normal((1,) + grid.shape) + 1j * rng.standard_normal((1,) + grid.shape)
    once = _hermitian_symmetrize(c, grid.n)
    twice = _hermitian_symmetrize(once, grid.n)
    assert np.abs(once - twice).max() < 1e-14
    # symmetrized coefficients give real physical values
    phys = np.fft.ifftn(once[0] * grid.npoints, axes=(0, 1, 2))
    assert np.abs(phys.imag).max() < 1e-10 * max(1.0, np.abs(phys.real).max())


@pytest.mark.parametrize("n, dims", [(2, 16), (3, 16), (3, 32)])
def test_random_band_field_matches_full_lattice_draw(n, dims):
    # the full-lattice construction: mask the whole draw, symmetrize, slice
    g = Grid(n, dims)
    freq = np.fft.fftfreq(dims, 1.0 / dims)
    kmag = np.sqrt(sum(np.meshgrid(*[freq**2] * n, indexing="ij")))
    for seed, band in ((1, 3.5), (4, 100.0), (5, 0.5)):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((3, *g.shape)) + 1j * rng.standard_normal((3, *g.shape))
        full = _hermitian_symmetrize(raw * ((kmag > 0) & (kmag <= band)), n)
        ref = leray_project(SpectralField(g, full[..., : dims // 2 + 1]))
        assert np.array_equal(random_band_field(g, seed, band).coeffs, ref.coeffs)


def _projected_on_the_whole_spectrum(g, seed, band):
    # the band-box draw written into a zero half spectrum, then leray_project
    # over all of it: random_band_field as it was before it projected its box alone
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((3, *g.shape)), rng.standard_normal((3, *g.shape))
    freq = np.fft.fftfreq(g.dims, 1.0 / g.dims)
    rows = [np.flatnonzero(np.abs(freq) <= band)] * (g.n - 1)
    rows.append(np.flatnonzero(np.arange(g.dims // 2 + 1) <= band))
    box = (slice(None),) + np.ix_(*rows)
    partner = (slice(None),) + np.ix_(*[(-r) % g.dims for r in rows])
    kmag = np.sqrt(sum(np.ix_(*[freq[r] ** 2 for r in rows])))
    mask = (kmag > 0) & (kmag <= band)
    coeffs = np.zeros((3,) + g.half_shape, dtype=complex)
    coeffs[box] = 0.5 * ((re[box] + 1j * im[box]) * mask + np.conj((re[partner] + 1j * im[partner]) * mask))
    return leray_project(SpectralField(g, coeffs))


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (3, 64), (2, 16), (2, 64)])
def test_random_band_field_projects_its_box_as_the_whole_spectrum(n, dims):
    # the same bytes, zero signs included
    g = Grid(n, dims)
    for seed, band in ((6, resolved_band(g)), (7, 4.5)):
        ref = _projected_on_the_whole_spectrum(g, seed, band)
        assert random_band_field(g, seed, band).coeffs.tobytes() == ref.coeffs.tobytes()


def test_derivatives_exact_on_trig(grid):
    x, y, z = grid.coordinates()
    f = to_spectral(grid, np.sin(2 * x) * np.cos(y))
    dfdx, dfdy, _ = to_physical(gradient(f))
    assert np.abs(dfdx - 2 * np.cos(2 * x) * np.cos(y)).max() < 1e-12
    assert np.abs(dfdy + np.sin(2 * x) * np.sin(y)).max() < 1e-12


def test_gradient_curl_divergence_identities(grid):
    x, y, z = grid.coordinates()
    f = to_spectral(grid, np.sin(x) * np.cos(2 * y) * np.sin(z))
    # curl grad = 0 and div curl = 0, both exactly as multipliers
    g = gradient(f)
    assert lp_norm(curl(g), 2) < 1e-13 * max(1.0, lp_norm(g, 2))
    rng = np.random.default_rng(5)
    v = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    assert lp_norm(divergence(curl(v)), 2) < 1e-12 * lp_norm(v, 2)


def _ref_grad_field(f):
    # the per-axis gradient tensor gradient replaced
    comps = [1j * f.grid.k[ax] * f.coeffs for ax in range(3)]
    return SpectralField(f.grid, np.concatenate(comps))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 3])
def test_gradient_tensor_matches_per_axis_derivatives(n, m):
    g = Grid(n, 16)
    f = random_band_field(g, 40 + n, 6.0)
    f = SpectralField(g, f.coeffs[:m])
    grad = gradient(f)
    assert grad.m == 3 * m
    assert np.array_equal(grad.coeffs, _ref_grad_field(f).coeffs)


def test_curl_oracle(grid):
    x, y, z = grid.coordinates()
    vals = np.stack([np.sin(y), np.sin(z), np.sin(x)])
    w = to_physical(curl(to_spectral(grid, vals)))
    expected = np.stack([-np.cos(z), -np.cos(x), -np.cos(y)])
    assert np.abs(w - expected).max() < 1e-12


def test_leray_projection(grid):
    rng = np.random.default_rng(6)
    v = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    pv = leray_project(v)
    assert lp_norm(divergence(pv), 2) < 1e-11 * lp_norm(pv, 2)
    # idempotent; mean (k = 0) mode untouched
    assert lp_norm(leray_project(pv) - pv, 2) < 1e-13 * lp_norm(pv, 2)
    assert np.allclose(pv.coeffs[:, 0, 0, 0], v.coeffs[:, 0, 0, 0])
    # already divergence-free fields are fixed points
    assert lp_norm(leray_project(pv) - pv, 2) < 1e-13 * lp_norm(pv, 2)


def test_leray_output_survives_physical_roundtrip(grid):
    # the half spectrum holds k_last = +N/2 for a Nyquist mode and for its
    # mirror, so the projection could break their conjugate symmetry there;
    # to_spectral leaves only roundoff on those planes, and the test bounds it
    pv = _taylor_green_like(grid)
    back = to_spectral(grid, to_physical(pv))
    assert np.abs(back.coeffs - pv.coeffs).max() <= 1e-15
    assert divergence_drift(back) < 1e-13


def test_dealias_mask_two_thirds(grid):
    # N = 16: keep |k_i| <= 10/3 -> integer modes up to 5? no: 2/3 * 8 = 5.33 -> keep <= 5
    mask = grid.dealias_mask
    k = grid.k
    inside = (np.abs(k[0]) <= 16 / 3) & (np.abs(k[1]) <= 16 / 3) & (np.abs(k[2]) <= 16 / 3)
    assert np.array_equal(mask, inside)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dims", [16, 32, 64, 128])
def test_cube_helpers_match_dealias_mask(n, dims):
    # no FFT plan is built: the cube and the mask come from dims alone
    g = Grid(n, dims)
    kc = dims // 3
    assert g.cube_shape == (2 * kc + 1,) * (n - 1) + (kc + 1,)
    ones = scatter_cube(np.ones(g.cube_shape, dtype=bool), np.zeros(g.half_shape, dtype=bool))
    assert np.array_equal(ones, g.dealias_mask)
    k = g.k[:n]
    assert np.array_equal(g.dealias_mask, (np.abs(k) <= (2.0 / 3.0) * (dims / 2)).all(axis=0))
    comp = np.random.default_rng(dims + n).standard_normal((2, *g.cube_shape))
    full = scatter_cube(comp, np.zeros((2, *g.half_shape)))
    assert np.array_equal(gather_cube(full, np.empty_like(comp)), comp)
    # leading axes of the cube run k = 0 .. kc, -kc .. -1
    kx = gather_cube(g.k, np.empty((3, *g.cube_shape)))[0]
    assert np.array_equal(kx[(slice(None),) + (0,) * (n - 1)], np.r_[0 : kc + 1, -kc:0])


def test_multiply_matches_product_formula(grid):
    x, y, z = grid.coordinates()
    f = to_spectral(grid, np.cos(x))
    g = to_spectral(grid, np.cos(2 * x))
    prod = to_physical(multiply(f, g))
    # cos a cos b = (cos(a+b) + cos(a-b)) / 2; modes 1 and 3 both survive dealiasing
    expected = 0.5 * (np.cos(3 * x) + np.cos(x))
    assert np.abs(prod - expected).max() < 1e-13


def test_multiply_dealiases(grid):
    # k = 5 squared folds onto k = 10 > cutoff 5.33; product must be pure mean + nothing
    x = grid.coordinates()[0]
    f = to_spectral(grid, np.cos(5 * x))
    prod = multiply(f, f)
    # cos^2(5x) = 1/2 + cos(10x)/2; the k = 10 part must be removed, not aliased
    coef = prod.coeffs[0]
    assert coef[0, 0, 0] == pytest.approx(0.5)
    rest = coef.copy()
    rest[0, 0, 0] = 0.0
    assert np.abs(rest).max() < 1e-14


def test_cross_oracle(grid):
    ex = to_spectral(grid, np.stack([np.ones(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)]))
    ey = to_spectral(grid, np.stack([np.zeros(grid.shape), np.ones(grid.shape), np.zeros(grid.shape)]))
    ez = cross(ex, ey)
    vals = to_physical(ez)
    assert np.abs(vals[2] - 1.0).max() < 1e-13
    assert np.abs(vals[:2]).max() < 1e-13


def test_advect_oracle(grid):
    x, y, z = grid.coordinates()
    # u = (sin y, 0, 0), v = (0, cos x, 0): (u . grad) v = sin(y) d/dx (0, cos x, 0)
    u = to_spectral(grid, np.stack([np.sin(y), np.zeros_like(x), np.zeros_like(x)]))
    v = to_spectral(grid, np.stack([np.zeros_like(x), np.cos(x), np.zeros_like(x)]))
    got = to_physical(advect(u, v))
    expected = np.stack([np.zeros_like(x), -np.sin(y) * np.sin(x), np.zeros_like(x)])
    assert np.abs(got - expected).max() < 1e-12


def test_inner_product_matches_quadrature(grid):
    rng = np.random.default_rng(7)
    f = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    g = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    direct = (to_physical(f) * to_physical(g)).sum() * grid.cell_volume
    assert inner_product(f, g) == pytest.approx(direct, rel=1e-12)


def test_lp_norms(grid):
    x = grid.coordinates()[0]
    f = to_spectral(grid, np.sin(x))
    # ||sin x||_2^2 over [0,2pi)^3 = (2pi)^3 / 2
    assert lp_norm(f, 2) == pytest.approx(np.sqrt((2 * np.pi) ** 3 / 2), rel=1e-12)
    assert lp_norm(f, np.inf) == pytest.approx(1.0, rel=1e-12)
    # positive integrand: quadrature is exact for trig polynomials below the grid degree
    g2 = to_spectral(grid, 2.0 + np.sin(x))
    assert lp_norm(g2, 1) == pytest.approx(2.0 * (2 * np.pi) ** 3, rel=1e-12)
    with pytest.raises(ValueError):
        lp_norm(f, 3)


@pytest.mark.parametrize("p", [1, np.inf])
def test_lp_norm_of_samples_whose_squares_overflow(grid, p):
    # scaling by a power of two is exact, so is the norm's, though the
    # squares of 2**600 * f overflow; NumPy must not warn of it either
    f = random_band_field(grid, 44, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp_norm(2.0**600 * f, p) == 2.0**600 * lp_norm(f, p)


@pytest.mark.parametrize("p", [1, np.inf])
def test_sampled_norm_is_lp_norms_quadrature(grid, p):
    f = random_band_field(grid, 45, 4.0)
    phys = to_physical(f)
    assert spectral._sampled_norm(grid, phys, sup=p == np.inf) == lp_norm(f, p)
    # samples of about 1e200: the squares overflow, the norm does not
    big = 1e200 * phys / np.abs(phys).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = spectral._sampled_norm(grid, big, sup=p == np.inf)
    assert np.isfinite(norm) and norm > 1e200


def test_2d_carries_three_components(grid2d):
    x, y = grid2d.coordinates()
    v = to_spectral(grid2d, np.stack([np.sin(y), np.cos(x), np.sin(x)]))
    w = curl(v)
    # z-derivatives vanish: curl = (d_y v_z, -d_x v_z, d_x v_y - d_y v_x)
    got = to_physical(w)
    expected = np.stack([np.zeros_like(x), -np.cos(x), -np.sin(x) - np.cos(y)])
    assert np.abs(got - expected).max() < 1e-12


def test_field_arithmetic_and_mismatch(grid, grid2d):
    f = SpectralField.zero(grid, 3)
    g = SpectralField.zero(grid, 1)
    with pytest.raises(ValueError):
        f + g
    h = SpectralField.zero(grid2d, 3)
    with pytest.raises(ValueError):
        f + h
    assert lp_norm(2.0 * f - f * 2.0, 2) == 0.0


def test_dealias_idempotent(grid):
    rng = np.random.default_rng(10)
    f = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    once = dealias(f)
    assert np.array_equal(once.coeffs, dealias(once).coeffs)


# References for bit identity: the product bodies before dealiased_product,
# each with its own transform pair, npoints scaling and mask multiply.


def _ref_dealiased(prod, grid):
    return sfft.rfftn(prod, axes=tuple(range(-grid.n, 0))) * (grid.dealias_mask / grid.npoints)


def _ref_cross(u, v):
    g = u.grid
    phys = sfft.irfftn(np.concatenate([u.coeffs, v.coeffs]) * g.npoints, s=g.shape, axes=tuple(range(-g.n, 0)))
    prod = np.cross(phys[:3], phys[3:], axisa=0, axisb=0, axisc=0)
    return _ref_dealiased(prod, g)


def _ref_advect(u, v):
    g, m = u.grid, v.m
    gradv = 1j * g.k[:, None] * v.coeffs
    stacked = np.concatenate([u.coeffs, gradv.reshape((3 * m,) + g.half_shape)])
    phys = sfft.irfftn(stacked * g.npoints, s=g.shape, axes=tuple(range(-g.n, 0)))
    pgrad = phys[3:].reshape((3, m) + g.shape)
    return _ref_dealiased(np.einsum("j...,jm...->m...", phys[:3], pgrad), g)


def _ref_multiply(f, g):
    pf, pg = to_physical(f), to_physical(g)
    if f.m == g.m:
        prod = pf * pg
    elif f.m == 1:
        prod = pf[0] * pg
    else:
        prod = pf * pg[0]
    return to_spectral(f.grid, prod).coeffs * f.grid.dealias_mask


def _ref_curl(v):
    k, c = v.grid.k, v.coeffs
    out = np.empty_like(c)
    out[0] = 1j * (k[1] * c[2] - k[2] * c[1])
    out[1] = 1j * (k[2] * c[0] - k[0] * c[2])
    out[2] = 1j * (k[0] * c[1] - k[1] * c[0])
    return out


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (2, 64)])
def test_products_bit_identical_to_inline_transforms(n, dims):
    g = Grid(n, dims)
    rng = np.random.default_rng(dims + n)
    # u fills the whole half spectrum, Nyquist planes included; v and s are band-limited
    u = to_spectral(g, rng.standard_normal((3,) + g.shape))
    v = random_band_field(g, dims, g.kmax)
    s = to_spectral(g, rng.standard_normal(g.shape))
    for a, b in ((u, v), (v, u), (v, v)):
        assert np.array_equal(cross(a, b).coeffs, _ref_cross(a, b))
        assert np.array_equal(advect(a, b).coeffs, _ref_advect(a, b))
        assert np.array_equal(multiply(a, b).coeffs, _ref_multiply(a, b))
        assert np.array_equal(curl(a).coeffs, _ref_curl(a))
    assert np.array_equal(advect(u, s).coeffs, _ref_advect(u, s))
    for a, b in ((s, u), (u, s), (s, s)):
        assert np.array_equal(multiply(a, b).coeffs, _ref_multiply(a, b))
    assert np.array_equal(dealias(u).coeffs, u.coeffs * g.dealias_mask)


# The batched transforms, forward-normalized, against scipy's full transforms
# in the normalization norm, rescaled to the forward one: npoints is a power
# of two, so the rescaling is exact and both references match bit for bit.


def _ref_irfftn(spec, g, norm):
    scale = g.npoints if norm is None else 1
    return sfft.irfftn(spec * scale, s=g.shape, axes=tuple(range(-g.n, 0)), norm=norm)


def _ref_rfftn(vals, g, norm):
    scale = 1 / g.npoints if norm is None else 1
    return sfft.rfftn(vals, axes=tuple(range(-g.n, 0)), norm=norm) * scale


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dims", [16, 32, 64])
@pytest.mark.parametrize("p", [1, 3, 12])
@pytest.mark.parametrize("norm", [None, "forward"])
def test_cube_transforms_bit_identical_to_full(n, dims, p, norm):
    g = Grid(n, dims)
    rng = np.random.default_rng(dims + n + p)
    cubes = rng.standard_normal((p, *g.cube_shape)) + 1j * rng.standard_normal((p, *g.cube_shape))
    full = scatter_cube(cubes, np.zeros((p, *g.half_shape), dtype=complex))
    assert np.array_equal(irfftn_batch(cubes, n, g.shape), _ref_irfftn(full, g, norm))
    vals = rng.standard_normal((p, *g.shape))
    out = np.empty((p, *g.cube_shape), dtype=complex)
    assert rfftn_batch(vals, n, out) is out
    whole = _ref_rfftn(vals, g, norm)
    assert np.array_equal(out, gather_cube(whole, np.empty_like(out)))
    assert np.array_equal(rfftn_batch(vals, n), whole)


def _box_field(g, rng, kb):
    """One random half spectrum supported on the box |k_i| <= kb."""
    c = rng.standard_normal(g.half_shape) + 1j * rng.standard_normal(g.half_shape)
    return c * (np.abs(g.k) <= kb).all(axis=0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dims", [16, 32, 64])
@pytest.mark.parametrize("norm", [None, "forward"])
def test_irfftn_batch_bit_identical_on_measured_supports(n, dims, norm, monkeypatch):
    g = Grid(n, dims)
    kc = g.cube_shape[-1] - 1
    rng = np.random.default_rng(dims + n)
    # zero fields and supports kb = 0, 1, 3 and kc, all inside the dealias cube
    inside = np.stack([np.zeros(g.half_shape, dtype=complex)]
                      + [_box_field(g, rng, kb) for kb in (0, 1, kc, 3)]
                      + [np.zeros(g.half_shape, dtype=complex)])
    pruned = []
    real_run = spectral._run_lanes

    def spy(body, batch, rank, dims, arr, *rest):
        pruned.append(arr.shape)
        assert body is spectral._irfftn_fields
        return real_run(body, batch, rank, dims, arr, *rest)

    monkeypatch.setattr(spectral, "_run_lanes", spy)
    assert np.array_equal(irfftn_batch(inside, n, g.shape), _ref_irfftn(inside, g, norm))
    assert pruned == [inside.shape]
    # a non-contiguous view of the same batch
    spaced = np.zeros((2 * len(inside), *g.half_shape), dtype=complex)
    spaced[::2] = inside
    assert np.array_equal(irfftn_batch(spaced[::2], n, g.shape), _ref_irfftn(inside, g, norm))
    # one mode just outside the cube, on a leading axis or on k_last, widens
    # that field's box; the batch still takes the one body
    for mode in ((kc + 1,) + (0,) * (n - 1), (0,) * (n - 1) + (kc + 1,)):
        wide = inside.copy()
        wide[(2, *mode)] = 1e-300
        pruned.clear()
        assert np.array_equal(irfftn_batch(wide, n, g.shape), _ref_irfftn(wide, g, norm))
        assert pruned == [wide.shape]
    # a field that fills the whole half spectrum, Nyquist planes included
    filled = inside.copy()
    filled[1] = _box_field(g, rng, dims // 2)
    assert (filled[1] != 0).all()
    pruned.clear()
    assert np.array_equal(irfftn_batch(filled, n, g.shape), _ref_irfftn(filled, g, norm))
    assert pruned == [filled.shape]


@pytest.mark.parametrize("n", [2, 3])
def test_dealiased_product_same_for_cube_and_half_spectrum(n):
    g = Grid(n, 32)
    rng = np.random.default_rng(50 + n)
    full = dealias(to_spectral(g, rng.standard_normal((6, *g.shape)))).coeffs
    cubes = gather_cube(full, np.empty((6, *g.cube_shape), dtype=complex))
    prod = np.empty((4, *g.shape))

    def product(phys):
        return cross_into(prod[:3], phys[:3], phys[3:], prod[3])

    from_cube = dealiased_product(g, cubes, product)
    assert np.array_equal(from_cube, dealiased_product(g, full, product))
    u, v = SpectralField(g, full[:3]), SpectralField(g, full[3:])
    assert np.array_equal(from_cube, gather_cube(cross(u, v).coeffs, np.empty_like(from_cube)))


def test_batched_transforms_reject_other_shapes(grid):
    with pytest.raises(ValueError, match=r"neither the half spectrum \(16, 16, 9\) nor the dealias cube \(11, 11, 6\)"):
        irfftn_batch(np.zeros((2, 11, 11, 9), dtype=complex), 3, grid.shape)
    with pytest.raises(ValueError, match="expected the dealias cubes"):
        rfftn_batch(np.zeros((2, *grid.shape)), 3, np.empty((1, *grid.cube_shape), dtype=complex))


# Field lanes: from 64^3 up a 3D batch is split between _LANES lanes; each
# lane count gives the one-lane result bit for bit, and one lane starts no
# thread.


SOB = SobolevParams(1.0, 1.75, 0.25)


@pytest.fixture(scope="module")
def grid64():
    return Grid(3, 64)


@pytest.fixture
def lanes(monkeypatch):
    """force(count) sets the lane count."""

    def force(count):
        monkeypatch.setattr(spectral, "_LANES", count)

    return force


def test_transforms_in_lanes_bit_identical_to_one_lane(grid64, lanes):
    g = grid64
    kc = g.cube_shape[-1] - 1
    rng = np.random.default_rng(64)
    # 7 fields, so that 2 and 3 lanes take unequal shares
    half = np.stack([np.zeros(g.half_shape, dtype=complex)]
                    + [_box_field(g, rng, kb) for kb in (0, 1, 3, kc, 1, 0)])
    cubes = rng.standard_normal((7, *g.cube_shape)) + 1j * rng.standard_normal((7, *g.cube_shape))
    vals = rng.standard_normal((7, *g.shape))

    def transforms():
        out = np.empty((7, *g.cube_shape), dtype=complex)
        return (irfftn_batch(half, 3, g.shape), irfftn_batch(cubes, 3, g.shape),
                rfftn_batch(vals, 3, out), out, rfftn_batch(vals, 3))

    lanes(1)
    expected = transforms()
    for count in (1, 2, 3):
        lanes(count)
        got = transforms()
        assert got[2] is got[3]
        for a, b in zip(got, expected):
            assert np.array_equal(a, b), count


@pytest.mark.parametrize("mode", ["full", "hall_only"])
def test_step_in_lanes_bit_identical_to_one_lane(grid64, lanes, mode):
    st = make_initial("random_band", grid64, 31, (0.0 if mode == "hall_only" else 1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 1e-3, mode=mode)
    lanes(1)
    expected = step(st, cfg)
    for count in (1, 2, 3):
        lanes(count)
        got = step(st, cfg)
        assert np.array_equal(got.u.coeffs, expected.u.coeffs), count
        assert np.array_equal(got.b.coeffs, expected.b.coeffs), count


def test_one_lane_starts_no_thread(grid64, lanes):
    threads = threading.active_count()
    # below 64^3 and in 2D one lane runs, whatever the lane count
    lanes(3)
    st = make_initial("random_band", Grid(3, 32), 32, (1.0, 1.0), SOB)
    step(st, SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 1e-3))
    g2 = Grid(2, 256)
    to_physical(to_spectral(g2, np.ones((12, *g2.shape))))
    assert threading.active_count() == threads
    # a 64^3 batch with a lane count of 1
    lanes(1)
    cubes = np.ones((12, *grid64.cube_shape), dtype=complex)
    rfftn_batch(irfftn_batch(cubes, 3, grid64.shape), 3, cubes)
    assert threading.active_count() == threads


class _LaneFault(Exception):
    pass


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_lane_exception_reraised_after_every_lane(grid64, lanes, monkeypatch, bad):
    # 6 cubes in 3 lanes, cube i marked i at k = 0: lane j takes fields j and
    # j + 3, and lane bad raises at its first field, in the caller (bad = 0)
    # or in the pool
    lanes(3)
    cubes = np.zeros((6, *grid64.cube_shape), dtype=complex)
    cubes[:, 0, 0, 0] = np.arange(6)
    seen, scatter = [], spectral.scatter_cube

    def faulty(comp, full):
        seen.append(int(comp[0, 0, 0].real))
        if seen[-1] == bad:
            raise _LaneFault(bad)
        return scatter(comp, full)

    monkeypatch.setattr(spectral, "scatter_cube", faulty)
    with pytest.raises(_LaneFault):
        irfftn_batch(cubes, 3, grid64.shape)
    # the caller waited for the other lanes to finish
    assert sorted(seen) == [i for i in range(6) if i != bad + 3]


def _lane_threads():
    return [t for t in threading.enumerate() if t.name.startswith("hallmhd-lane")]


@pytest.mark.parametrize("count", [2, 3])
def test_lane_threads_joined_before_the_batch_returns(grid64, lanes, monkeypatch, count):
    # between batches no lane thread runs, also after a lane raised
    threads = threading.active_count()
    lanes(count)
    cubes = np.ones((6, *grid64.cube_shape), dtype=complex)
    rfftn_batch(irfftn_batch(cubes, 3, grid64.shape), 3, cubes)
    assert threading.active_count() == threads and not _lane_threads()
    vals = np.ones((6, *grid64.shape))

    def in_threads_raise(copy):
        def faulty(a, b):
            if threading.current_thread().name.startswith("hallmhd-lane"):
                raise _LaneFault(threading.current_thread().name)
            return copy(a, b)

        return faulty

    # every lane but the caller's raises, at its first field
    monkeypatch.setattr(spectral, "scatter_cube", in_threads_raise(spectral.scatter_cube))
    monkeypatch.setattr(spectral, "gather_cube", in_threads_raise(spectral.gather_cube))
    with pytest.raises(_LaneFault):
        irfftn_batch(cubes, 3, grid64.shape)
    assert threading.active_count() == threads and not _lane_threads()
    with pytest.raises(_LaneFault):
        rfftn_batch(vals, 3, cubes)
    assert threading.active_count() == threads and not _lane_threads()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_takes_lanes(grid64, lanes):
    # a child forked after a lane batch ran in the parent gets no thread of
    # the parent's; a batch handed to such a thread would wait for ever
    lanes(2)
    cubes = np.ones((4, *grid64.cube_shape), dtype=complex)
    expected = irfftn_batch(cubes, 3, grid64.shape)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(irfftn_batch(cubes, 3, grid64.shape), expected) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_grid_cache_keeps_the_first_entry_built_in_a_race():
    # two threads miss one key at once and both build it; the first to
    # finish stores its array, and the other gets that one, not its own
    g = Grid(3, 16)
    building, got = threading.Semaphore(0), {}
    go = [threading.Event(), threading.Event()]

    def lookup(j):
        def builder():
            building.release()
            assert go[j].wait(10)
            return np.full(3, j)

        got[j] = g._cached("raced", builder)

    threads = [threading.Thread(target=lookup, args=(j,)) for j in range(2)]
    for t in threads:
        t.start()
    # both builders run before either returns
    assert building.acquire(timeout=10) and building.acquire(timeout=10)
    for j, t in enumerate(threads):
        go[j].set()
        t.join()
    assert got[0] is got[1] is g._cached("raced", None)
    assert (got[0] == 0).all()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two cores in the affinity mask")
def test_lanes_take_a_core_each_and_restore_the_callers_mask():
    mask = os.sched_getaffinity(0)
    cores = sorted(mask)

    def where():
        return os.sched_getaffinity(0)

    assert spectral._in_threads([where, where]) == [{cores[0]}, {cores[1]}]
    assert os.sched_getaffinity(0) == mask
    # restored also when a lane raises
    with pytest.raises(_LaneFault):
        spectral._in_threads([where, lambda: (_ for _ in ()).throw(_LaneFault())])
    assert os.sched_getaffinity(0) == mask
    # with more tasks than cores, every task keeps the caller's mask
    assert spectral._in_threads([where] * (len(mask) + 1)) == [mask] * (len(mask) + 1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_lanes_run_where_binding_is_refused(grid64, lanes, monkeypatch):
    # binding only places the lanes: a system that refuses it leaves each
    # lane on the mask it has, and the batch still runs in lanes
    mask = os.sched_getaffinity(0)
    cubes = np.ones((6, *grid64.cube_shape), dtype=complex)
    cubes[:, 0, 0, 0] = np.arange(6)
    lanes(1)
    expected = irfftn_batch(cubes, 3, grid64.shape)

    def refused(pid, cpus):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    assert spectral._in_threads([lambda: 1, lambda: 2]) == [1, 2]
    lanes(2)
    assert np.array_equal(irfftn_batch(cubes, 3, grid64.shape), expected)
    assert os.sched_getaffinity(0) == mask


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two cores in the affinity mask")
def test_callers_mask_restored_when_a_join_is_interrupted(monkeypatch):
    # an interrupt (Ctrl-C) while the caller waits for a lane must not leave
    # the caller bound to one core, where every later lane would share it
    mask, release, started = os.sched_getaffinity(0), threading.Event(), []
    join = threading.Thread.join

    def interrupted(self, timeout=None):
        started.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "join", interrupted)
    try:
        with pytest.raises(KeyboardInterrupt):
            spectral._in_threads([lambda: None, release.wait])
        after = os.sched_getaffinity(0)
    finally:
        release.set()
        for t in started:
            join(t, 10)
        os.sched_setaffinity(0, mask)
    assert after == mask
    assert started and not any(t.is_alive() for t in started)
