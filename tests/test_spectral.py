"""Spectral core: transforms, multipliers, products, norms.

Oracles are closed-form trigonometric identities evaluated with plain
numpy.fft, independent of the package's own transform helpers.
"""

import numpy as np
import pytest

from hallmhd.spectral import (
    Grid,
    SpectralField,
    advect,
    cross,
    curl,
    dealias,
    divergence,
    gather_cube,
    gradient,
    inner_product,
    laplacian,
    leray_project,
    lp_norm,
    multiply,
    partial_derivative,
    scatter_cube,
    to_physical,
    to_spectral,
)
from hallmhd.random_fields import _hermitian_symmetrize
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


def test_derivatives_exact_on_trig(grid):
    x, y, z = grid.coordinates()
    f = to_spectral(grid, np.sin(2 * x) * np.cos(y))
    dfdx = to_physical(partial_derivative(f, 0))
    assert np.abs(dfdx - 2 * np.cos(2 * x) * np.cos(y)).max() < 1e-12
    dfdy = to_physical(partial_derivative(f, 1))
    assert np.abs(dfdy + np.sin(2 * x) * np.sin(y)).max() < 1e-12
    lap = to_physical(laplacian(f))
    assert np.abs(lap + 5 * np.sin(2 * x) * np.cos(y)).max() < 1e-11


def test_gradient_curl_divergence_identities(grid):
    x, y, z = grid.coordinates()
    f = to_spectral(grid, np.sin(x) * np.cos(2 * y) * np.sin(z))
    # curl grad = 0 and div curl = 0, both exactly as multipliers
    g = gradient(f)
    assert lp_norm(curl(g), 2) < 1e-13 * max(1.0, lp_norm(g, 2))
    rng = np.random.default_rng(5)
    v = to_spectral(grid, rng.standard_normal((3,) + grid.shape))
    assert lp_norm(divergence(curl(v)), 2) < 1e-12 * lp_norm(v, 2)


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
