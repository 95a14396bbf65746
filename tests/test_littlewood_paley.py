"""Dyadic decomposition: cutoff profiles, shell algebra, norm equivalences."""

import numpy as np
import pytest

from hallmhd.littlewood_paley import (
    SobolevParams,
    bernstein_ratio,
    besov_norm,
    chi,
    decompose,
    direct_sobolev_norm,
    dyadic_sobolev_norm,
    lambda_q,
    low_pass,
    max_shell,
    phi,
    phi_q,
    project_shell,
    resolved_band,
)
from hallmhd.random_fields import random_band_field
from hallmhd.spectral import Grid, SpectralField, gradient, lp_norm, to_spectral


def test_chi_plateaus_and_smoothness():
    assert chi(0.0) == 1.0
    assert chi(0.75) == 1.0
    assert chi(0.5) == 1.0
    assert chi(1.0) == 0.0
    assert chi(1.2) == 0.0
    # monotone non-increasing across the bridge, strictly interior mid-bridge
    xs = np.linspace(0.75, 1.0, 200)
    vals = chi(xs)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(np.diff(vals) <= 0)
    assert 0 < chi(0.85) < 1
    assert 0 < chi(0.95) < 1


def test_chi_bridge_value():
    # chi(x) = g(1-x) / (g(1-x) + g(x-3/4)) with g(t) = exp(-1/t)
    x = 0.85
    g = lambda t: np.exp(-1.0 / t)
    expected = g(1 - x) / (g(1 - x) + g(x - 0.75))
    assert chi(x) == pytest.approx(expected, rel=1e-14)


def test_phi_partition():
    # chi(xi) + sum_{q>=0} phi(xi / 2^q) telescopes to chi(xi / 2^{Q+1})
    xs = np.linspace(0.0, 5.0, 200)
    total = chi(xs)
    for q in range(0, 3):
        total = total + phi_q(xs, q)
    assert np.abs(total - chi(xs / 8.0)).max() < 1e-14
    # phi supported on [3/4, 2]
    assert np.all(phi(np.linspace(0, 0.74, 20)) == 0)
    assert np.all(phi(np.linspace(2.01, 4, 20)) == 0)
    assert phi(np.sqrt(2.0)) == pytest.approx(1.0)


def test_phi_q_validation():
    with pytest.raises(ValueError):
        phi_q(1.0, -2)


def test_max_shell_and_band():
    # 2 * 2^Q <= (2/3)(dims/2)
    assert max_shell(Grid(3, 16)) == 1
    assert max_shell(Grid(3, 32)) == 2
    assert max_shell(Grid(3, 64)) == 3
    for e in range(4, 13):
        # the float cutoff max_shell used before it took dealias_cutoff
        cutoff = (2.0 / 3.0) * (2**e / 2)
        assert max_shell(Grid(3, 2**e)) == max(int(np.floor(np.log2(cutoff / 2.0))), 0)
    assert resolved_band(Grid(3, 32)) == pytest.approx(0.75 * 8)
    assert lambda_q(-1) == 0.5 and lambda_q(3) == 8.0


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 32)


@pytest.fixture(scope="module")
def f(grid):
    return random_band_field(grid, 42, resolved_band(grid))


def test_shell_reconstruction(grid, f):
    total = SpectralField.zero(grid, 3)
    for q in range(-1, max_shell(grid) + 1):
        total = total + project_shell(f, q)
    assert lp_norm(total - f, 2) < 1e-12 * lp_norm(f, 2)


def test_shell_support(grid, f):
    # shell q >= 0 lives on (3/4) 2^q <= |k| <= 2^{q+1}
    for q in range(0, max_shell(grid) + 1):
        fq = project_shell(f, q)
        kmag = grid.kmag
        outside = (kmag < 0.75 * lambda_q(q) - 1e-12) | (kmag > 2 * lambda_q(q) + 1e-12)
        assert np.abs(fq.coeffs[:, outside]).max() == 0.0
    fm1 = project_shell(f, -1)
    assert np.abs(fm1.coeffs[:, grid.kmag > 1.0]).max() == 0.0


def test_shell_index_bounds(grid, f):
    with pytest.raises(ValueError):
        project_shell(f, max_shell(grid) + 1)
    with pytest.raises(ValueError):
        project_shell(f, -2)


def test_low_pass_is_partial_sum(grid, f):
    for Q in range(-1, max_shell(grid)):
        total = SpectralField.zero(grid, 3)
        for q in range(-1, Q + 1):
            total = total + project_shell(f, q)
        assert lp_norm(low_pass(f, Q) - total, 2) < 1e-12 * lp_norm(f, 2)
    assert lp_norm(low_pass(f, -2), 2) == 0.0


def test_decompose_shellset(grid, f):
    # the shells q = -1 .. Q, in order
    shells = decompose(f)
    assert len(shells) == max_shell(grid) + 2
    for q, shell in zip(range(-1, max_shell(grid) + 1), shells):
        assert np.array_equal(shell.coeffs, project_shell(f, q).coeffs)


def test_single_mode_norms(grid):
    # a pure k = (2,0,0) mode: |k| = 2 sits in shell q = 0 (phi(2) = 0... boundary)
    x = grid.coordinates()[0]
    f = to_spectral(grid, np.stack([np.cos(2 * x), np.zeros_like(x), np.zeros_like(x)]))
    l2 = lp_norm(f, 2)
    s = 1.3
    # shells q = 0 (phi(2/1) = 0 at upper edge? phi(2) = chi(1) - chi(2) = 0) and q = 1 only
    w0, w1 = phi_q(2.0, 0), phi_q(2.0, 1)
    expected = np.sqrt(
        (lambda_q(0) ** (2 * s)) * (w0 * l2) ** 2 + (lambda_q(1) ** (2 * s)) * (w1 * l2) ** 2
    )
    assert dyadic_sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)
    # multiplier-norm cross-check: exactly (1 + 4)^{s/2} ||f||_2
    assert direct_sobolev_norm(f, s) == pytest.approx((1 + 4.0) ** (s / 2) * l2, rel=1e-12)


def test_norm_equivalence(grid, f):
    # dyadic and multiplier H^s norms agree within fixed constants on band-limited data
    for s in (0.0, 1.0, 1.75):
        ratio = dyadic_sobolev_norm(f, s) / direct_sobolev_norm(f, s)
        assert 0.2 < ratio < 5.0


def test_besov_norm_is_max(grid, f):
    s = 1.0
    vals = [
        lambda_q(q) ** s * lp_norm(project_shell(f, q), 2)
        for q in range(-1, max_shell(grid) + 1)
    ]
    assert besov_norm(f, s, 2) == pytest.approx(max(vals), rel=1e-12)


def test_bernstein_ratio(grid):
    # a single mode gives an exactly computable ratio in the p = 2 -> inf bound
    x = grid.coordinates()[0]
    f = to_spectral(grid, np.stack([np.cos(2 * x), np.zeros_like(x), np.zeros_like(x)]))
    f1 = project_shell(f, 1)
    r = bernstein_ratio(f1, 1, 2, np.inf)
    manual = lp_norm(f1, np.inf) / (2.0 ** (3 * 0.5) * lp_norm(f1, 2))
    assert r == pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError):
        bernstein_ratio(SpectralField.zero(grid, 3), 0, 2, np.inf)
    with pytest.raises(ValueError):
        bernstein_ratio(f1, 1, np.inf, 2)  # wrong order
    with pytest.raises(ValueError):
        bernstein_ratio(f1, 1, 2, 4)


def test_bernstein_gradient_lower_bound(grid, f):
    # shell support lower bound: ||grad f_q||_2 >= (3/4) lambda_q ||f_q||_2 for q >= 0
    for q in range(0, max_shell(grid) + 1):
        fq = project_shell(f, q)
        n2 = lp_norm(fq, 2)
        if n2 == 0.0:
            continue
        assert lp_norm(gradient(fq), 2) >= 0.75 * lambda_q(q) * n2 * (1 - 1e-12)


def test_sobolev_params_validation():
    sob = SobolevParams.from_s_eps(1.0, 0.25)
    assert sob.r == pytest.approx(1.75)
    sob.validate(3)
    with pytest.raises(ValueError, match="s > n/2 - 1"):
        SobolevParams(0.4, 1.4, 0.25).validate(3)
    with pytest.raises(ValueError, match="r > n/2"):
        SobolevParams(1.0, 1.4, 0.25).validate(3)
    with pytest.raises(ValueError, match="n/4 \\+ s/2 < r"):
        SobolevParams(2.0, 1.7, 0.25).validate(3)
    with pytest.raises(ValueError, match="r <= s \\+ 1 - eps"):
        SobolevParams(1.0, 1.8, 0.25).validate(3)
    # s and eps are checked before the rules on the derived r
    with pytest.raises(ValueError, match="sobolev.eps: must be finite and positive, got nan"):
        SobolevParams.from_s_eps(1.0, float("nan")).validate(3)
    # 2D admits lower exponents
    SobolevParams.from_s_eps(0.5, 0.4).validate(2)
