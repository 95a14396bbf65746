"""Shell energies, flux terms, balance residuals, existence time, scalings."""

import numpy as np
import pytest
from scipy import fft as sfft

from hallmhd import (
    Grid,
    PhysicalParams,
    SobolevParams,
    SolverConfig,
    State,
    make_initial,
    run,
)
from hallmhd import diagnostics
from hallmhd.diagnostics import (
    calibrate_growth,
    energy_balance_residual,
    existence_time,
    flux_terms,
    psi_bound,
    restrict_field,
    scale_field,
    scaling_check,
    shell_energies,
    total_energy_residual,
)
from hallmhd.littlewood_paley import (
    lambda_q,
    max_shell,
    project_shell,
    resolved_band,
    shell_sums,
    sobolev_weights,
)
from hallmhd.random_fields import random_band_field
from hallmhd.snapshots import read_snapshot, write_snapshot
from hallmhd.solver import integrated_params
from hallmhd.spectral import (
    SpectralField,
    advect,
    cross,
    curl,
    dealias,
    dealiased_product,
    gradient,
    lp_norm,
    to_physical,
    to_spectral,
)

SOB = SobolevParams(1.0, 1.75, 0.25)
PARAMS = PhysicalParams(0.05, 0.05, 0.1)


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 32)


@pytest.fixture(scope="module")
def state(grid):
    return make_initial("random_band", grid, 77, (1.0, 1.0), SOB)


def test_shell_energies_match_manual(grid, state):
    rec = shell_energies(state, SOB)
    Q = max_shell(grid)
    assert len(rec.e_u) == Q + 2
    assert np.all(rec.e_u >= 0) and np.all(rec.d_b >= 0)
    for i, q in enumerate(range(-1, Q + 1)):
        manual = lambda_q(q) ** (2 * SOB.s) * lp_norm(project_shell(state.u, q), 2) ** 2
        assert rec.e_u[i] == pytest.approx(manual, rel=1e-12, abs=1e-300)


def _quadrature(f, g_field):
    # plain physical-space quadrature of int f . g dx
    vals = (to_physical(f) * to_physical(g_field)).sum()
    return float(vals * f.grid.cell_volume)


def test_flux_terms_match_direct_quadrature(grid, state):
    """The five weighted flux sums against an independent quadrature oracle."""
    u, b = state.u, state.b
    rec = flux_terms(state, PARAMS, SOB)
    ugu, bgb = advect(u, u), advect(b, b)
    ugb, bgu = advect(u, b), advect(b, u)
    hall = cross(curl(b), b)
    oracle = dict.fromkeys("I1 I2 I3 I4 I5".split(), 0.0)
    for q in range(-1, max_shell(grid) + 1):
        ws = lambda_q(q) ** (2 * SOB.s)
        wr = lambda_q(q) ** (2 * SOB.r)
        uq, bq = project_shell(u, q), project_shell(b, q)
        oracle["I1"] += ws * _quadrature(project_shell(ugu, q), uq)
        oracle["I2"] -= ws * _quadrature(project_shell(bgb, q), uq)
        oracle["I3"] += wr * _quadrature(project_shell(ugb, q), bq)
        oracle["I4"] -= wr * _quadrature(project_shell(bgu, q), bq)
        oracle["I5"] += PARAMS.eta * wr * _quadrature(project_shell(hall, q), curl(bq))
    for name in oracle:
        got = getattr(rec, name)
        assert abs(got - oracle[name]) < 1e-9 * max(abs(oracle[name]), 1.0)


@pytest.fixture(params=["2d", "snapshot"])
def kernel_state(request, tmp_path):
    """A state on a 2D grid, and the 3D state read back from a snapshot."""
    if request.param == "2d":
        return make_initial("random_band", Grid(2, 32), 77, (1.0, 1.0), SOB)
    path = tmp_path / "state.hmhd"
    st = request.getfixturevalue("state")
    write_snapshot(path, st)
    return read_snapshot(path, st.grid)


def test_shell_energies_match_shell_projections(kernel_state):
    st = kernel_state
    rec = shell_energies(st, SOB)
    for i, q in enumerate(range(-1, max_shell(st.grid) + 1)):
        ws = lambda_q(q) ** (2 * SOB.s)
        wr = lambda_q(q) ** (2 * SOB.r)
        manual = {
            "e_u": ws * lp_norm(project_shell(st.u, q), 2) ** 2,
            "e_b": wr * lp_norm(project_shell(st.b, q), 2) ** 2,
            "d_u": ws * lp_norm(gradient(project_shell(st.u, q)), 2) ** 2,
            "d_b": wr * lp_norm(gradient(project_shell(st.b, q)), 2) ** 2,
        }
        for name, value in manual.items():
            assert getattr(rec, name)[i] == pytest.approx(value, rel=1e-12, abs=1e-300)


def test_flux_terms_match_quadrature_on_more_states(kernel_state):
    u, b = kernel_state.u, kernel_state.b
    rec = flux_terms(kernel_state, PARAMS, SOB)
    ugu, bgb = advect(u, u), advect(b, b)
    ugb, bgu = advect(u, b), advect(b, u)
    hall = cross(curl(b), b)
    oracle = dict.fromkeys("I1 I2 I3 I4 I5".split(), 0.0)
    for q in range(-1, max_shell(u.grid) + 1):
        ws = lambda_q(q) ** (2 * SOB.s)
        wr = lambda_q(q) ** (2 * SOB.r)
        uq, bq = project_shell(u, q), project_shell(b, q)
        oracle["I1"] += ws * _quadrature(project_shell(ugu, q), uq)
        oracle["I2"] -= ws * _quadrature(project_shell(bgb, q), uq)
        oracle["I3"] += wr * _quadrature(project_shell(ugb, q), bq)
        oracle["I4"] -= wr * _quadrature(project_shell(bgu, q), bq)
        oracle["I5"] += PARAMS.eta * wr * _quadrature(project_shell(hall, q), curl(bq))
    for name in oracle:
        got = getattr(rec, name)
        assert abs(got - oracle[name]) < 1e-9 * max(abs(oracle[name]), 1.0)


def _ref_flux_terms(state, params, sob):
    """flux_terms in its conservative form without dealiased_product: scipy's
    transform pair, npoints scaling, mask multiply, the moment tensors a_j c_m
    in full and np.cross for curl b."""
    g = state.grid
    n, npts, k = g.n, g.npoints, g.k
    u, b = state.u.coeffs, state.b.coeffs
    axes = tuple(range(-n, 0))

    def moments(a, c):
        # the dealiased spectra of a_j c_m, indexed [j, m]
        return sfft.rfftn(a[:, None] * c[None], axes=axes) * (g.dealias_mask / npts)

    def div(M):
        # component m of i k_j M[j, m], summed over j
        return np.stack([1j * k[0] * M[0, m] + 1j * k[1] * M[1, m] + 1j * k[2] * M[2, m] for m in range(3)])

    def real_dot(a, c):
        return (a.real * c.real + a.imag * c.imag).sum(axis=0)

    phys = sfft.irfftn(np.concatenate([u, b]) * npts, s=g.shape, axes=axes)
    pu, pb = phys[:3], phys[3:]
    bb = moments(pb, pb)
    hall = div(bb) - 1j * k * (0.5 * (bb[0, 0] + bb[1, 1] + bb[2, 2]))
    curl_b = 1j * np.cross(k, b, axis=0)
    power = np.stack(
        [real_dot(div(moments(pu, pu)), u), real_dot(div(bb), u), real_dot(div(moments(pu, pb)), b),
         real_dot(div(moments(pb, pu)), b), real_dot(hall, curl_b)]
    )
    sums = (2.0 * np.pi) ** n * shell_sums(g, power)
    ws, wr = sobolev_weights(g, sob.s), sobolev_weights(g, sob.r)
    return (float(ws @ sums[0]), -float(ws @ sums[1]), float(wr @ sums[2]),
            -float(wr @ sums[3]), params.eta * float(wr @ sums[4]))


def _ref_advective_flux_terms(state, params, sob):
    """The fluxes in advective form, as flux_terms formed them before its
    conservative form: u, b and their gradients to physical space, the
    transport products a_j d_j f_m and j x b there, each product dealiased."""
    g = state.grid
    n, npts, k = g.n, g.npoints, g.k
    u, b = state.u.coeffs, state.b.coeffs

    def transport(a, grad):
        return a[0] * grad[0] + a[1] * grad[1] + a[2] * grad[2]

    def real_dot(a, c):
        return (a.real * c.real + a.imag * c.imag).sum(axis=0)

    grads = [(1j * k[:, None] * f).reshape((9,) + g.half_shape) for f in (u, b)]
    axes = tuple(range(-n, 0))
    phys = sfft.irfftn(np.concatenate([u, b, *grads]) * npts, s=g.shape, axes=axes)
    pu, pb = phys[:3], phys[3:6]
    du = phys[6:15].reshape((3, 3) + g.shape)
    db = phys[15:].reshape((3, 3) + g.shape)
    pj = np.stack([db[1, 2] - db[2, 1], db[2, 0] - db[0, 2], db[0, 1] - db[1, 0]])
    prods = np.concatenate(
        [transport(pu, du), transport(pb, db), transport(pu, db), transport(pb, du),
         np.cross(pj, pb, axis=0)]
    )
    hats = sfft.rfftn(prods, axes=axes) * (g.dealias_mask / npts)
    curl_b = 1j * np.cross(k, b, axis=0)
    power = np.stack(
        [real_dot(hats[0:3], u), real_dot(hats[3:6], u), real_dot(hats[6:9], b),
         real_dot(hats[9:12], b), real_dot(hats[12:15], curl_b)]
    )
    sums = (2.0 * np.pi) ** n * shell_sums(g, power)
    ws, wr = sobolev_weights(g, sob.s), sobolev_weights(g, sob.r)
    return (float(ws @ sums[0]), -float(ws @ sums[1]), float(wr @ sums[2]),
            -float(wr @ sums[3]), params.eta * float(wr @ sums[4]))


def _wide_band_state(g, inside):
    """inside's u with a b that fills the whole half spectrum, outside the
    dealias cube included."""
    return State(inside.u, random_band_field(g, 79, g.kmax), 0.0)


def _cube_of(st):
    return State(dealias(st.u), dealias(st.b), st.t)


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (2, 64)])
def test_flux_terms_bit_identical_to_inline_transforms(n, dims):
    g = Grid(n, dims)
    inside = make_initial("random_band", g, 78, (1.0, 1.0), SOB)
    wide = _wide_band_state(g, inside)
    # flux_terms reads only the dealias cube of the wide-band state
    assert flux_terms(wide, PARAMS, SOB) == flux_terms(_cube_of(wide), PARAMS, SOB)
    for st, ref_st in ((inside, inside), (wide, _cube_of(wide))):
        rec = flux_terms(st, PARAMS, SOB)
        ref = _ref_flux_terms(ref_st, PARAMS, SOB)
        assert (rec.I1, rec.I2, rec.I3, rec.I4, rec.I5) == ref


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (2, 64)])
def test_flux_terms_conservative_matches_advective_form(tmp_path, n, dims):
    # divergence-free states inside the cube: the two forms agree to roundoff
    g = Grid(n, dims)
    made = make_initial("random_band", g, 78, (1.0, 1.0), SOB)
    write_snapshot(tmp_path / "s.hmhd", made)
    for st in (made, read_snapshot(tmp_path / "s.hmhd", g)):
        rec = flux_terms(st, PARAMS, SOB)
        got = np.array([rec.I1, rec.I2, rec.I3, rec.I4, rec.I5])
        ref = np.array(_ref_advective_flux_terms(st, PARAMS, SOB))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(got).max()


def _product_inputs(monkeypatch, st):
    """The shapes of the inputs flux_terms hands dealiased_product for st."""
    shapes = []

    def recording(grid, spec, product, out=None):
        shapes.append(spec.shape)
        return dealiased_product(grid, spec, product, out)

    monkeypatch.setattr(diagnostics, "dealiased_product", recording)
    flux_terms(st, PARAMS, SOB)
    return shapes


@pytest.mark.parametrize("n, dims", [(2, 16), (2, 32), (3, 16), (3, 32), (2, 64)])
def test_flux_terms_takes_cubes_for_in_cube_states(monkeypatch, tmp_path, n, dims):
    g = Grid(n, dims)
    made = make_initial("random_band", g, 78, (1.0, 1.0), SOB)
    write_snapshot(tmp_path / "s.hmhd", made)
    for st in (made, read_snapshot(tmp_path / "s.hmhd", g), _wide_band_state(g, made)):
        assert _product_inputs(monkeypatch, st) == [(6, *g.cube_shape)]


def test_flux_terms_zero_state(grid):
    z = State(SpectralField.zero(grid, 3), SpectralField.zero(grid, 3), 0.0)
    rec = flux_terms(z, PARAMS, SOB)
    assert rec.I1 == rec.I2 == rec.I3 == rec.I4 == rec.I5 == 0.0


@pytest.mark.parametrize("mode", ["hall_only", "mhd"])
def test_flux_terms_vanish_where_the_mode_holds_them(mode):
    # hall_only holds u at 0, so every moment of u is 0 and I1..I4 are +-0;
    # mhd integrates eta = 0, so I5 is 0
    g = Grid(3, 16)
    st = make_initial("random_band", g, 78, (0.0 if mode == "hall_only" else 1.0, 1.0), SOB)
    params = integrated_params(PARAMS, mode)
    states = []
    run(st, SolverConfig(params, SOB, 1e-3, 0.003, mode=mode, snapshot_every=1),
        sinks=[lambda i, s: states.append(s.copy())])
    assert len(states) == 4
    for s in states:
        rec = flux_terms(s, params, SOB)
        if mode == "hall_only":
            assert rec.I1 == rec.I2 == rec.I3 == rec.I4 == 0.0 != rec.I5
        else:
            assert rec.I5 == 0.0 and 0.0 not in (rec.I1, rec.I2, rec.I3, rec.I4)


def test_balance_residual_needs_samples(grid, state):
    with pytest.raises(ValueError, match="3 samples"):
        energy_balance_residual([state, state], PARAMS, SOB)
    with pytest.raises(ValueError, match="3 samples"):
        total_energy_residual([state], PARAMS)


def test_energy_balance_on_short_run(grid):
    st = make_initial("random_band", grid, 78, (1.0, 1.0), SOB)
    cfg = SolverConfig(PARAMS, SOB, 1e-3, 0.005, snapshot_every=1)
    states = []
    run(st, cfg, sinks=[lambda i, s: states.append(s.copy())])
    ts, ru, rb = energy_balance_residual(states, PARAMS, SOB)
    assert ru.max() < 1e-3
    assert rb.max() < 1e-3
    assert total_energy_residual(states, PARAMS).max() < 1e-4


def test_existence_time_exact_values():
    assert existence_time(1.0, 1.0, 1.0, 1.0).T == pytest.approx(0.5)
    assert existence_time(2.0, 1.0, 1.0, 1.0).T == pytest.approx(0.25)
    # two-exponent case: T = (1/2) min over both gammas
    est = existence_time(2.0, 1.0, 0.5, 2.0)
    manual = 0.5 * min(1.0 / (0.5 * 2.0**0.5), 1.0 / (2.0 * 4.0))
    assert est.T == pytest.approx(manual)


def test_existence_time_past_the_float_range():
    # psi0**2 overflows and underflows: T is the nearest float, 0 and inf
    big, small = existence_time(1e200, 1.0, 2.0, 2.0), existence_time(1e-200, 1.0, 2.0, 2.0)
    assert big.T == 0.0 and small.T == np.inf
    with pytest.raises(ValueError, match="past blow-up"):
        psi_bound(0.0, big)
    assert psi_bound(1.0, small) == 2e-200


def test_existence_time_validation():
    with pytest.raises(ValueError):
        existence_time(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        existence_time(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        existence_time(1.0, 1.0, 2.0, 1.0)  # gamma_low > gamma_high


def test_existence_time_monotone():
    psis = np.linspace(0.5, 5.0, 10)
    Ts = [existence_time(p, 1.0, 1.0, 1.0).T for p in psis]
    assert np.all(np.diff(Ts) < 0)
    Cs = np.linspace(0.5, 5.0, 10)
    Ts = [existence_time(1.5, c, 1.0, 1.0).T for c in Cs]
    assert np.all(np.diff(Ts) < 0)
    gs = np.linspace(0.5, 3.0, 10)
    Ts = [existence_time(1.5, 1.0, g, g).T for g in gs]
    assert np.all(np.diff(Ts) < 0)


def test_psi_bound_formula_and_blowup():
    est = existence_time(1.0, 1.0, 1.0, 1.0)
    # both terms equal psi0 / (1 - t) for gamma = C = psi0 = 1
    assert psi_bound(0.0, est) == pytest.approx(2.0)
    assert psi_bound(0.25, est) == pytest.approx(2.0 / 0.75)
    with pytest.raises(ValueError, match="past blow-up"):
        psi_bound(1.0, est)


def test_calibrate_growth_recovers_parameters():
    # synthetic family solving d(psi)/dt = 2 C psi^{1+gamma} exactly
    C, gamma, psi0 = 0.3, 1.0, 2.0
    ts = np.linspace(0.0, 0.5, 400)
    psis = psi0 / (1.0 - 2.0 * C * gamma * psi0**gamma * ts) ** (1.0 / gamma)
    C_fit, g_fit = calibrate_growth([ts], [psis])
    assert g_fit == pytest.approx(gamma, abs=0.1)
    assert C_fit == pytest.approx(C, rel=0.1)
    # pinned gamma variant
    C_fit2, g2 = calibrate_growth([ts], [psis], gamma=1.0)
    assert g2 == 1.0
    assert C_fit2 == pytest.approx(C, rel=0.05)


def test_calibrate_growth_requires_growth():
    ts = np.linspace(0, 1, 50)
    decaying = np.exp(-ts)
    with pytest.raises(ValueError, match="no growth"):
        calibrate_growth([ts], [decaying])


def test_scale_field_same_grid(grid):
    x = grid.coordinates()[0]
    f = to_spectral(grid, np.cos(x))
    sf = scale_field(f, 2, 3.0, grid)
    got = to_physical(sf)[0]
    assert np.abs(got - 3.0 * np.cos(2 * x)).max() < 1e-13


def test_scale_field_cross_grid():
    coarse, fine = Grid(3, 16), Grid(3, 32)
    xc = coarse.coordinates()[0]
    f = to_spectral(coarse, np.cos(xc))
    sf = scale_field(f, 2, 1.0, fine)
    xf = fine.coordinates()[0]
    assert np.abs(to_physical(sf)[0] - np.cos(2 * xf)).max() < 1e-13


def test_restrict_field_roundtrip():
    coarse, fine = Grid(3, 16), Grid(3, 32)
    xf = fine.coordinates()[0]
    f = to_spectral(fine, np.cos(3 * xf) + 0.5 * np.sin(xf))
    r = restrict_field(f, coarse)
    xc = coarse.coordinates()[0]
    assert np.abs(to_physical(r)[0] - (np.cos(3 * xc) + 0.5 * np.sin(xc))).max() < 1e-13
    with pytest.raises(ValueError):
        restrict_field(r, fine)


def test_scaling_check_validation(grid):
    st = make_initial("random_band", grid, 80, (1.0, 1.0), SOB)
    cfg = SolverConfig(PARAMS, SOB, 1e-3, 0.01, snapshot_every=10**9)
    with pytest.raises(ValueError, match="lambda"):
        scaling_check("mhd", 3, st, cfg)
    with pytest.raises(ValueError, match="modes"):
        scaling_check("full", 2, st, cfg)
    # data up to the resolved band is too wide for lambda = 2
    with pytest.raises(ValueError, match="band-limiting"):
        scaling_check("mhd", 2, st, cfg)


def test_scaling_check_zero_data(grid):
    z = State(SpectralField.zero(grid, 3), SpectralField.zero(grid, 3), 0.0)
    cfg = SolverConfig(PARAMS, SOB, 1e-3, 0.01, snapshot_every=10**9)
    assert scaling_check("mhd", 2, z, cfg) == 0.0


def test_scaling_check_exact_small(grid):
    band = (2.0 / 3.0) * (grid.dims / 2) / 2 - 1
    st = make_initial("random_band", grid, 81, (0.5, 0.5), SOB, band=band)
    cfg = SolverConfig(PARAMS, SOB, 1e-3, 0.01, snapshot_every=10**9)
    assert scaling_check("mhd", 2, st, cfg) < 1e-12
    assert scaling_check("hall_only", 2, st, cfg) < 1e-12
