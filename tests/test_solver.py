"""Solver: right-hand side against an independent np.fft oracle, integrator
order, exact solutions, guards, and run bookkeeping."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft as sfft

from hallmhd import (
    Grid,
    PhysicalParams,
    SobolevParams,
    SolverConfig,
    State,
    compute_rhs,
    make_initial,
    run,
    step,
)
from hallmhd.littlewood_paley import dyadic_sobolev_norm, resolved_band
from hallmhd.random_fields import random_band_field
from hallmhd import solver, spectral
from hallmhd.diagnostics import flux_terms
from hallmhd.solver import (
    BlowUpError,
    StateDriftError,
    cfl_advisory_dt,
    divergence_drift,
)
from hallmhd.spectral import (
    SpectralField,
    dealias_cutoff,
    divergence,
    lp_norm,
    to_physical,
    to_spectral,
)

SOB = SobolevParams(1.0, 1.75, 0.25)


def _oracle_rhs(u, b, params, mode):
    """Independent Hall-MHD right-hand side built on raw numpy.fft only, on the
    full lattice; returns its half-spectrum part."""
    g = u.grid
    N, n = g.dims, g.n
    axes = tuple(range(-n, 0))
    half = N // 2 + 1
    k1 = np.fft.fftfreq(N, 1.0 / N)
    ks = list(np.meshgrid(*([k1] * n), indexing="ij"))
    while len(ks) < 3:
        ks.append(np.zeros_like(ks[0]))
    k = np.stack(ks)
    ksq = (k**2).sum(axis=0)
    mask = np.ones(g.shape, dtype=bool)
    for i in range(n):
        mask &= np.abs(k[i]) <= (2.0 / 3.0) * (N / 2)

    def phys(c):
        return np.fft.ifftn(c * g.npoints, axes=axes).real

    def hat(v):
        return np.fft.fftn(v, axes=axes) / g.npoints * mask

    def grad_form(a_hat, c_hat):
        # (a . grad) c, components in physical space, then dealiased
        pa = np.stack([phys(a_hat[i]) for i in range(3)])
        out = []
        for i in range(3):
            acc = np.zeros(g.shape)
            for j in range(3):
                acc += pa[j] * phys(1j * k[j] * c_hat[i])
            out.append(hat(acc))
        return np.stack(out)

    def curl_hat(c):
        return np.stack(
            [
                1j * (k[1] * c[2] - k[2] * c[1]),
                1j * (k[2] * c[0] - k[0] * c[2]),
                1j * (k[0] * c[1] - k[1] * c[0]),
            ]
        )

    def full(c):
        return np.fft.fftn(np.fft.irfftn(c * g.npoints, s=g.shape, axes=axes), axes=axes) / g.npoints

    uh, bh = full(u.coeffs), full(b.coeffs)
    if mode == "hall_only":
        du = np.zeros_like(uh)
        db = np.zeros_like(bh)
    else:
        w = grad_form(bh, bh) - grad_form(uh, uh)
        inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
        kw = k[0] * w[0] + k[1] * w[1] + k[2] * w[2]
        du = w - k * (kw * inv) - params.nu * ksq * uh
        db = grad_form(bh, uh) - grad_form(uh, bh) - params.mu * ksq * bh
    if mode != "mhd" and params.eta != 0.0:
        cb = curl_hat(bh)
        pcb = np.stack([phys(cb[i]) for i in range(3)])
        pb = np.stack([phys(bh[i]) for i in range(3)])
        hall = np.cross(pcb, pb, axisa=0, axisb=0, axisc=0)
        hall_hat = np.stack([hat(hall[i]) for i in range(3)])
        db = db - params.eta * curl_hat(hall_hat)
        if mode == "hall_only":
            db = db - params.mu * ksq * bh
    return du[..., :half], db[..., :half]


@pytest.mark.parametrize("mode", ["full", "mhd", "hall_only"])
def test_rhs_matches_independent_oracle(mode):
    g = Grid(3, 32)
    u = random_band_field(g, 31, resolved_band(g))
    b = random_band_field(g, 32, resolved_band(g))
    if mode == "hall_only":
        u = SpectralField.zero(g, 3)
    params = PhysicalParams(0.05, 0.07, 0.1)
    du, db = compute_rhs(State(u, b, 0.0), params, mode)
    du_o, db_o = _oracle_rhs(u, b, params, mode)
    scale_u = max(np.abs(du_o).max(), 1e-30)
    scale_b = max(np.abs(db_o).max(), 1e-30)
    assert np.abs(du.coeffs - du_o).max() / scale_u < 1e-10
    assert np.abs(db.coeffs - db_o).max() / scale_b < 1e-10


def test_rhs_oracle_2d():
    g = Grid(2, 16)
    u = random_band_field(g, 33, resolved_band(g))
    b = random_band_field(g, 34, resolved_band(g))
    params = PhysicalParams(0.05, 0.05, 0.1)
    du, db = compute_rhs(State(u, b, 0.0), params, "full")
    du_o, db_o = _oracle_rhs(u, b, params, "full")
    assert np.abs(du.coeffs - du_o).max() < 1e-10 * max(np.abs(du_o).max(), 1e-30)
    assert np.abs(db.coeffs - db_o).max() < 1e-10 * max(np.abs(db_o).max(), 1e-30)


def test_make_initial_dealiases_wide_band():
    # a band past the 2/3 cube is cut back to it, where the curl-form
    # nonlinearity and the oracle's advective form agree to roundoff
    g = Grid(3, 32)
    st = make_initial("random_band", g, 31, (1.0, 1.0), SOB, band=14)
    for f in (st.u, st.b):
        assert not f.coeffs[:, ~g.dealias_mask].any()
    params = PhysicalParams(0.05, 0.07, 0.1)
    du, db = compute_rhs(st, params, "full")
    du_o, db_o = _oracle_rhs(st.u, st.b, params, "full")
    assert np.abs(du.coeffs - du_o).max() / np.abs(du_o).max() < 1e-10
    assert np.abs(db.coeffs - db_o).max() / np.abs(db_o).max() < 1e-10


def _count_calls(monkeypatch, name, tally):
    # the transforms as spectral.dealiased_product calls them: arr and n positionally
    inner = getattr(spectral, name)

    def counted(arr, *args):
        tally.setdefault(name, []).append(arr.shape[0])
        return inner(arr, *args)

    monkeypatch.setattr(spectral, name, counted)


@pytest.mark.parametrize("mode, inverse, forward", [("full", 12, 6), ("mhd", 12, 6), ("hall_only", 6, 3)])
def test_fft_fields_per_rhs(monkeypatch, mode, inverse, forward):
    g = Grid(3, 16)
    st = make_initial("random_band", g, 64, (0.0 if mode == "hall_only" else 1.0, 1.0), SOB)
    tally = {}
    for name in ("irfftn_batch", "rfftn_batch"):
        _count_calls(monkeypatch, name, tally)
    compute_rhs(st, PhysicalParams(0.05, 0.05, 0.1), mode)
    assert tally == {"irfftn_batch": [inverse], "rfftn_batch": [forward]}


def test_flux_terms_fft_fields(monkeypatch):
    # one inverse batch of u and b and one forward batch of their 21 quadratic moments
    st = make_initial("random_band", Grid(3, 16), 64, (1.0, 1.0), SOB)
    tally = {}
    for name in ("irfftn_batch", "rfftn_batch"):
        _count_calls(monkeypatch, name, tally)
    flux_terms(st, PhysicalParams(0.05, 0.05, 0.1), SOB)
    assert tally == {"irfftn_batch": [6], "rfftn_batch": [21]}


def _ref_outside_cube(f, cutoff):
    # the mask definition _outside_cube replaced, for any real cutoff
    outside = (np.abs(f.grid.k) > cutoff).any(axis=0)
    mag = np.abs(f.coeffs)
    peak = mag.max(initial=0.0)
    return float(mag[:, outside].max(initial=0.0) / peak) if peak > 0 else 0.0


@pytest.mark.parametrize(
    "n, dims, lam",
    [(2, 16, 1), (2, 64, 2), (2, 64, 4), (3, 16, 1), (3, 16, 2), (3, 16, 4), (3, 32, 1), (3, 32, 4), (3, 64, 2)],
)
def test_outside_cube_matches_mask_definition(n, dims, lam):
    # integer wavenumbers: |k_i| > kc / lam exactly when |k_i| > kc // lam
    # (3, 32, 4) has kc / lam = 2.5
    g = Grid(n, dims)
    kc = dealias_cutoff(dims)
    rng = np.random.default_rng(dims + n + lam)
    noise = rng.standard_normal((2, 3) + g.half_shape)
    f = SpectralField(g, (noise[0] + 1j * noise[1]) * np.exp(-0.3 * g.kmag))
    inside = SpectralField(g, f.coeffs * ~(np.abs(g.k) > kc / lam).any(axis=0))
    for field in (f, inside, SpectralField.zero(g, 3)):
        got = solver._outside_cube(field, kc // lam)
        assert got == _ref_outside_cube(field, kc / lam)
    assert 0.0 < solver._outside_cube(f, kc // lam) < 1.0
    assert solver._outside_cube(inside, kc // lam) == 0.0


def test_steps_on_a_shared_grid_match_a_fresh_grid():
    # no run-specific factor may outlive its step on a Grid that steps with
    # other dt or other diffusivities (every snapshot a run reads shares its Grid)
    g = Grid(3, 16)
    st = make_initial("random_band", g, 66, (1.0, 1.0), SOB)
    params = PhysicalParams(0.05, 0.05, 0.1)
    configs = [
        SolverConfig(params, SOB, 1e-3, 1.0),
        SolverConfig(params, SOB, 2e-3, 1.0),
        SolverConfig(PhysicalParams(0.02, 0.08, 0.1), SOB, 2e-3, 1.0),
        SolverConfig(params, SOB, 1e-3, 1.0),
    ]
    for cfg in configs:
        shared = step(st, cfg)
        fresh_grid = Grid(3, 16)
        fresh = step(State(*(SpectralField(fresh_grid, f.coeffs) for f in (st.u, st.b))), cfg)
        assert np.array_equal(shared.u.coeffs, fresh.u.coeffs)
        assert np.array_equal(shared.b.coeffs, fresh.b.coeffs)


# Reference for bit identity: the expression-form half-spectrum kernel and
# IF-RK4 step the in-place solver replaced, with their fresh temporaries.


def _ref_cross(a, b):
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _ref_nonlinear(u, b, g, params, mode):
    n, npts, k = g.n, g.npoints, g.k
    axes = tuple(range(-n, 0))
    eta = 0.0 if mode == "mhd" else params.eta
    j = 1j * _ref_cross(k, b)
    if mode == "hall_only":
        pb, pj = np.split(sfft.irfftn(np.concatenate([b, j]) * npts, s=g.shape, axes=axes), 2)
        jxb = sfft.rfftn(_ref_cross(pj, pb), axes=axes) * (g.dealias_mask / npts)
        return np.zeros_like(u), -eta * (1j * _ref_cross(k, jxb))
    stack = np.concatenate([u, 1j * _ref_cross(k, u), b, j]) * npts
    pu, pw, pb, pj = np.split(sfft.irfftn(stack, s=g.shape, axes=axes), 4)
    prods = np.concatenate(
        [_ref_cross(pu, pw) + _ref_cross(pj, pb), _ref_cross(pu - eta * pj, pb)]
    )
    hats = sfft.rfftn(prods, axes=axes) * (g.dealias_mask / npts)
    nu = _ref_cross(k, _ref_cross(hats[:3], k)) * g.inv_ksq
    return nu, 1j * _ref_cross(k, hats[3:])


def _ref_compute_rhs(state, params, mode):
    g = state.grid
    nl = np.concatenate(_ref_nonlinear(state.u.coeffs, state.b.coeffs, g, params, mode))
    dudt = nl[:3] - params.nu * g.ksq * state.u.coeffs
    dbdt = nl[3:] - params.mu * g.ksq * state.b.coeffs
    if mode == "hall_only":
        dudt = np.zeros_like(dudt)
    return dudt, dbdt


def _ref_step(state, config, *_):
    g, p, dt = state.grid, config.params, config.dt
    eu_h = np.exp(-p.nu * g.ksq * (dt / 2.0))
    eb_h = np.exp(-p.mu * g.ksq * (dt / 2.0))
    eu, eb = eu_h**2, eb_h**2
    u0, b0 = state.u.coeffs, state.b.coeffs
    nl = lambda u, b: _ref_nonlinear(u, b, g, p, config.mode)
    k1u, k1b = nl(u0, b0)
    k2u, k2b = nl(eu_h * (u0 + 0.5 * dt * k1u), eb_h * (b0 + 0.5 * dt * k1b))
    k3u, k3b = nl(eu_h * u0 + 0.5 * dt * k2u, eb_h * b0 + 0.5 * dt * k2b)
    k4u, k4b = nl(eu * u0 + dt * eu_h * k3u, eb * b0 + dt * eb_h * k3b)
    u1 = eu * u0 + (dt / 6.0) * (eu * k1u + 2.0 * eu_h * (k2u + k3u) + k4u)
    b1 = eb * b0 + (dt / 6.0) * (eb * k1b + 2.0 * eb_h * (k2b + k3b) + k4b)
    return State(SpectralField(g, u1), SpectralField(g, b1), state.t + dt)


def _oracle_case(case, mode):
    n, dims, kind = case
    g = Grid(n, dims)
    target = (1.0, 1.0) if kind == "random_band" else None
    st = make_initial(kind, g, 70, target, SOB)
    if mode == "hall_only":
        st = State(SpectralField.zero(g, 3), st.b, 0.0)
    return st, SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 1.0, mode=mode)


_CASES = [(3, 16, "random_band"), (3, 16, "beltrami"), (3, 16, "taylor_green_like"), (2, 32, "random_band")]


@pytest.mark.parametrize("mode", ["full", "mhd", "hall_only"])
@pytest.mark.parametrize("case", _CASES, ids=lambda c: f"{c[0]}d{c[1]}-{c[2]}")
def test_step_and_rhs_bit_identical_to_expression_form(case, mode):
    st, cfg = _oracle_case(case, mode)
    du, db = compute_rhs(st, cfg.params, mode)
    du_r, db_r = _ref_compute_rhs(st, cfg.params, mode)
    assert np.array_equal(du.coeffs, du_r) and np.array_equal(db.coeffs, db_r)
    got, ref = st, st
    for _ in range(2):
        got, ref = step(got, cfg), _ref_step(ref, cfg)
        assert np.array_equal(got.u.coeffs, ref.u.coeffs)
        assert np.array_equal(got.b.coeffs, ref.b.coeffs)
        assert got.t == ref.t


def _assert_rhs_and_two_steps_match_expression_form(st, cfg):
    du, db = compute_rhs(st, cfg.params, cfg.mode)
    du_r, db_r = _ref_compute_rhs(st, cfg.params, cfg.mode)
    assert np.array_equal(du.coeffs, du_r) and np.array_equal(db.coeffs, db_r)
    got, ref = st, st
    for _ in range(2):
        got, ref = step(got, cfg), _ref_step(ref, cfg)
        assert np.array_equal(got.u.coeffs, ref.u.coeffs)
        assert np.array_equal(got.b.coeffs, ref.b.coeffs)


def test_products_in_several_blocks_at_64_cubed():
    # the real block budget splits 64^3 into blocks with a shorter last one
    st, cfg = _oracle_case((3, 64, "random_band"), "full")
    planes = solver._block_planes(st.grid)
    assert 1 < planes < 64 and 64 % planes
    _assert_rhs_and_two_steps_match_expression_form(st, cfg)


@pytest.mark.parametrize("mode", ["full", "mhd", "hall_only"])
@pytest.mark.parametrize("case", [(3, 16, "random_band"), (2, 32, "random_band")], ids=["3d16", "2d32"])
def test_products_in_three_plane_blocks(monkeypatch, case, mode):
    # a budget of 3 planes, which divides neither 16 nor 32
    st, cfg = _oracle_case(case, mode)
    g = st.grid
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 3 * 12 * 8 * int(np.prod(g.shape[1:])))
    assert solver._block_planes(g) == 3
    _assert_rhs_and_two_steps_match_expression_form(st, cfg)


def test_workspace_holds_no_whole_grid_buffer():
    # the products are formed in the transform's output, one block at a time
    g = Grid(3, 64)
    arrays = {k: a for k, a in vars(solver._Workspace(g)).items() if isinstance(a, np.ndarray)}
    assert not [k for k, a in arrays.items() if a.shape[-g.n :] == g.shape]
    physical = {k: a.shape for k, a in arrays.items() if a.shape[-(g.n - 1) :] == g.shape[1:]}
    assert physical == {"block": (4, solver._block_planes(g), 64, 64)}


def _psi(state, sob):
    # the blow-up guard's psi, as trajectory evaluates it
    with np.errstate(over="ignore", invalid="ignore"):
        return dyadic_sobolev_norm(state.u, sob.s) ** 2 + dyadic_sobolev_norm(state.b, sob.r) ** 2


def test_run_bit_identical_and_sink_states_not_overwritten():
    # 101 steps cross the safety projection of b at step 100; the sink keeps
    # the State objects it is handed, so a reused buffer would show here.  The
    # reference is the expression-form step with the run's bookkeeping: t
    # stamped from the step count, b projected at step 100, states kept at
    # the snapshots and the last step
    st, _ = _oracle_case((3, 16, "random_band"), "full")
    g = st.grid
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 0.101, snapshot_every=3)
    expected, ref = [(0, st)], st
    for i in range(1, 102):
        ref = _ref_step(ref, cfg)
        ref.t = st.t + i * cfg.dt
        if i == 100:
            ref = State(ref.u, spectral.leray_project(ref.b), ref.t)
        if i % 3 == 0 or i == 101:
            expected.append((i, ref))
    expected_psi = [_psi(s, SOB) for _, s in expected]
    keys_before = set(g._cache)
    kept = []
    final, log = run(st, cfg, sinks=[lambda i, s: kept.append((i, s))])
    assert [i for i, _ in kept] == [i for i, _ in expected] == [*range(0, 101, 3), 101]
    for (_, got), (_, ref) in zip(kept, expected):
        assert np.array_equal(got.u.coeffs, ref.u.coeffs)
        assert np.array_equal(got.b.coeffs, ref.b.coeffs)
        assert got.t == ref.t
    assert log.times == [s.t for _, s in expected] and log.psi == expected_psi
    assert kept[-1][1] is final
    assert set(g._cache) <= keys_before


def _run_by_steps(initial, cfg):
    """run's yields and log from a loop of public step calls, with the run's
    bookkeeping: t stamped from the step count, b projected every
    GUARD_EVERY steps, psi checked against the guard at the snapshots and
    the guard steps."""
    log = solver.RunLog(times=[initial.t], psi=[_psi(initial, cfg.sobolev)])
    kept, state = [(0, initial)], initial
    n_steps = int(round(cfg.tmax / cfg.dt))
    for i in range(1, n_steps + 1):
        state = step(state, cfg)
        state.t = initial.t + i * cfg.dt
        guard = i % solver.GUARD_EVERY == 0
        if guard:
            with np.errstate(over="ignore", invalid="ignore"):
                projected = spectral.leray_project(state.b)
                log.projection_drift.append((state.t, lp_norm(state.b - projected, 2)))
            state = State(state.u, projected, state.t)
        at_snapshot = i % cfg.snapshot_every == 0 or i == n_steps
        if not (at_snapshot or guard):
            continue
        psi = _psi(state, cfg.sobolev)
        tripped = log.psi[0] > 0 and psi > solver.BLOWUP_FACTOR * log.psi[0]
        if tripped:
            log.halted, log.halt_reason = True, f"blow-up guard tripped at t={state.t}"
        if at_snapshot or tripped:
            log.times.append(state.t)
            log.psi.append(psi)
            kept.append((i, state))
        if tripped:
            break
    return kept, log


def _assert_same_states(kept, expected):
    assert [i for i, _ in kept] == [i for i, _ in expected]
    for (_, got), (_, ref) in zip(kept, expected):
        assert got.u.coeffs.tobytes() == ref.u.coeffs.tobytes()
        assert got.b.coeffs.tobytes() == ref.b.coeffs.tobytes()
        assert got.t == ref.t


@pytest.mark.parametrize("mode", ["full", "mhd", "hall_only"])
@pytest.mark.parametrize("case", [(3, 16, "random_band"), (2, 32, "random_band")], ids=["3d16", "2d32"])
def test_run_equals_a_loop_of_steps(case, mode):
    # 205 steps cross two safety projections of b, at steps 100 and 200
    st, cfg = _oracle_case(case, mode)
    cfg = SolverConfig(cfg.params, SOB, 1e-3, 0.205, mode=mode, snapshot_every=7)
    expected, expected_log = _run_by_steps(st, cfg)
    kept = []
    _, log = run(st, cfg, sinks=[lambda i, s: kept.append((i, s))])
    assert [i for i, _ in kept] == [*range(0, 204, 7), 205]
    _assert_same_states(kept, expected)
    assert len(log.projection_drift) == 2
    assert log == expected_log  # times, psi, projection_drift, halted, halt_reason


@pytest.mark.parametrize("snapshot_every", [7, 10**9])
def test_halted_run_equals_a_loop_of_steps(monkeypatch, snapshot_every):
    # the guard trips at the first snapshot or, with no snapshot before the
    # end, at the first guard step, after the projection of b
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1e-12)
    st, cfg = _oracle_case((3, 16, "random_band"), "full")
    cfg = SolverConfig(cfg.params, SOB, 1e-3, 0.205, snapshot_every=snapshot_every)
    expected, expected_log = _run_by_steps(st, cfg)
    kept = []
    _, log = run(st, cfg, sinks=[lambda i, s: kept.append((i, s))])
    assert [i for i, _ in kept] == [0, min(snapshot_every, 100)]
    _assert_same_states(kept, expected)
    assert log.halted and log == expected_log


@pytest.mark.parametrize(
    "case, message",
    [((3, 16), "numerical blow-up at t=1.1059999999999999"), ((2, 32), "numerical blow-up at t=1.1039999999999999")],
)
def test_run_blows_up_as_a_loop_of_steps(case, message):
    # the error names the last stamped t plus dt, here not t0 + i dt (1.106, 1.104)
    st = make_initial("random_band", Grid(*case), 72, (1e4, 1e4), SOB)
    st = State(st.u, st.b, 1.1)
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 0.05, snapshot_every=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # dt is far above the advisory CFL bound
        with pytest.raises(BlowUpError) as by_steps:
            _run_by_steps(st, cfg)
        with pytest.raises(BlowUpError) as by_run:
            run(st, cfg)
    assert str(by_run.value) == str(by_steps.value) == message


def test_run_holds_no_half_spectrum_state_while_it_steps():
    # tracemalloc sees NumPy's data buffers.  The initial state, the grid's
    # caches and the transforms' plans exist before tracing, and the run
    # yields nothing between step 0 and its last step, so a step may hold the
    # workspace, the 12-field physical batch and one field's half spectrum
    # in the transforms, with a slack of 3 half-spectrum components for the
    # diffusion factors: half of one state's 6
    g = Grid(3, 32)
    st = make_initial("random_band", g, 73, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 0.003, snapshot_every=10**9)
    run(st, cfg)
    tracemalloc.start()
    try:
        run(st, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [a for a in vars(solver._Workspace(g)).values() if isinstance(a, np.ndarray)]
    workspace = sum(a.nbytes for a in arrays if a.base is None)
    component = np.empty(g.half_shape, dtype=complex).nbytes
    physical = 12 * np.empty(g.shape).nbytes
    assert peak < workspace + physical + component + 3 * component


@pytest.mark.parametrize("lanes", [1, 2])
def test_run_in_lanes_holds_one_half_spectrum_per_lane(monkeypatch, lanes):
    # as above at 64^3, where the transforms split a batch's fields into
    # lanes, each with one field's half spectrum of its own
    monkeypatch.setattr(spectral, "_LANES", lanes)
    g = Grid(3, 64)
    st = make_initial("random_band", g, 74, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 0.002, snapshot_every=10**9)
    run(st, cfg)
    tracemalloc.start()
    try:
        run(st, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [a for a in vars(solver._Workspace(g)).values() if isinstance(a, np.ndarray)]
    workspace = sum(a.nbytes for a in arrays if a.base is None)
    component = np.empty(g.half_shape, dtype=complex).nbytes
    physical = 12 * np.empty(g.shape).nbytes
    assert peak < workspace + physical + lanes * component + 3 * component


@pytest.mark.parametrize("factor", [solver.BLOWUP_FACTOR, 1e-12])
def test_trajectory_yields_what_run_hands_its_sinks(monkeypatch, factor):
    # 101 steps cross the safety projection of b at step 100; a factor of
    # 1e-12 trips the guard at the first snapshot after step 0 instead
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", factor)
    st, _ = _oracle_case((3, 16, "random_band"), "full")
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 0.101, snapshot_every=25)
    handed = []
    final, log = run(st, cfg, sinks=[lambda i, s: handed.append((i, s))])
    streamed_log = solver.RunLog()
    streamed = list(solver.trajectory(st, cfg, streamed_log))
    assert [i for i, _ in streamed] == [i for i, _ in handed]
    assert [i for i, _ in handed] == ([0, 25, 50, 75, 100, 101] if factor > 1 else [0, 25])
    for (_, got), (_, ref) in zip(streamed, handed):
        assert np.array_equal(got.u.coeffs, ref.u.coeffs)
        assert np.array_equal(got.b.coeffs, ref.b.coeffs)
        assert got.t == ref.t
    assert handed[-1][1] is final
    assert streamed_log == log  # times, psi, projection_drift, halted, halt_reason
    assert log.halted == (factor < 1)
    assert len(log.projection_drift) == (1 if factor > 1 else 0)


def test_step_leaves_its_input_alone():
    st, cfg = _oracle_case((3, 16, "random_band"), "full")
    u, b = st.u.coeffs.copy(), st.b.coeffs.copy()
    first, second = step(st, cfg), step(st, cfg)
    assert np.array_equal(first.u.coeffs, second.u.coeffs)
    assert np.array_equal(first.b.coeffs, second.b.coeffs)
    assert np.array_equal(st.u.coeffs, u) and np.array_equal(st.b.coeffs, b)


def test_rhs_preserves_divergence_freedom():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 9, (1.0, 1.0), SOB)
    du, db = compute_rhs(st, PhysicalParams(0.05, 0.05, 0.1))
    assert lp_norm(divergence(du), 2) < 1e-10 * max(lp_norm(du, 2), 1e-30)
    assert lp_norm(divergence(db), 2) < 1e-10 * max(lp_norm(db, 2), 1e-30)


def test_rhs_rejects_divergent_state():
    g = Grid(3, 16)
    x = g.coordinates()[0]
    bad = to_spectral(g, np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)]))
    ok = SpectralField.zero(g, 3)
    with pytest.raises(StateDriftError, match="state drift"):
        compute_rhs(State(bad, ok, 0.0), PhysicalParams(0.1, 0.1, 0.0))


def test_divergence_drift_metric():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 12, (1.0, 1.0), SOB)
    assert divergence_drift(st.u) < 1e-12
    x = g.coordinates()[0]
    bad = to_spectral(g, np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)]))
    assert divergence_drift(bad) > 0.1


def test_entry_checks_judge_the_divergence_of_huge_fields():
    # at 1e300 the L2 norms of f and div f overflow, and inf / inf is a NaN
    # drift, which passes every tolerance; the drift must not depend on scale
    g = Grid(3, 16)
    x = g.coordinates()[0]
    zero = np.zeros_like(x)
    u = SpectralField.zero(g, 3)
    divergent = to_spectral(g, 1e300 * np.stack([np.sin(x), zero, zero]))
    solenoidal = to_spectral(g, 1e300 * np.stack([zero, np.sin(x), np.cos(x)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert divergence_drift(divergent) == divergence_drift(divergent * 1e-300) == 1.0
        with pytest.raises(StateDriftError, match=r"^state drift: div b = 1\.000e\+00 exceeds"):
            solver._check_state(State(u, divergent, 0.0))
        solver._check_state(State(u, solenoidal, 0.0))


def test_run_rejects_content_outside_dealias_cube():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 67, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 1e-3)
    scale = np.abs(st.b.coeffs).max()
    # k = (0, 0, 7) lies outside the 2/3 cube (|k_i| <= 16/3); x-polarized, so
    # the mode is divergence-free and only the support check can object
    for amplitude, ok in ((1e-13 * scale, True), (1e-11 * scale, False)):
        b = st.b.coeffs.copy()
        b[0, 0, 0, 7] = amplitude
        bad = State(st.u, SpectralField(g, b), 0.0)
        if ok:
            run(bad, cfg)
        else:
            with pytest.raises(StateDriftError, match="b has .* of its largest amplitude outside the 2/3 dealias cube"):
                run(bad, cfg)


def test_compute_rhs_rejects_content_outside_dealias_cube():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 67, (1.0, 1.0), SOB)
    u = st.u.coeffs.copy()
    u[0, 0, 0, 7] = 1e-11 * np.abs(u).max()  # k = (0, 0, 7), x-polarized: divergence-free
    with pytest.raises(StateDriftError, match="u has .* outside the 2/3 dealias cube"):
        compute_rhs(State(SpectralField(g, u), st.b, 0.0), PhysicalParams(0.05, 0.05, 0.1))


def test_entry_checks_reject_non_finite_state():
    # NaN passes the divergence and support checks (nan > tol is False)
    g = Grid(3, 16)
    st = make_initial("random_band", g, 67, (1.0, 1.0), SOB)
    params = PhysicalParams(0.05, 0.05, 0.1)
    cfg = SolverConfig(params, SOB, 1e-3, 1e-3)
    for value in (np.nan, np.inf):
        b = st.b.coeffs.copy()
        b[1, 2, 3, 1] = value
        bad = State(st.u, SpectralField(g, b), 0.0)
        for call in (lambda: run(bad, cfg), lambda: compute_rhs(bad, params)):
            with pytest.raises(StateDriftError, match=r"^non-finite state: b has 1 non-finite coefficients at t=0\.0$"):
                call()


def test_entry_checks_reject_velocity_in_hall_only():
    # hall_only holds u at 0, so u must enter as exactly 0
    g = Grid(3, 16)
    st = make_initial("random_band", g, 67, (1.0, 1.0), SOB)
    params = PhysicalParams(0.05, 0.05, 0.1)
    cfg = SolverConfig(params, SOB, 1e-3, 1e-3, mode="hall_only")
    u = np.zeros_like(st.u.coeffs)
    u[0, 0, 0, 1] = 1e-300  # one tiny x-polarized mode at k = (0, 0, 1): divergence-free
    for bad, count in ((st, np.count_nonzero(st.u.coeffs)), (State(SpectralField(g, u), st.b, 0.0), 1)):
        for call in (lambda: run(bad, cfg), lambda: compute_rhs(bad, params, "hall_only")):
            with pytest.raises(StateDriftError, match=rf"^state drift: u must be zero in hall_only mode, .* has {count} nonzero"):
                call()
    # the same states enter the other modes
    for mode in ("full", "mhd"):
        compute_rhs(st, params, mode)


def test_integrated_params_resolve_each_mode():
    params = PhysicalParams(0.05, 0.07, 0.3)
    assert solver.integrated_params(params, "full") is params
    assert solver.integrated_params(params, "hall_only") is params
    assert solver.integrated_params(params, "mhd") == PhysicalParams(0.05, 0.07, 0.0)


def test_mhd_ignores_eta_in_step_rhs_and_cfl_advisory():
    # mhd is the full system with eta = 0: eta = 10 must change nothing, not
    # even the advisory CFL bound, which eta tightens in full
    g = Grid(3, 16)
    st = make_initial("random_band", g, 61, (1.0, 1.0), SOB)
    with_eta, without = PhysicalParams(0.05, 0.05, 10.0), PhysicalParams(0.05, 0.05, 0.0)
    for a, b in zip(compute_rhs(st, with_eta, "mhd"), compute_rhs(st, without, "full")):
        assert np.array_equal(a.coeffs, b.coeffs)
    dt = 0.5 * cfl_advisory_dt(st, without)
    assert cfl_advisory_dt(st, with_eta) < dt  # the eta bound would warn
    mhd, full = (step(st, SolverConfig(p, SOB, dt, dt, mode=m)) for p, m in ((with_eta, "mhd"), (without, "full")))
    assert np.array_equal(mhd.u.coeffs, full.u.coeffs) and np.array_equal(mhd.b.coeffs, full.b.coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(st, SolverConfig(with_eta, SOB, dt, dt, mode="mhd"))
    with pytest.warns(RuntimeWarning, match="advisory CFL"):
        run(st, SolverConfig(with_eta, SOB, dt, dt))


def _anti_hermitian(f, amplitude):
    # i amplitude added at k = (1, 2, 0) and at -k, both on the k_last = 0
    # plane, so f_k - conj f_-k gains 2i amplitude; z-polarized and inside the
    # 2/3 cube, the mode is divergence-free and only the Hermitian check objects
    c = f.coeffs.copy()
    c[2, 1, 2, 0] += 1j * amplitude
    c[2, -1, -2, 0] += 1j * amplitude
    return SpectralField(f.grid, c)


def test_entry_checks_reject_non_hermitian_state():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 67, (1.0, 1.0), SOB)
    params = PhysicalParams(0.05, 0.05, 0.1)
    cfg = SolverConfig(params, SOB, 1e-3, 1e-3)
    scale = np.abs(st.b.coeffs).max()
    for amplitude, ok in ((1e-14 * scale, True), (1e-11 * scale, False)):
        bad = State(st.u, _anti_hermitian(st.b, amplitude), 0.0)
        for call in (lambda: run(bad, cfg), lambda: compute_rhs(bad, params)):
            if ok:
                call()
            else:
                with pytest.raises(StateDriftError, match=r"^state drift: b is not Hermitian: .* on the k_last = 0 plane"):
                    call()


@pytest.mark.parametrize("n, dims", [(3, 16), (3, 32), (2, 32), (2, 64)])
@pytest.mark.parametrize("kind", ["random_band", "taylor_green_like", "beltrami"])
def test_real_states_hermitian_to_roundoff(n, dims, kind):
    # made, stepped and round-tripped states sit far below the 1e-12 tolerance
    g = Grid(n, dims)
    st = make_initial(kind, g, 11, (0.0 if kind == "beltrami" else 1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 1.0)
    stepped = step(step(st, cfg), cfg)
    for f in (st.u, st.b, stepped.u, stepped.b, to_spectral(g, to_physical(stepped.b))):
        assert spectral._hermitian_defect(f) <= 1e-14 * np.abs(f.coeffs).max()


def test_entry_checks_report_the_earlier_invariant_first():
    # each invariant is checked on u and then b before the next one, so a
    # state breaking two reports the earlier invariant, in whichever field
    g = Grid(3, 16)
    st = make_initial("random_band", g, 67, (1.0, 1.0), SOB)
    params = PhysicalParams(0.05, 0.05, 0.1)
    cfg = SolverConfig(params, SOB, 1e-3, 1e-3)

    def outside(f):
        c = f.coeffs.copy()
        c[0, 0, 0, 7] = np.abs(c).max()  # k = (0, 0, 7), x-polarized: divergence-free
        return SpectralField(g, c)

    nan_b = st.b.coeffs.copy()
    nan_b[1, 2, 3, 1] = np.nan
    cases = [
        (outside(st.u), SpectralField(g, nan_b), r"^non-finite state: b has 1 "),
        (_anti_hermitian(st.u, np.abs(st.u.coeffs).max()), outside(st.b), r"^state drift: b has .* outside the 2/3 dealias cube"),
    ]
    for u, b, message in cases:
        bad = State(u, b, 0.0)
        for call in (lambda: run(bad, cfg), lambda: compute_rhs(bad, params)):
            with pytest.raises(StateDriftError, match=message):
                call()


def test_step_reads_only_the_dealias_cube():
    # a tail below the 1e-12 entry tolerance is dropped, not carried: the
    # step of the tailed state equals that of the truncated one bit for bit
    st, cfg = _oracle_case((3, 16, "random_band"), "full")
    g = st.grid
    rng = np.random.default_rng(68)
    tailed = []
    for f in (st.u, st.b):
        tail = rng.standard_normal(f.coeffs.shape) * (1e-13 * np.abs(f.coeffs).max())
        tailed.append(SpectralField(g, np.where(g.dealias_mask, f.coeffs, tail)))
    got = step(State(*tailed, 0.0), cfg)
    ref = step(st, cfg)
    assert np.array_equal(got.u.coeffs, ref.u.coeffs)
    assert np.array_equal(got.b.coeffs, ref.b.coeffs)
    du, db = compute_rhs(State(*tailed, 0.0), cfg.params)
    du_r, db_r = compute_rhs(st, cfg.params)
    assert np.array_equal(du.coeffs, du_r.coeffs) and np.array_equal(db.coeffs, db_r.coeffs)


@pytest.mark.parametrize("mode", ["full", "hall_only"])
def test_step_and_rhs_zero_outside_dealias_cube(mode):
    st, cfg = _oracle_case((3, 16, "random_band"), mode)
    outside = ~st.grid.dealias_mask
    stepped = step(st, cfg)
    for f in (stepped.u, stepped.b, *compute_rhs(st, cfg.params, mode)):
        assert not f.coeffs[:, outside].any()


def test_integrator_fourth_order():
    # Richardson: error(dt) / error(dt/2) ~ 16 against a much finer reference;
    # amplitudes chosen so the time error sits far above roundoff
    g = Grid(3, 16)
    st = make_initial("random_band", g, 41, (5.0, 5.0), SOB)
    params = PhysicalParams(0.02, 0.02, 0.5)
    T = 0.4

    def advance(dt):
        cfg = SolverConfig(params, SOB, dt, T, snapshot_every=10**9)
        with np.errstate(all="ignore"):
            final, _ = run(st, cfg)
        return final

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        f1 = advance(T / 4)
        f2 = advance(T / 8)
        f4 = advance(T / 256)  # reference

    def err(a, b):
        return lp_norm(a.u - b.u, 2) + lp_norm(a.b - b.b, 2)

    e1, e2 = err(f1, f4), err(f2, f4)
    order = np.log2(e1 / e2)
    assert 3.6 < order < 4.4


def test_beltrami_exact_decay_short():
    g = Grid(3, 16)
    mu = 0.1
    st = make_initial("beltrami", g, 0, None, SOB)
    cfg = SolverConfig(PhysicalParams(0.0, mu, 0.1), SOB, 1e-3, 0.05, snapshot_every=10**9)
    final, _ = run(st, cfg)
    xs = g.coordinates()
    exact = np.exp(-mu * final.t) * np.stack(
        [np.zeros_like(xs[0]), np.sin(xs[0]), np.cos(xs[0])]
    )
    assert np.abs(to_physical(final.b) - exact).max() < 1e-11
    assert lp_norm(final.u, 2) == 0.0


def test_pure_diffusion_exact():
    # with the nonlinearity absent (u = b single low mode, eta = 0, u = 0),
    # the integrating factor reproduces e^{-mu k^2 t} exactly per mode
    g = Grid(3, 16)
    x = g.coordinates()[0]
    b = to_spectral(g, np.stack([np.zeros_like(x), np.sin(2 * x), np.zeros_like(x)]))
    # b = (0, sin 2x, 0) is divergence-free; b . grad b = 0; curl b x b is a gradient
    st = State(SpectralField.zero(g, 3), b, 0.0)
    cfg = SolverConfig(PhysicalParams(0.0, 0.3, 0.0), SOB, 1e-3, 0.1, snapshot_every=10**9)
    final, _ = run(st, cfg)
    expected = np.exp(-0.3 * 4 * 0.1) * np.sin(2 * x)
    assert np.abs(to_physical(final.b)[1] - expected).max() < 1e-12


def test_modes_consistent():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 55, (1.0, 1.0), SOB)
    params0 = PhysicalParams(0.05, 0.05, 0.0)
    du_full, db_full = compute_rhs(st, params0, "full")
    du_mhd, db_mhd = compute_rhs(st, params0, "mhd")
    assert lp_norm(du_full - du_mhd, 2) < 1e-14 * max(lp_norm(du_full, 2), 1e-30)
    assert lp_norm(db_full - db_mhd, 2) < 1e-14 * max(lp_norm(db_full, 2), 1e-30)
    with pytest.raises(ValueError):
        compute_rhs(st, params0, "bogus")


def test_hall_only_keeps_velocity_zero():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 56, (0.0, 1.0), SOB)
    cfg = SolverConfig(
        PhysicalParams(0.0, 1.0, 1.0), SOB, 1e-4, 0.005, mode="hall_only",
        snapshot_every=10**9,
    )
    final, _ = run(st, cfg)
    assert lp_norm(final.u, 2) == 0.0
    assert lp_norm(final.b - st.b, 2) > 0  # the field actually evolved


def test_run_determinism():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 57, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 0.01, snapshot_every=5)
    f1, _ = run(st, cfg)
    f2, _ = run(st, cfg)
    assert np.array_equal(f1.u.coeffs, f2.u.coeffs)
    assert np.array_equal(f1.b.coeffs, f2.b.coeffs)


def test_sink_cadence_and_log():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 58, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.0), SOB, 1e-3, 0.01, snapshot_every=4)
    seen = []
    final, log = run(st, cfg, sinks=[lambda i, s: seen.append(i)])
    assert seen == [0, 4, 8, 10]
    assert log.times[0] == 0.0
    assert len(log.times) == len(log.psi)
    assert not log.halted


def test_run_stamps_time_from_step_count():
    g = Grid(2, 16)
    st = make_initial("random_band", g, 60, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 0.05, snapshot_every=10)
    seen = []
    final, log = run(st, cfg, sinks=[lambda i, s: seen.append(s.t)])
    # summing dt fifty times gives 0.05000000000000004
    assert final.t == 50 * 1e-3
    assert seen == log.times == [i * 1e-3 for i in range(0, 51, 10)]


def test_blowup_guard_halts(monkeypatch):
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1e-12)
    g = Grid(3, 16)
    st = make_initial("random_band", g, 59, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.0), SOB, 1e-3, 0.01, snapshot_every=2)
    final, log = run(st, cfg)
    assert log.halted
    assert "guard" in log.halt_reason
    assert final.t < 0.01


def test_blowup_guard_runs_without_snapshots(monkeypatch):
    # snapshot_every = 10**9 leaves only the final step as a snapshot; the
    # guard still looks every 100 steps and logs the point where it trips
    monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1e-12)
    g = Grid(3, 16)
    st = make_initial("random_band", g, 59, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.0), SOB, 1e-3, 0.15, snapshot_every=10**9)
    seen = []
    final, log = run(st, cfg, sinks=[lambda i, s: seen.append(i)])
    assert log.halted
    assert final.t == 100 * 1e-3
    assert seen == [0, 100]
    assert log.times == [0.0, 100 * 1e-3] and len(log.psi) == 2


def test_guard_checks_that_pass_are_not_logged():
    g = Grid(2, 16)
    st = make_initial("random_band", g, 59, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 0.25, snapshot_every=10**9)
    final, log = run(st, cfg)
    assert not log.halted
    assert log.times == [0.0, 250 * 1e-3] and len(log.psi) == 2
    assert len(log.projection_drift) == 2


def test_run_warns_when_tmax_is_not_whole_steps():
    g = Grid(2, 16)
    st = make_initial("random_band", g, 60, (1.0, 1.0), SOB)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.1), SOB, 1e-3, 0.0025)
    with pytest.warns(RuntimeWarning, match=r"tmax=0\.0025 .* dt=0\.001 .* t=0\.002"):
        final, _ = run(st, cfg)
    assert final.t == 0.002


def test_blowup_error_on_nonfinite():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 60, (1.0, 1.0), SOB)
    bad = State(st.u * np.nan, st.b, 0.0)
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.0), SOB, 1e-3, 0.01)
    with pytest.raises(BlowUpError, match="blow-up"):
        step(bad, cfg)


def test_cfl_advisory():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 61, (1.0, 1.0), SOB)
    dt_a = cfl_advisory_dt(st, PhysicalParams(0.05, 0.05, 0.0))
    dt_b = cfl_advisory_dt(st, PhysicalParams(0.05, 0.05, 10.0))
    assert 0 < dt_b < dt_a  # the Hall term tightens the bound
    cfg = SolverConfig(PhysicalParams(0.05, 0.05, 0.0), SOB, 10.0 * dt_a, 20.0 * dt_a)
    with pytest.warns(RuntimeWarning, match="advisory CFL"):
        run(st, cfg)


def test_make_initial_targets_and_errors():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 63, (2.0, 0.5), SOB)
    assert dyadic_sobolev_norm(st.u, SOB.s) == pytest.approx(2.0, rel=1e-12)
    assert dyadic_sobolev_norm(st.b, SOB.r) == pytest.approx(0.5, rel=1e-12)
    z = make_initial("random_band", g, 63, (0.0, 1.0), SOB)
    assert lp_norm(z.u, 2) == 0.0
    with pytest.raises(ValueError, match="unknown initial kind"):
        make_initial("vortex", g, 0, None, SOB)
    with pytest.raises(ValueError, match="reseed"):
        make_initial("beltrami", g, 0, (1.0, 1.0), SOB)  # u part is a zero draw


def test_make_initial_divergence_free():
    g = Grid(3, 16)
    for kind in ("random_band", "taylor_green_like", "beltrami"):
        st = make_initial(kind, g, 3, None, SOB)
        assert divergence_drift(st.u) < 1e-12
        assert divergence_drift(st.b) < 1e-12


def test_solver_config_validation():
    params = PhysicalParams(0.05, 0.05, 0.0)
    with pytest.raises(ValueError):
        SolverConfig(params, SOB, -1e-3, 1.0)
    with pytest.raises(ValueError):
        SolverConfig(params, SOB, 1e-3, 1.0, mode="spooky")
    with pytest.raises(ValueError):
        PhysicalParams(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError, match="params.eta"):
        PhysicalParams(0.1, 0.1, np.inf)
    with pytest.raises(ValueError, match="solver.dt"):
        SolverConfig(params, SOB, np.nan, 1.0)
    with pytest.raises(ValueError, match="solver.tmax"):
        SolverConfig(params, SOB, 1e-3, 0.0)
    with pytest.raises(ValueError, match="solver.snapshot_every"):
        SolverConfig(params, SOB, 1e-3, 1.0, snapshot_every=0)
