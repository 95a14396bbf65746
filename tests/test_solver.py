"""Solver: right-hand side against an independent np.fft oracle, integrator
order, exact solutions, guards, and run bookkeeping."""

import numpy as np
import pytest

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
from hallmhd import solver
from hallmhd.solver import (
    BlowUpError,
    StateDriftError,
    cfl_advisory_dt,
    divergence_drift,
    recover_pressure,
)
from hallmhd.spectral import (
    SpectralField,
    advect,
    divergence,
    gradient,
    irfftn_batch,
    leray_project,
    lp_norm,
    rfftn_batch,
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
    inner = getattr(solver, name)

    def counted(arr, *args):
        tally[name] = tally.get(name, 0) + arr.shape[0]
        return inner(arr, *args)

    monkeypatch.setattr(solver, name, counted)


@pytest.mark.parametrize("mode, inverse, forward", [("full", 12, 6), ("mhd", 12, 6), ("hall_only", 6, 3)])
def test_fft_fields_per_rhs(monkeypatch, mode, inverse, forward):
    g = Grid(3, 16)
    st = make_initial("random_band", g, 64, (0.0 if mode == "hall_only" else 1.0, 1.0), SOB)
    tally = {}
    for name in ("irfftn_batch", "rfftn_batch"):
        _count_calls(monkeypatch, name, tally)
    compute_rhs(st, PhysicalParams(0.05, 0.05, 0.1), mode)
    assert tally == {"irfftn_batch": inverse, "rfftn_batch": forward}


def test_ifrk4_factor_cache_keeps_latest():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 66, (1.0, 1.0), SOB)
    params = PhysicalParams(0.05, 0.05, 0.1)
    first = step(st, SolverConfig(params, SOB, 1e-3, 1.0))
    step(first, SolverConfig(params, SOB, 2e-3, 1.0))
    assert [key for key in g._cache if "ifrk4" in key] == ["ifrk4"]


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
    eta = 0.0 if mode == "mhd" else params.eta
    j = 1j * _ref_cross(k, b)
    if mode == "hall_only":
        pb, pj = np.split(irfftn_batch(np.concatenate([b, j]) * npts, n, g.shape), 2)
        jxb = rfftn_batch(_ref_cross(pj, pb), n) * (g.dealias_mask / npts)
        return np.zeros_like(u), -eta * (1j * _ref_cross(k, jxb))
    stack = np.concatenate([u, 1j * _ref_cross(k, u), b, j]) * npts
    pu, pw, pb, pj = np.split(irfftn_batch(stack, n, g.shape), 4)
    prods = np.concatenate(
        [_ref_cross(pu, pw) + _ref_cross(pj, pb), _ref_cross(pu - eta * pj, pb)]
    )
    hats = rfftn_batch(prods, n) * (g.dealias_mask / npts)
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


def test_run_bit_identical_and_sink_states_not_overwritten(monkeypatch):
    # 101 steps cross the safety projection of b at step 100; the sink keeps
    # the State objects it is handed, so a reused buffer would show here
    st, _ = _oracle_case((3, 16, "random_band"), "full")
    g = st.grid
    cfg = SolverConfig(PhysicalParams(0.05, 0.07, 0.3), SOB, 1e-3, 0.101, snapshot_every=3)
    expected = []
    with monkeypatch.context() as m:
        m.setattr(solver, "step", _ref_step)
        run(st, cfg, sinks=[lambda i, s: expected.append((i, s.copy()))])
    keys_before = set(g._cache)
    kept = []
    final, _ = run(st, cfg, sinks=[lambda i, s: kept.append((i, s))])
    assert [i for i, _ in kept] == [i for i, _ in expected] == [*range(0, 101, 3), 101]
    for (_, got), (_, ref) in zip(kept, expected):
        assert np.array_equal(got.u.coeffs, ref.u.coeffs)
        assert np.array_equal(got.b.coeffs, ref.b.coeffs)
        assert got.t == ref.t
    assert kept[-1][1] is final
    assert set(g._cache) <= keys_before | {"ifrk4"}


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


def test_blowup_guard_halts():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 59, (1.0, 1.0), SOB)
    cfg = SolverConfig(
        PhysicalParams(0.05, 0.05, 0.0), SOB, 1e-3, 0.01, snapshot_every=2,
        blowup_factor=1e-12,
    )
    final, log = run(st, cfg)
    assert log.halted
    assert "guard" in log.halt_reason
    assert final.t < 0.01


def test_blowup_guard_runs_without_snapshots():
    # snapshot_every = 10**9 leaves only the final step as a snapshot; the
    # guard still looks every 100 steps and logs the point where it trips
    g = Grid(3, 16)
    st = make_initial("random_band", g, 59, (1.0, 1.0), SOB)
    cfg = SolverConfig(
        PhysicalParams(0.05, 0.05, 0.0), SOB, 1e-3, 0.15, snapshot_every=10**9,
        blowup_factor=1e-12,
    )
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


def test_recover_pressure():
    g = Grid(3, 16)
    st = make_initial("random_band", g, 62, (1.0, 1.0), SOB)
    p = recover_pressure(st, PhysicalParams(0.05, 0.05, 0.0))
    w = advect(st.u, st.u) - advect(st.b, st.b)
    # with du/dt = -(w + grad p) + diffusion: w + grad p is the Leray part of w
    residual = w + gradient(p) - leray_project(w)
    assert lp_norm(residual, 2) < 1e-11 * max(lp_norm(w, 2), 1e-30)
    assert abs(p.coeffs[0, 0, 0, 0]) < 1e-15  # zero mean


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
        SolverConfig(params, SOB, 1e-3, 1.0, scheme="euler")
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
