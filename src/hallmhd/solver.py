"""Time integration of the incompressible viscous resistive Hall-MHD system.

With w = curl u and j = curl b, the nonlinearity is evaluated in curl form:
the momentum term in rotational form P(u x w + j x b), where the Leray
projection P also removes the pressure and the |u|^2/2, |b|^2/2 gradients,
and the induction and Hall terms together as curl((u - eta j) x b).  That is
six pointwise products per right-hand side: 12 fields transformed to physical
space and 6 back (18 FFT fields; 6 + 3 = 9 in hall_only).  The curl form
equals the divergence form only for divergence-free states supported inside
the 2/3 dealias cube, so make_initial cuts its data to that cube and the
dealiased scheme keeps it there.

Time stepping is integrating-factor RK4: diffusion is propagated exactly by
exp(-nu |k|^2 dt) / exp(-mu |k|^2 dt) and the (dealiased) quadratic terms are
treated explicitly.  State, compute_rhs, step and run all hold the real-FFT
half spectrum of spectral.SpectralField, but under the 2/3 rule every state
and every right-hand side is zero outside the dealias cube, so the spectral
work runs on compact copies of that cube (spectral.gather_cube): the curls,
the Leray form, the four stages and the combine.  Only the FFT input is a
full half spectrum, one buffer whose modes outside the cube are never
written; keeping the cube of the forward output is the dealiasing.  step and
compute_rhs read only the cube of their input, and their output is exactly
zero outside it.  The stages write into the buffers of one _Workspace, which
run allocates per call and drops on return (a lone step or compute_rhs builds
its own), through out= and in-place ufuncs in the order of the plain
expressions; the 1/npoints of the transform pair is folded into the FFTs with
norm="forward", exact because npoints is a power of two.  Modes:

  full      - the complete system,
  mhd       - Hall coefficient forced to zero,
  hall_only - magnetic equation alone with u = 0 and its transport dropped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .littlewood_paley import SobolevParams, dyadic_sobolev_norm, resolved_band
from .random_fields import random_band_field
from .spectral import (
    Grid,
    SpectralField,
    advect,
    dealias_cutoff,
    divergence,
    gather_cube,
    irfftn_batch,
    leray_project,
    rfftn_batch,
    lp_norm,
    scatter_cube,
    to_spectral,
)

MODES = ("full", "mhd", "hall_only")


class StateDriftError(ValueError):
    """Raised when an allegedly divergence-free state has drifted."""


class BlowUpError(RuntimeError):
    """Raised when coefficients leave the representable range mid-run."""


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity nu, resistivity mu, Hall coefficient eta; all finite and nonnegative."""

    nu: float
    mu: float
    eta: float = 0.0

    def __post_init__(self):
        for name in ("nu", "mu", "eta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"params.{name}: must be finite and nonnegative, got {value!r}")


@dataclass
class State:
    """Velocity/magnetic pair at time t, both stored spectrally."""

    u: SpectralField
    b: SpectralField
    t: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def copy(self) -> "State":
        return State(self.u.copy(), self.b.copy(), self.t)


@dataclass
class SolverConfig:
    params: PhysicalParams
    sobolev: SobolevParams
    dt: float
    tmax: float
    scheme: str = "ifrk4"
    mode: str = "full"
    snapshot_every: int = 10
    blowup_factor: float = 1.0e6

    def __post_init__(self):
        for name in ("dt", "tmax"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"solver.{name}: must be finite and positive, got {value!r}")
        if self.snapshot_every < 1:
            raise ValueError(
                f"solver.snapshot_every: must be at least 1, got {self.snapshot_every!r}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scheme != "ifrk4":
            raise ValueError(f"unknown scheme {self.scheme!r}")


def divergence_drift(f: SpectralField) -> float:
    """L2 norm of div f, relative to the field scale (absolute for small fields)."""
    return lp_norm(divergence(f), 2) / max(1.0, lp_norm(f, 2))


def _check_divergence(state: State, tol: float = 1.0e-8) -> None:
    for name, f in (("u", state.u), ("b", state.b)):
        drift = divergence_drift(f)
        if drift > tol:
            raise StateDriftError(
                f"state drift: div {name} = {drift:.3e} exceeds {tol:.1e} at t={state.t}"
            )


def _outside_cube(f: SpectralField, cutoff: float) -> float:
    """Largest |coefficient| with some |k_i| > cutoff, relative to the largest
    of all (0 for a zero field)."""
    outside = (np.abs(f.grid.k) > cutoff).any(axis=0)
    mag = np.abs(f.coeffs)
    peak = mag.max(initial=0.0)
    return float(mag[:, outside].max(initial=0.0) / peak) if peak > 0 else 0.0


def _check_support(state: State, rel: float = 1.0e-12) -> None:
    """Reject content outside the 2/3 dealias cube, where the curl-form
    nonlinearity no longer equals the divergence form."""
    cutoff = dealias_cutoff(state.grid.dims)
    for name, f in (("u", state.u), ("b", state.b)):
        tail = _outside_cube(f, cutoff)
        if tail > rel:
            raise StateDriftError(
                f"state drift: {name} has {tail:.3e} of its largest amplitude outside "
                f"the 2/3 dealias cube (allowed {rel:.0e}) at t={state.t}"
            )


def _cross_into(out: np.ndarray, a: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """out = a x b, one component at a time; tmp is a one-component scratch
    field, and out must share no memory with a, b or tmp."""
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[l], out=out[i])
        np.multiply(a[l], b[j], out=tmp)
        np.subtract(out[i], tmp, out=out[i])


class _Workspace:
    """Buffers for the RHS and the IF-RK4 stages on one grid.

    The spectral work runs on compact copies of the 2/3 dealias cube
    (spectral.gather_cube), about 30 % of the half spectrum in 3D: k and
    inv_ksq, gathered once; x0, a step's input; stage, the stage input;
    slopes, three slope slots (the fourth slope reuses the third); curls, the
    spectral curls w and j, later scratch for the Leray form; hats, the
    dealiased products; finite, the finiteness check.  spec is the one
    half-spectrum FFT input, 12 fields (u, w, b, j); each RHS writes only its
    cube, so everything outside stays zero for the life of the workspace.
    prods holds the 6 physical products.  Pages are touched only when
    written, so compute_rhs pays nothing for the stepping buffers.
    """

    def __init__(self, grid: Grid):
        cube = grid.cube_shape
        self.k = gather_cube(grid.k, np.empty((3, *cube)))
        self.inv_ksq = gather_cube(grid.inv_ksq, np.empty(cube))
        self.spec = np.zeros((12, *grid.half_shape), dtype=complex)
        self.prods = np.empty((6, *grid.shape))
        self.curls = np.empty((6, *cube), dtype=complex)
        self.hats = np.empty((6, *cube), dtype=complex)
        self.x0 = np.empty((6, *cube), dtype=complex)
        self.stage = np.empty((6, *cube), dtype=complex)
        self.slopes = np.empty((3, 6, *cube), dtype=complex)
        self.finite = np.empty((6, *cube), dtype=bool)

    def load(self, state: State) -> np.ndarray:
        """x0 <- the dealias cube of (u, b); returns x0."""
        gather_cube(state.u.coeffs, self.x0[:3])
        gather_cube(state.b.coeffs, self.x0[3:])
        return self.x0


def _nonlinear(
    u: np.ndarray,
    b: np.ndarray,
    grid: Grid,
    params: PhysicalParams,
    mode: str,
    work: _Workspace,
    out: np.ndarray,
) -> None:
    """Nonlinear right-hand sides (no diffusion) on the compact dealias cube:
    u, b and out = (du, db) have shape (3, *cube_shape) and (6, *cube_shape).

    Momentum in rotational form P(u x w + j x b) with w = curl u, j = curl b;
    induction and Hall together as curl((u - eta j) x b).  Both equal the
    divergence-form terms for divergence-free states inside the 2/3 cube.
    (u, w, b, j) are formed on the cube and scattered into work.spec; full
    and mhd transform 12 fields in and 6 out, hall_only 6 in and 3 out, and
    only the cube of the forward output is kept, which is the 2/3 dealiasing.
    The transforms use norm="forward", which is exact: npoints is a power of two.
    """
    g = grid
    n, k = g.n, work.k
    eta = 0.0 if mode == "mhd" else params.eta
    spec, prods, curls, hats = work.spec, work.prods, work.curls, work.hats
    # out[0] is scratch until the results are written
    _cross_into(curls[3:], k, b, out[0])
    curls[3:] *= 1j
    scatter_cube(b, spec[6:9])
    scatter_cube(curls[3:], spec[9:])
    if mode == "hall_only":
        pb, pj = np.split(irfftn_batch(spec[6:], n, g.shape, "forward"), 2)
        _cross_into(prods[:3], pj, pb, prods[3])
        jxb = gather_cube(rfftn_batch(prods[:3], n, "forward"), hats[:3])
        out[:3] = 0.0
        _cross_into(out[3:], k, jxb, curls[0])
        out[3:] *= 1j
        out[3:] *= -eta
        return

    _cross_into(curls[:3], k, u, out[0])
    curls[:3] *= 1j
    scatter_cube(u, spec[:3])
    scatter_cube(curls[:3], spec[3:6])
    pu, pw, pb, pj = np.split(irfftn_batch(spec, n, g.shape, "forward"), 4)
    # prods[3] and pw are scratch until the products that live there are formed
    _cross_into(prods[:3], pu, pw, prods[3])
    _cross_into(pw, pj, pb, prods[3])
    prods[:3] += pw
    pj *= eta
    np.subtract(pu, pj, out=pj)
    _cross_into(prods[3:], pj, pb, pw[0])
    gather_cube(rfftn_batch(prods, n, "forward"), hats)
    # Leray projection as k x (w x k) / |k|^2: gradients along a lattice axis
    # cancel exactly, and so does the k = 0 mode, which vanishes analytically
    _cross_into(curls[:3], hats[:3], k, curls[3])
    _cross_into(out[:3], k, curls[:3], curls[3])
    out[:3] *= work.inv_ksq
    _cross_into(out[3:], k, hats[3:], curls[3])
    out[3:] *= 1j


def compute_rhs(state: State, params: PhysicalParams, mode: str = "full"):
    """Full right-hand sides (du/dt, db/dt) including diffusion.

    Only the 2/3 dealias cube of the state is read, and the result is exactly
    zero outside it.  Raises StateDriftError if the input is not
    divergence-free to 1e-8 or has more than 1e-12 of its largest amplitude
    outside the cube.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_divergence(state)
    _check_support(state)
    g = state.grid
    work = _Workspace(g)
    x = work.load(state)
    nl = work.slopes[0]
    _nonlinear(x[:3], x[3:], g, params, mode, work, nl)
    ksq = gather_cube(g.ksq, np.empty(g.cube_shape))
    nl[:3] -= params.nu * ksq * x[:3]
    nl[3:] -= params.mu * ksq * x[3:]
    if mode == "hall_only":
        nl[:3] = 0.0
    rhs = scatter_cube(nl, np.zeros((6, *g.half_shape), dtype=complex))
    return SpectralField(g, rhs[:3]), SpectralField(g, rhs[3:])


def _ifrk4_factors(g: Grid, dt: float, p: PhysicalParams):
    """Diffusion factors for u and for b on the compact dealias cube:
    e_h = exp(-c|k|^2 dt/2), e = e_h^2, dt e_h and 2 e_h (c = nu, mu); only
    the latest (dt, nu, mu) is kept per grid."""
    key = (dt, p.nu, p.mu)
    cached = g._cache.get("ifrk4")
    if cached is None or cached[0] != key:
        ksq = gather_cube(g.ksq, np.empty(g.cube_shape))
        factors = []
        for c in (p.nu, p.mu):
            e_h = np.exp(-c * ksq * (dt / 2.0))
            factors.append((e_h, e_h**2, dt * e_h, 2.0 * e_h))
        cached = (key, tuple(factors))
        g._cache["ifrk4"] = cached
    return cached[1]


def step(state: State, config: SolverConfig, work: _Workspace | None = None) -> State:
    """One integrating-factor RK4 step; diffusion propagated exactly.

    Only the 2/3 dealias cube of the state is read, and the new state is
    exactly zero outside it.  All four stages and the combine run in place on
    the compact cube buffers of work (a fresh workspace if none is given);
    the result shares no memory with work.
    """
    g = state.grid
    p = config.params
    dt = config.dt
    if work is None:
        work = _Workspace(g)
    x0 = work.load(state)
    parts = [
        (slice(3 * i, 3 * i + 3), x0[3 * i : 3 * i + 3], *factors)
        for i, factors in enumerate(_ifrk4_factors(g, dt, p))
    ]
    y, (s1, s2, s3) = work.stage, work.slopes

    def rhs(u, b, out):
        _nonlinear(u, b, g, p, config.mode, work, out)

    # y <- e_h (x0 + dt/2 k1)
    rhs(x0[:3], x0[3:], s1)
    for sl, x, e_h, e, dt_e_h, two_e_h in parts:
        np.multiply(s1[sl], 0.5 * dt, out=y[sl])
        np.add(x, y[sl], out=y[sl])
        y[sl] *= e_h
    # y <- e_h x0 + dt/2 k2
    rhs(y[:3], y[3:], s2)
    for sl, x, e_h, e, dt_e_h, two_e_h in parts:
        np.multiply(s2[sl], 0.5 * dt, out=s3[sl])
        np.multiply(e_h, x, out=y[sl])
        y[sl] += s3[sl]
    # y <- e x0 + dt e_h k3, after s2 <- k2 + k3
    rhs(y[:3], y[3:], s3)
    s2 += s3
    for sl, x, e_h, e, dt_e_h, two_e_h in parts:
        s3[sl] *= dt_e_h
        np.multiply(e, x, out=y[sl])
        y[sl] += s3[sl]
    # y <- e x0 + dt/6 (e k1 + 2 e_h (k2 + k3) + k4)
    rhs(y[:3], y[3:], s3)
    for sl, x, e_h, e, dt_e_h, two_e_h in parts:
        s1[sl] *= e
        s2[sl] *= two_e_h
        s1[sl] += s2[sl]
        s1[sl] += s3[sl]
        s1[sl] *= dt / 6.0
        np.multiply(e, x, out=y[sl])
        y[sl] += s1[sl]

    t1 = state.t + dt
    if not np.isfinite(y, out=work.finite).all():
        raise BlowUpError(f"numerical blow-up at t={t1}")
    out = scatter_cube(y, np.zeros((6, *g.half_shape), dtype=complex))
    return State(SpectralField(g, out[:3]), SpectralField(g, out[3:]), t1)


def cfl_advisory_dt(state: State, params: PhysicalParams, c: float = 0.5) -> float:
    """Advisory bound: min(dx / ||u||_inf, c / (eta ||b||_inf kmax^2))."""
    g = state.grid
    dx = 2.0 * np.pi / g.dims
    bound = np.inf
    umax = lp_norm(state.u, np.inf)
    if umax > 0:
        bound = dx / umax
    if params.eta > 0:
        bmax = lp_norm(state.b, np.inf)
        if bmax > 0:
            bound = min(bound, c / (params.eta * bmax * g.kmax**2))
    return bound


@dataclass
class RunLog:
    """Per-run bookkeeping: sampled psi values and safety-projection magnitudes."""

    times: list = field(default_factory=list)
    psi: list = field(default_factory=list)
    projection_drift: list = field(default_factory=list)
    halted: bool = False
    halt_reason: str = ""


def whole_steps(tmax: float, dt: float) -> bool:
    """Whether tmax is a whole number of dt steps, to a relative 1e-9."""
    steps = tmax / dt
    return math.isclose(steps, round(steps), rel_tol=1e-9)


GUARD_EVERY = 100  # steps between blow-up checks and safety projections of b


def run(initial: State, config: SolverConfig, sinks=()) -> tuple[State, RunLog]:
    """Advance the state to tmax, emitting snapshots through the sinks.

    Each sink is called as sink(step_index, state) at step 0, every
    snapshot_every steps, and at the final step.  The blow-up guard
    psi(t) > blowup_factor * psi(0) is checked at every snapshot and every
    GUARD_EVERY steps; when it trips the run halts after logging psi and
    calling the sinks.  A tmax that is not a whole number of dt steps is
    rounded to one, with a RuntimeWarning.  The initial state must be
    divergence-free and supported inside the 2/3 dealias cube (to 1e-12 of
    its largest amplitude); otherwise StateDriftError names the field.
    """
    _check_divergence(initial)
    _check_support(initial)
    sob = config.sobolev
    log = RunLog()

    def psi_of(state: State) -> float:
        return (
            dyadic_sobolev_norm(state.u, sob.s) ** 2
            + dyadic_sobolev_norm(state.b, sob.r) ** 2
        )

    psi0 = psi_of(initial)
    n_steps = int(round(config.tmax / config.dt))
    if not whole_steps(config.tmax, config.dt):
        warnings.warn(
            f"tmax={config.tmax!r} is not a whole number of dt={config.dt!r} steps; "
            f"the run ends at t={initial.t + n_steps * config.dt!r}",
            RuntimeWarning,
        )
    if cfl_advisory_dt(initial, config.params) < config.dt:
        warnings.warn(f"dt={config.dt} exceeds the advisory CFL bound", RuntimeWarning)

    state = initial
    for sink in sinks:
        sink(0, state)
    log.times.append(state.t)
    log.psi.append(psi0)

    work = _Workspace(initial.grid)
    for i in range(1, n_steps + 1):
        state = step(state, config, work)
        # stamp t from the step count: adding dt once per step drifts by an ulp a step
        state.t = initial.t + i * config.dt
        if i % GUARD_EVERY == 0:
            # The b-equation needs no projection analytically; project anyway
            # and log the removed magnitude to distinguish scheme drift.
            projected = leray_project(state.b)
            log.projection_drift.append(
                (state.t, lp_norm(state.b - projected, 2))
            )
            state = State(state.u, projected, state.t)
        at_snapshot = (i % config.snapshot_every == 0) or (i == n_steps)
        if not (at_snapshot or i % GUARD_EVERY == 0):
            continue
        psi = psi_of(state)
        tripped = psi0 > 0 and psi > config.blowup_factor * psi0
        if at_snapshot or tripped:
            log.times.append(state.t)
            log.psi.append(psi)
            for sink in sinks:
                sink(i, state)
        if tripped:
            log.halted = True
            log.halt_reason = f"blow-up guard tripped at t={state.t}"
            break
    return state, log


def recover_pressure(state: State, params: PhysicalParams) -> SpectralField:
    """Zero-mean pressure whose gradient is the projected-out part of the flux."""
    # grad p = P w - w = -k (k . w) / |k|^2, so p = div w / |k|^2 spectrally
    w = advect(state.u, state.u) - advect(state.b, state.b)
    return SpectralField(w.grid, divergence(w).coeffs * w.grid.inv_ksq)


def _beltrami(grid: Grid) -> SpectralField:
    xs = grid.coordinates()
    x = xs[0]
    vals = np.stack([np.zeros_like(x), np.sin(x), np.cos(x)])
    return to_spectral(grid, vals)


def _taylor_green_like(grid: Grid) -> SpectralField:
    xs = grid.coordinates()
    x, y = xs[0], xs[1]
    z = xs[2] if grid.n == 3 else None
    if grid.n == 3:
        vals = np.stack(
            [
                np.cos(x) * np.sin(y) * np.sin(z),
                -np.sin(x) * np.cos(y) * np.sin(z),
                np.zeros_like(x),
            ]
        )
    else:
        vals = np.stack([np.cos(x) * np.sin(y), -np.sin(x) * np.cos(y), np.zeros_like(x)])
    return leray_project(to_spectral(grid, vals))


def make_initial(
    kind: str,
    grid: Grid,
    seed: int,
    target_norms: tuple[float, float] | None,
    sob: SobolevParams,
    band: float | None = None,
) -> State:
    """Divergence-free initial data rescaled to hit the requested dyadic norms."""
    if band is None:
        band = resolved_band(grid)
    if kind == "beltrami":
        u = SpectralField.zero(grid, 3)
        b = _beltrami(grid)
    elif kind == "taylor_green_like":
        u = _taylor_green_like(grid)
        b = _taylor_green_like(grid)
    elif kind == "random_band":
        u = random_band_field(grid, seed, band)
        b = random_band_field(grid, seed + 1, band)
    else:
        raise ValueError(f"unknown initial kind {kind!r}")

    # the curl-form nonlinearity matches the divergence form only inside the 2/3 cube
    u, b = (SpectralField(grid, np.where(grid.dealias_mask, f.coeffs, 0.0)) for f in (u, b))
    if target_norms is not None:
        tu, tb = target_norms
        u = _rescale(u, sob.s, tu, kind, seed)
        b = _rescale(b, sob.r, tb, kind, seed)
    return State(u, b, 0.0)


def _rescale(f: SpectralField, s: float, target: float, kind: str, seed: int) -> SpectralField:
    if target == 0.0:
        return SpectralField.zero(f.grid, f.m)
    current = dyadic_sobolev_norm(f, s)
    if current == 0.0:
        raise ValueError(
            f"unreachable target norm for kind={kind!r}, seed={seed}: zero draw, reseed"
        )
    return f * (target / current)
