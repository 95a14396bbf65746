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
treated explicitly.  A step runs its four stages and the combine on the
real-FFT half spectrum and expands to the full Hermitian layout once at the
end; State, compute_rhs and run keep the full layout.  Modes:

  full      - the complete system,
  mhd       - Hall coefficient forced to zero,
  hall_only - magnetic equation alone with u = 0 and its transport dropped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .littlewood_paley import SobolevParams, dyadic_sobolev_norm, resolved_band
from .random_fields import random_band_field
from .spectral import (
    Grid,
    SpectralField,
    advect,
    divergence,
    half_to_full,
    irfftn_batch,
    leray_project,
    rfftn_batch,
    lp_norm,
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _nonlinear(u: np.ndarray, b: np.ndarray, grid: Grid, params: PhysicalParams, mode: str):
    """Nonlinear right-hand sides (no diffusion) on the real-FFT half spectrum.

    Momentum in rotational form P(u x w + j x b) with w = curl u, j = curl b;
    induction and Hall together as curl((u - eta j) x b).  Both equal the
    divergence-form terms for divergence-free states inside the 2/3 cube.
    Full and mhd transform 12 fields in and 6 out; hall_only 6 in and 3 out.
    """
    g = grid
    n, npts, k = g.n, g.npoints, g.k_half
    eta = 0.0 if mode == "mhd" else params.eta
    j = 1j * _cross(k, b)
    if mode == "hall_only":
        pb, pj = np.split(irfftn_batch(np.concatenate([b, j]) * npts, n, g.shape), 2)
        jxb = rfftn_batch(_cross(pj, pb), n) * (g.dealias_mask_half / npts)
        return np.zeros_like(u), -eta * (1j * _cross(k, jxb))

    stack = np.concatenate([u, 1j * _cross(k, u), b, j]) * npts
    pu, pw, pb, pj = np.split(irfftn_batch(stack, n, g.shape), 4)
    prods = np.concatenate([_cross(pu, pw) + _cross(pj, pb), _cross(pu - eta * pj, pb)])
    hats = rfftn_batch(prods, n) * (g.dealias_mask_half / npts)
    # Leray projection as k x (w x k) / |k|^2: gradients along a lattice axis
    # cancel exactly, and so does the k = 0 mode, which vanishes analytically
    nu = _cross(k, _cross(hats[:3], k)) * g.inv_ksq_half
    return nu, 1j * _cross(k, hats[3:])


def compute_rhs(state: State, params: PhysicalParams, mode: str = "full"):
    """Full right-hand sides (du/dt, db/dt) including diffusion.

    Raises StateDriftError if the input is not divergence-free to 1e-8.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    _check_divergence(state)
    g = state.grid
    half = g.dims // 2 + 1
    nl = _nonlinear(
        state.u.coeffs[..., :half], state.b.coeffs[..., :half], g, params, mode
    )
    nl = half_to_full(np.concatenate(nl), g)
    nu_rhs, nb_rhs = nl[:3], nl[3:]
    dudt = nu_rhs - params.nu * g.ksq * state.u.coeffs
    dbdt = nb_rhs - params.mu * g.ksq * state.b.coeffs
    if mode == "hall_only":
        dudt = np.zeros_like(dudt)
    return SpectralField(g, dudt), SpectralField(g, dbdt)


def _ifrk4_factors(g: Grid, dt: float, p: PhysicalParams):
    """Half-spectrum diffusion factors exp(-nu|k|^2 dt/2), exp(-mu|k|^2 dt/2)
    and their squares; only the latest (dt, nu, mu) is kept per grid."""
    key = (dt, p.nu, p.mu)
    cached = g._cache.get("ifrk4")
    if cached is None or cached[0] != key:
        eu_h = np.exp(-p.nu * g.ksq_half * (dt / 2.0))
        eb_h = np.exp(-p.mu * g.ksq_half * (dt / 2.0))
        cached = (key, (eu_h, eb_h, eu_h**2, eb_h**2))
        g._cache["ifrk4"] = cached
    return cached[1]


def step(state: State, config: SolverConfig) -> State:
    """One integrating-factor RK4 step; diffusion propagated exactly.

    All four stages and the combine run on the half spectrum; the result is
    expanded to the full Hermitian layout once.
    """
    g = state.grid
    p = config.params
    dt = config.dt
    eu_h, eb_h, eu, eb = _ifrk4_factors(g, dt, p)

    half = g.dims // 2 + 1
    u0, b0 = state.u.coeffs[..., :half], state.b.coeffs[..., :half]
    nl = lambda u, b: _nonlinear(u, b, g, p, config.mode)

    k1u, k1b = nl(u0, b0)
    k2u, k2b = nl(eu_h * (u0 + 0.5 * dt * k1u), eb_h * (b0 + 0.5 * dt * k1b))
    k3u, k3b = nl(eu_h * u0 + 0.5 * dt * k2u, eb_h * b0 + 0.5 * dt * k2b)
    k4u, k4b = nl(eu * u0 + dt * eu_h * k3u, eb * b0 + dt * eb_h * k3b)

    u1 = eu * u0 + (dt / 6.0) * (eu * k1u + 2.0 * eu_h * (k2u + k3u) + k4u)
    b1 = eb * b0 + (dt / 6.0) * (eb * k1b + 2.0 * eb_h * (k2b + k3b) + k4b)
    t1 = state.t + dt
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(b1))):
        raise BlowUpError(f"numerical blow-up at t={t1}")
    out = half_to_full(np.concatenate([u1, b1]), g)
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


def run(initial: State, config: SolverConfig, sinks=()) -> tuple[State, RunLog]:
    """Advance the state to tmax, emitting snapshots through the sinks.

    Each sink is called as sink(step_index, state) at step 0, every
    snapshot_every steps, and at the final step.  Halts early when the
    blow-up guard psi(t) > blowup_factor * psi(0) trips.
    """
    _check_divergence(initial)
    sob = config.sobolev
    log = RunLog()

    def psi_of(state: State) -> float:
        return (
            dyadic_sobolev_norm(state.u, sob.s) ** 2
            + dyadic_sobolev_norm(state.b, sob.r) ** 2
        )

    psi0 = psi_of(initial)
    n_steps = int(round(config.tmax / config.dt))
    if cfl_advisory_dt(initial, config.params) < config.dt:
        warnings.warn(f"dt={config.dt} exceeds the advisory CFL bound", RuntimeWarning)

    state = initial
    for sink in sinks:
        sink(0, state)
    log.times.append(state.t)
    log.psi.append(psi0)

    for i in range(1, n_steps + 1):
        state = step(state, config)
        # stamp t from the step count: adding dt once per step drifts by an ulp a step
        state.t = initial.t + i * config.dt
        if i % 100 == 0:
            # The b-equation needs no projection analytically; project anyway
            # and log the removed magnitude to distinguish scheme drift.
            projected = leray_project(state.b)
            log.projection_drift.append(
                (state.t, lp_norm(state.b - projected, 2))
            )
            state = State(state.u, projected, state.t)
        at_snapshot = (i % config.snapshot_every == 0) or (i == n_steps)
        if at_snapshot:
            psi = psi_of(state)
            log.times.append(state.t)
            log.psi.append(psi)
            if psi0 > 0 and psi > config.blowup_factor * psi0:
                log.halted = True
                log.halt_reason = f"blow-up guard tripped at t={state.t}"
                for sink in sinks:
                    sink(i, state)
                break
            for sink in sinks:
                sink(i, state)
    return state, log


def recover_pressure(state: State, params: PhysicalParams) -> SpectralField:
    """Zero-mean pressure whose gradient is the projected-out part of the flux."""
    w = advect(state.u, state.u) - advect(state.b, state.b)
    g = state.grid
    k, ksq = g.k, g.ksq
    kdotw = k[0] * w.coeffs[0] + k[1] * w.coeffs[1] + k[2] * w.coeffs[2]
    inv_ksq = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    p_hat = 1j * kdotw * inv_ksq
    return SpectralField(g, p_hat[None])


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
