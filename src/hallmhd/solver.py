"""Time integration of the incompressible viscous resistive Hall-MHD system.

With w = curl u and j = curl b, the nonlinearity is evaluated in curl form:
the momentum term in rotational form P(j x b + u x w), where the Leray
projection P also removes the pressure and the |u|^2/2, |b|^2/2 gradients,
and the induction and Hall terms together as curl((u - eta j) x b).  That is
six pointwise products per right-hand side from spectral.dealiased_product:
12 fields to physical space and 6 back (18 FFT fields; 9 in hall_only).  The
products are formed in blocks of x-planes (x-rows in 2D) small enough that a
block of the 12 inputs stays in cache (_BLOCK_BYTES), each in place in the
slots of the inverse transform's output that its block has finished reading,
so no whole-grid product buffer exists.  The curl form equals the divergence
form only for divergence-free states inside the 2/3 dealias cube, so
make_initial cuts its data to that cube and the dealiased scheme keeps it
there; run and compute_rhs check these invariants, with finiteness and a
Hermitian k_last = 0 plane, on entry (_check_state).

Time stepping is integrating-factor RK4: diffusion is propagated exactly by
exp(-nu |k|^2 dt) / exp(-mu |k|^2 dt) and the (dealiased) quadratic terms are
treated explicitly.  State, compute_rhs, step and the states run yields all
hold the real-FFT half spectrum of spectral.SpectralField, but under the 2/3
rule every state and every right-hand side is zero outside the dealias cube,
so all the spectral work runs on compact copies of that cube
(spectral.gather_cube): the curls, the Leray form, the four stages and the
combine, each on one (u, b) stack of shape (2, 3, *cube) with nu and mu as
one (2, 1, ...) diffusivity.  The FFT input is a cube too: the transform
pair, its normalization and the dealiasing are dealiased_product's, which
takes the cubes of (u, w, b, j), transforms them field by field on the lines
the cube reaches, and returns the cube of the products.  step and compute_rhs
read only the cube of their input, and their output is exactly zero outside
it.  The stages write into the buffers of one _Workspace, through out=,
in-place ufuncs, spectral.cross_into and spectral.curl_into, the one curl, in
the order of the plain expressions; _advance is the one step body.  A run
allocates its workspace once, loads the initial cube into it and steps that
cube in place to its last step: it expands a half-spectrum State only to
yield one or at a guard step, whose projected b goes back into the cube.  A
lone step loads, advances and expands; a lone compute_rhs builds its own
workspace too.  Modes, each decided in integrated_params and the last entry
invariant of _check_state:

  full      - the complete system,
  mhd       - the complete system with eta = 0,
  hall_only - u held at 0 (it must enter as 0); b moves by the Hall and
              diffusion terms alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .littlewood_paley import SobolevParams, dyadic_sobolev_norm, resolved_band
from .random_fields import random_band_field
from .spectral import (
    Grid,
    SpectralField,
    _expanded,
    _hermitian_defect,
    _on_cube,
    _outside_cube,
    cross_into,
    curl_into,
    dealias,
    dealias_cutoff,
    dealiased_product,
    divergence,
    gather_cube,
    leray_project,
    lp_norm,
    to_spectral,
)

MODES = ("full", "mhd", "hall_only")
DIV_TOL = 1.0e-8  # largest divergence_drift of a state on entry
REL_TOL = 1.0e-12  # largest tail outside the cube and Hermitian defect, per largest amplitude
HALL_CFL = 0.5  # CFL number of the Hall term in cfl_advisory_dt
GUARD_EVERY = 100  # steps between blow-up checks and safety projections of b
BLOWUP_FACTOR = 1.0e6  # the guard trips when psi exceeds this multiple of psi(0)
_BLOCK_BYTES = 2 << 20  # one block of the 12 physical RHS inputs, about an L2 cache


class StateDriftError(ValueError):
    """Raised when a state breaks an entry invariant (see _check_state)."""


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
    mode: str = "full"
    snapshot_every: int = 10

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
            raise ValueError(f"solver.mode: must be one of {MODES}, got {self.mode!r}")


def integrated_params(params: PhysicalParams, mode: str) -> PhysicalParams:
    """The coefficients a run in mode integrates: params with eta = 0 in mhd,
    params as given otherwise (hall_only keeps eta; its u is held at 0)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return replace(params, eta=0.0) if mode == "mhd" else params


def divergence_drift(f: SpectralField) -> float:
    """L2 norm of div f, relative to the field scale (absolute for small fields).
    A field with a real or imaginary part of 1 or more is first divided by a
    power of two 2**e above them all, which leaves the ratio as it is, so that
    no finite field overflows the norms (inf / inf would be a NaN drift, which
    passes every tolerance)."""
    c = f.coeffs
    top = max(max(p.max(initial=0.0), -p.min(initial=0.0)) for p in (c.real, c.imag))
    e = max(int(np.frexp(top)[1]), 0)
    if e:
        f = SpectralField(f.grid, c * 2.0**-e)
    return lp_norm(divergence(f), 2) / max(2.0**-e, lp_norm(f, 2))


def _check_state(state: State, mode: str = "full") -> None:
    """The entry invariants, each checked on u and then b before the next:
    finite coefficients (first, as NaN passes every comparison), divergence-
    free to DIV_TOL, and, to REL_TOL of the largest amplitude, inside the
    2/3 dealias cube and Hermitian on the k_last = 0 plane, as a real field
    is; last, u = 0 exactly in hall_only, which holds u there.
    StateDriftError names the first field that breaks one."""
    fields = (("u", state.u), ("b", state.b))
    for name, f in fields:
        bad = f.coeffs.size - np.count_nonzero(np.isfinite(f.coeffs))
        if bad:
            raise StateDriftError(f"non-finite state: {name} has {bad} non-finite coefficients at t={state.t}")
    for name, f in fields:
        drift = divergence_drift(f)
        if drift > DIV_TOL:
            raise StateDriftError(
                f"state drift: div {name} = {drift:.3e} exceeds {DIV_TOL:.1e} at t={state.t}"
            )
    cutoff = dealias_cutoff(state.grid.dims)
    peaks = []
    for name, f in fields:
        mag = np.abs(f.coeffs)
        peaks.append(mag.max(initial=0.0))
        tail = _outside_cube(f, cutoff, mag, peaks[-1])
        if tail > REL_TOL:
            raise StateDriftError(
                f"state drift: {name} has {tail:.3e} of its largest amplitude outside "
                f"the 2/3 dealias cube (allowed {REL_TOL:.0e}) at t={state.t}"
            )
    for (name, f), peak in zip(fields, peaks):
        defect = _hermitian_defect(f) / peak if peak > 0 else 0.0
        if defect > REL_TOL:
            raise StateDriftError(
                f"state drift: {name} is not Hermitian: |f_k - conj f_-k| reaches {defect:.3e} "
                f"of its largest amplitude on the k_last = 0 plane (allowed {REL_TOL:.0e}) at t={state.t}"
            )
    if mode == "hall_only" and state.u.coeffs.any():
        raise StateDriftError(
            f"state drift: u must be zero in hall_only mode, which holds it there, but has "
            f"{np.count_nonzero(state.u.coeffs)} nonzero coefficients at t={state.t}"
        )


class _Workspace:
    """Buffers for the RHS and the IF-RK4 stages on one grid.

    All spectral work runs on compact copies of the 2/3 dealias cube
    (spectral.gather_cube), about 30 % of the half spectrum in 3D: k, ksq
    and inv_ksq, gathered once; x0, a step's input and, after _advance, its
    result (a run keeps its state there from load to its last step); stage,
    the stage input, which _advance swaps with x0 at the end of a step;
    slopes, three slope slots (the fourth slope reuses the third); finite,
    the finiteness check.  x0, stage and each slope have shape (2, 3, *cube),
    one vector field per leading index: u and b.  spec, shape (4, 3, *cube),
    is the FFT input (u, w, b, j), the curls formed in place; hats, the cubes
    of the dealiased products, is a view of its (b, j) slots, which the
    forward transform writes only after the inverse batch has read them; the
    spent (u, w) slots are scratch for the Leray form.  The only physical
    buffer is block, 4 components of one block of _block_planes(grid)
    x-planes: the products are formed block by block in the transform's own
    output (see _nonlinear), so no whole-grid product buffer exists.  Pages
    are touched only when written, so compute_rhs pays nothing for the
    stepping buffers.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        cube = grid.cube_shape
        self.k, self.ksq, self.inv_ksq = (_on_cube(grid, a) for a in (grid.k, grid.ksq, grid.inv_ksq))
        self.spec = np.empty((4, 3, *cube), dtype=complex)
        self.block = np.empty((4, _block_planes(grid), *grid.shape[1:]))
        self.hats = self.spec[2:].reshape((6, *cube))
        self.x0 = np.empty((2, 3, *cube), dtype=complex)
        self.stage = np.empty((2, 3, *cube), dtype=complex)
        self.slopes = np.empty((3, 2, 3, *cube), dtype=complex)
        self.finite = np.empty((2, 3, *cube), dtype=bool)

    def load(self, state: State) -> np.ndarray:
        """x0 <- the dealias cube of (u, b); returns x0."""
        gather_cube(state.u.coeffs, self.x0[0])
        gather_cube(state.b.coeffs, self.x0[1])
        return self.x0

    def state(self, t: float) -> State:
        """The State at time t whose dealias cube is x0, in new half spectra."""
        g = self.grid
        return State(_expanded(g, self.x0[0]), _expanded(g, self.x0[1]), t)


def _diffusivity(p: PhysicalParams, n: int) -> np.ndarray:
    """(nu, mu) shaped (2, 1, ...), to scale a (u, b) stack on n spatial axes."""
    return np.reshape((p.nu, p.mu), (2,) + (1,) * (n + 1))


def _block_planes(grid: Grid) -> int:
    """x-planes (x-rows in 2D) per block of the products: as many as keep a
    block of the 12 physical input fields within _BLOCK_BYTES, at least one."""
    plane = 12 * 8 * math.prod(grid.shape[1:])
    return min(grid.dims, max(1, _BLOCK_BYTES // plane))


def _blocks(phys: np.ndarray, scratch: np.ndarray):
    """Each x-plane block of the physical batch phys, split into its vector
    fields, with the matching block of the 4-component scratch last."""
    planes = scratch.shape[1]
    for a in range(0, phys.shape[1], planes):
        block = phys[:, a : a + planes]
        yield (*np.split(block, len(block) // 3), scratch[:, : block.shape[1]])


def _nonlinear(x: np.ndarray, params: PhysicalParams, mode: str, work: _Workspace, out: np.ndarray) -> None:
    """Nonlinear right-hand sides (no diffusion) on the compact dealias cube:
    x = (u, b) and out = (du, db) have shape (2, 3, *cube_shape); params are
    those the mode integrates (integrated_params).

    Momentum in rotational form P(j x b + u x w) with w = curl u, j = curl b;
    induction and Hall together as curl((u - eta j) x b).  Both equal the
    divergence-form terms for divergence-free states inside the 2/3 cube.
    (u, w, b, j) are formed in work.spec, and spectral.dealiased_product
    transforms their cubes (12 fields in and 6 out; 6 and 3 in hall_only).
    The products are formed one x-plane block at a time, so that a block's
    inputs stay in cache, in place in the physical batch: P2 = (u - eta j) x b
    into the u slots and P1 = j x b + u x w into the w slots, each after the
    block has read them, with u x w in work.block (j x b in hall_only, then
    copied into the b slots).  The hats of (P2, P1) land in work.hats, the
    spent (b, j) slots of work.spec.
    """
    grid, k, eta = work.grid, work.k, params.eta
    spec, hats = work.spec, work.hats
    (u, b), (du, db), (spent, w, _, j) = x, out, spec
    fields = spec.reshape((12, *spec.shape[2:]))
    # du[0] is scratch until the results are written
    curl_into(j, k, b, du[0])
    spec[2] = b
    if mode == "hall_only":
        def jxb_into_b(phys):
            for pb, pj, tmp in _blocks(phys, work.block):
                cross_into(tmp[:3], pj, pb, tmp[3])
                pb[...] = tmp[:3]
            return phys[:3]

        jxb = dealiased_product(grid, fields[6:], jxb_into_b, hats[:3])
        du[...] = 0.0
        curl_into(db, k, jxb, w[0])
        db *= -eta
        return

    curl_into(w, k, u, du[0])
    spec[0] = u

    def products(phys):
        for pu, pw, pb, pj, tmp in _blocks(phys, work.block):
            uxw, t = tmp[:3], tmp[3]
            cross_into(uxw, pu, pw, t)
            cross_into(pw, pj, pb, t)
            pw += uxw
            pj *= eta
            np.subtract(pu, pj, out=pj)
            cross_into(pu, pj, pb, t)
        return phys[:6]

    p2, p1 = np.split(dealiased_product(grid, fields, products, hats), 2)
    # Leray projection as k x (w x k) / |k|^2: gradients along a lattice axis
    # cancel exactly, and so does the k = 0 mode, which vanishes analytically;
    # the transforms are done, so the u and w slots are scratch (the b and j
    # slots hold p2 and p1)
    cross_into(w, p1, k, spent[0])
    cross_into(du, k, w, spent[0])
    du *= work.inv_ksq
    curl_into(db, k, p2, spent[0])


def compute_rhs(state: State, params: PhysicalParams, mode: str = "full"):
    """Full right-hand sides (du/dt, db/dt) including diffusion.

    Only the 2/3 dealias cube of the state is read, and the result is exactly
    zero outside it.  Raises StateDriftError if the input breaks an entry
    invariant (finite, divergence-free, inside the cube, Hermitian, u = 0 in
    hall_only).
    """
    params = integrated_params(params, mode)
    _check_state(state, mode)
    g = state.grid
    work = _Workspace(g)
    x = work.load(state)
    nl = work.slopes[0]
    _nonlinear(x, params, mode, work, nl)
    nl -= _diffusivity(params, g.n) * work.ksq * x
    return _expanded(g, nl[0]), _expanded(g, nl[1])


def _ifrk4_factors(n: int, ksq: np.ndarray, dt: float, p: PhysicalParams):
    """Diffusion factors e_h = exp(-c|k|^2 dt/2), e = e_h^2, dt e_h and 2 e_h
    on the compact dealias cube, whose |k|^2 is ksq, for c = (nu, mu) at once:
    each has shape (2, 1, *cube) and scales a (u, b) stack."""
    e_h = np.exp(-_diffusivity(p, n) * ksq * (dt / 2.0))
    return e_h, e_h**2, dt * e_h, 2.0 * e_h


@np.errstate(over="ignore", invalid="ignore")
def _advance(work: _Workspace, p: PhysicalParams, mode: str, factors: tuple, dt: float, t: float) -> None:
    """One integrating-factor RK4 step of the (u, b) cube in work.x0, at time
    t, in place: all four stages and the combine run on the stacks of work,
    and the new state ends in work.x0 as x0 and stage swap, with no copy.
    p are the params the mode integrates and factors _ifrk4_factors' for dt.
    A step that overflows raises BlowUpError at t + dt, with no NumPy warning.
    """
    e_h, e, dt_e_h, two_e_h = factors
    x0, y, (s1, s2, s3) = work.x0, work.stage, work.slopes

    def rhs(x, out):
        _nonlinear(x, p, mode, work, out)

    # y <- e_h (x0 + dt/2 k1)
    rhs(x0, s1)
    np.multiply(s1, 0.5 * dt, out=y)
    np.add(x0, y, out=y)
    y *= e_h
    # y <- e_h x0 + dt/2 k2
    rhs(y, s2)
    np.multiply(s2, 0.5 * dt, out=s3)
    np.multiply(e_h, x0, out=y)
    y += s3
    # y <- e x0 + dt e_h k3, after s2 <- k2 + k3
    rhs(y, s3)
    s2 += s3
    s3 *= dt_e_h
    np.multiply(e, x0, out=y)
    y += s3
    # y <- e x0 + dt/6 (e k1 + 2 e_h (k2 + k3) + k4)
    rhs(y, s3)
    s1 *= e
    s2 *= two_e_h
    s1 += s2
    s1 += s3
    s1 *= dt / 6.0
    np.multiply(e, x0, out=y)
    y += s1

    if not np.isfinite(y, out=work.finite).all():
        raise BlowUpError(f"numerical blow-up at t={t + dt}")
    work.x0, work.stage = y, x0


def step(state: State, config: SolverConfig) -> State:
    """One integrating-factor RK4 step; diffusion propagated exactly.

    Only the 2/3 dealias cube of the state is read, and the new state is
    exactly zero outside it.  The state's cube is loaded into a fresh
    workspace and advanced there by _advance, the step trajectory takes.  A
    step that overflows raises BlowUpError, with no NumPy warning.  The entry
    invariants are run's and compute_rhs's to check.
    """
    g, p, dt = state.grid, integrated_params(config.params, config.mode), config.dt
    work = _Workspace(g)
    work.load(state)
    _advance(work, p, config.mode, _ifrk4_factors(g.n, work.ksq, dt, p), dt, state.t)
    return work.state(state.t + dt)


def cfl_advisory_dt(state: State, params: PhysicalParams) -> float:
    """Advisory bound: min(dx / ||u||_inf, HALL_CFL / (eta ||b||_inf kmax^2))."""
    g = state.grid
    dx = 2.0 * np.pi / g.dims
    bound = np.inf
    umax = lp_norm(state.u, np.inf)
    if umax > 0:
        bound = dx / umax
    if params.eta > 0:
        bmax = lp_norm(state.b, np.inf)
        if bmax > 0:
            bound = min(bound, HALL_CFL / (params.eta * bmax * g.kmax**2))
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


def trajectory(initial: State, config: SolverConfig, log: RunLog):
    """Advance the state to tmax, yielding (step_index, state) at step 0, every
    snapshot_every steps and the final step; the run never touches a yielded
    State again.  The blow-up guard psi(t) > BLOWUP_FACTOR * psi(0) is checked
    at every snapshot and every GUARD_EVERY steps; when it trips, the run logs
    the halt, yields that state and stops.  log receives psi and any halt
    before each yield, and the safety projections.  A tmax that is not a whole
    number of dt steps is rounded to one, with a RuntimeWarning; a dt above the
    advisory CFL bound of the mode's physics warns too.  An initial state that
    breaks an entry invariant (finite, divergence-free, inside the 2/3 dealias
    cube, Hermitian, u = 0 in hall_only) raises StateDriftError naming the
    field.
    """
    _check_state(initial, config.mode)
    sob = config.sobolev

    # a psi that overflows is inf and trips the guard, so NumPy need not warn
    @np.errstate(over="ignore", invalid="ignore")
    def psi_of(state: State) -> float:
        return (
            dyadic_sobolev_norm(state.u, sob.s) ** 2
            + dyadic_sobolev_norm(state.b, sob.r) ** 2
        )

    p, dt = integrated_params(config.params, config.mode), config.dt
    psi0 = psi_of(initial)
    n_steps = int(round(config.tmax / dt))
    if not whole_steps(config.tmax, dt):
        warnings.warn(
            f"tmax={config.tmax!r} is not a whole number of dt={dt!r} steps; "
            f"the run ends at t={initial.t + n_steps * dt!r}",
            RuntimeWarning,
        )
    if cfl_advisory_dt(initial, p) < dt:
        warnings.warn(f"dt={dt} exceeds the advisory CFL bound", RuntimeWarning)

    log.times.append(initial.t)
    log.psi.append(psi0)
    yield 0, initial

    # the run's (u, b) stays on the dealias cube in work.x0 from here to its
    # last step; a State is expanded from it only where the guard or a yield
    # needs one
    work = _Workspace(initial.grid)
    work.load(initial)
    factors = _ifrk4_factors(initial.grid.n, work.ksq, dt, p)
    t = initial.t
    for i in range(1, n_steps + 1):
        _advance(work, p, config.mode, factors, dt, t)
        # stamp t from the step count: adding dt once per step drifts by an ulp a step
        t = initial.t + i * dt
        guard = i % GUARD_EVERY == 0
        at_snapshot = (i % config.snapshot_every == 0) or (i == n_steps)
        if not (at_snapshot or guard):
            continue
        state = work.state(t)
        if guard:
            # The b-equation needs no projection analytically; project anyway
            # and log the removed magnitude to distinguish scheme drift.  The
            # next step starts from the projected b.
            with np.errstate(over="ignore", invalid="ignore"):
                projected = leray_project(state.b)
                log.projection_drift.append((t, lp_norm(state.b - projected, 2)))
            state = State(state.u, projected, t)
            gather_cube(projected.coeffs, work.x0[1])
        psi = psi_of(state)
        tripped = psi0 > 0 and psi > BLOWUP_FACTOR * psi0
        if tripped:
            log.halted = True
            log.halt_reason = f"blow-up guard tripped at t={t}"
        if at_snapshot or tripped:
            log.times.append(t)
            log.psi.append(psi)
            yield i, state
        # hold no half-spectrum state while the next steps run
        del state
        if tripped:
            break


def run(initial: State, config: SolverConfig, sinks=()) -> tuple[State, RunLog]:
    """trajectory with each sink called as sink(step_index, state) where it
    yields; returns the last state and the run's log."""
    log = RunLog()
    for i, state in trajectory(initial, config, log):
        for sink in sinks:
            sink(i, state)
    return state, log


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
    u, b = dealias(u), dealias(b)
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
