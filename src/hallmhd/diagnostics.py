"""Dyadic energy bookkeeping, flux terms, existence-time estimate, scalings.

The two shell energy identities are implemented as exact equalities

    1/2 d/dt sum_q e_u[q] + nu sum_q d_u[q] + I1 + I2 = 0,
    1/2 d/dt sum_q e_b[q] + mu sum_q d_b[q] + I3 + I4 + I5 = 0.

Every dyadic quantity is a weighted spectral sum: by Parseval,
lambda_q^{2s} <Delta_q F, Delta_q f> = lambda_q^{2s} (2 pi)^n sum_k
phi_q(|k|)^2 Re(F_k . conj f_k), so shell energies and dissipations contract
|f_k|^2 and |k|^2 |f_k|^2 against the shell multipliers and no shell is ever
materialized.  The fluxes are one call of spectral.dealiased_product, the
home of the transform pair, its normalization and the 2/3 rule, in
conservative form: the dealias cubes of u and b go in (6 fields) and the
cubes of their 21 quadratic moments come back, u (x) u and b (x) b (6
symmetric components each) and u (x) b (9).  The five flux fields are
assembled on the cube as i k . M:

    u.grad u = div(u (x) u),      (u.grad b)_m = d_j (u_j b_m),
    b.grad b = div(b (x) b),      (b.grad u)_m = d_j (b_j u_m),
    j x b = div(b (x) b) - grad |b|^2/2,

and dotted against the cubes of u, b and curl b.  Each equals the advective
form of the energy identities for a divergence-free state inside the cube:
the products of two in-cube fields alias nothing back into the cube, so the
cube of each moment is exact and the product rule holds mode by mode (Zang,
Appl. Numer. Math. 7, 1991).  As in solver.step, only the 2/3 dealias cube of
the state is read, and every state from run or read_snapshot is divergence-
free and zero outside it.  These are not the curl forms the solver steps
with.  I5 pairs j x b with i k x b_k, since curl commutes with Delta_q, and
carries the Hall coefficient with the sign that closes the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .littlewood_paley import SobolevParams, shell_sums, sobolev_weights
from .solver import PhysicalParams, SolverConfig, State, run
from .spectral import (
    Grid, SpectralField, _curl_of, _on_cube, _outside_cube, dealias_cutoff, dealiased_product,
    lp_norm, parseval, power, scatter_cube,
)

# The 21 quadratic moments flux_terms forms, as index pairs into the stacked
# physical u (rows 0-2) and b (rows 3-5): u_j u_m and b_j b_m for j <= m,
# then u_j b_m.
_UPPER = [(j, m) for j in range(3) for m in range(j, 3)]
_MOMENTS = _UPPER + [(3 + j, 3 + m) for j, m in _UPPER] + [(j, 3 + m) for j in range(3) for m in range(3)]
_SLOT = {pair: p for p, pair in enumerate(_MOMENTS)}
_SLOT.update({(j, i): p for (i, j), p in list(_SLOT.items())})
# [term, j, m]: the slot of a_j c_m, whose d_j adds to component m of
# (a . grad) c, for (a, c) = (u, u), (b, b), (u, b) and (b, u)
_TRANSPORT = np.array([[[_SLOT[a + j, c + m] for m in range(3)] for j in range(3)]
                       for a, c in ((0, 0), (3, 3), (0, 3), (3, 0))])
_B_DIAGONAL = [_SLOT[3 + j, 3 + j] for j in range(3)]


@dataclass
class ShellEnergyRecord:
    """Weighted shell energies and dissipations at one time; index 0 is q = -1."""

    t: float
    e_u: np.ndarray
    e_b: np.ndarray
    d_u: np.ndarray
    d_b: np.ndarray


@dataclass
class FluxRecord:
    """The five signed flux scalars at one time."""

    t: float
    I1: float
    I2: float
    I3: float
    I4: float
    I5: float


def shell_energies(state: State, sob: SobolevParams) -> ShellEnergyRecord:
    g = state.grid
    pu, pb = power(state.u.coeffs), power(state.b.coeffs)
    sums = (2.0 * np.pi) ** g.n * shell_sums(g, np.stack([pu, pb, g.ksq * pu, g.ksq * pb]))
    ws, wr = sobolev_weights(g, sob.s), sobolev_weights(g, sob.r)
    return ShellEnergyRecord(state.t, ws * sums[0], wr * sums[1], ws * sums[2], wr * sums[3])


def flux_terms(state: State, params: PhysicalParams, sob: SobolevParams) -> FluxRecord:
    """The weighted fluxes I1..I5 of the shell energy identities, in
    conservative form: the cubes of the 21 moments of u and b, differentiated
    on the cube (see the module docstring).  This equals the advective form
    for divergence-free states inside the dealias cube; as in solver.step,
    only the 2/3 dealias cube of the state is read."""
    g = state.grid
    k, cu, cb = (_on_cube(g, f) for f in (g.k, state.u.coeffs, state.b.coeffs))

    def moments(phys):
        out = np.empty((len(_MOMENTS),) + g.shape)
        for p, (i, j) in enumerate(_MOMENTS):
            np.multiply(phys[i], phys[j], out=out[p])
        return out

    m = dealiased_product(g, np.concatenate([cu, cb]), moments)
    ik = 1j * k
    # i k_j M[j, m] summed over j, for the four transport terms
    hats = ik[0] * m[_TRANSPORT[:, 0]] + ik[1] * m[_TRANSPORT[:, 1]] + ik[2] * m[_TRANSPORT[:, 2]]
    # j x b = div(b (x) b) - grad |b|^2/2
    hall = hats[1] - ik * (0.5 * m[_B_DIAGONAL].sum(axis=0))
    cj = _curl_of(k, cb)
    # Re(hat_k . conj f_k) of each product and the field its flux tests it against
    tested = zip((*hats, hall), (cu, cu, cb, cb, cj))
    dots = np.stack([(h.real * f.real + h.imag * f.imag).sum(axis=0) for h, f in tested])
    sums = (2.0 * np.pi) ** g.n * shell_sums(g, scatter_cube(dots, np.zeros((5, *g.half_shape))))
    ws, wr = sobolev_weights(g, sob.s), sobolev_weights(g, sob.r)
    return FluxRecord(
        state.t,
        float(ws @ sums[0]),
        -float(ws @ sums[1]),
        float(wr @ sums[2]),
        -float(wr @ sums[3]),
        params.eta * float(wr @ sums[4]),
    )


def _law_residual(ts, E, D, *fluxes) -> np.ndarray:
    """|dE/dt + D + fluxes| / max(D, 1e-300) per sample, the residual of the
    energy law dE/dt + D + fluxes = 0 relative to its dissipation D.  Time
    derivatives use centered differences (one-sided at the endpoints).  The
    series may be lists: the sample count is checked before any array is
    built, so an empty trace gets that message too."""
    if len(ts) < 3:
        raise ValueError("need at least 3 samples for a centered time-difference")
    D = np.asarray(D)
    return np.abs(sum(fluxes, np.gradient(E, ts, edge_order=2) + D)) / np.maximum(D, 1e-300)


def balance_residuals(
    energies: list[ShellEnergyRecord], fluxes: list[FluxRecord], params: PhysicalParams
):
    """Normalized residuals of the two shell energy identities along a trace
    of precomputed records, one shell-energy and one flux record per sample
    (see _law_residual)."""
    ts = [r.t for r in energies]
    E_u = [0.5 * r.e_u.sum() for r in energies]
    E_b = [0.5 * r.e_b.sum() for r in energies]
    D_u = [params.nu * r.d_u.sum() for r in energies]
    D_b = [params.mu * r.d_b.sum() for r in energies]
    I1, I2, I3, I4, I5 = ([getattr(f, f"I{i}") for f in fluxes] for i in range(1, 6))
    return np.array(ts), _law_residual(ts, E_u, D_u, I1, I2), _law_residual(ts, E_b, D_b, I3, I4, I5)


def energy_balance_residual(
    states: list[State], params: PhysicalParams, sob: SobolevParams
):
    """balance_residuals over the records of the given states."""
    return balance_residuals(
        [shell_energies(st, sob) for st in states],
        [flux_terms(st, params, sob) for st in states],
        params,
    )


def total_energy_residual(states: list[State], params: PhysicalParams) -> np.ndarray:
    """Residual of d/dt (||u||^2 + ||b||^2)/2 = -nu ||grad u||^2 - mu ||grad b||^2.

    The Hall term does no work and the magnetic cross terms cancel, so the
    plain energy law holds regardless of eta.  Residual is relative to the
    dissipation magnitude (see _law_residual).
    """
    def grad_sq(f):
        return parseval(f.grid, f.grid.ksq * power(f.coeffs))

    return _law_residual(
        [st.t for st in states],
        [0.5 * (lp_norm(st.u, 2) ** 2 + lp_norm(st.b, 2) ** 2) for st in states],
        [params.nu * grad_sq(st.u) + params.mu * grad_sq(st.b) for st in states],
    )


@dataclass
class ExistenceEstimate:
    """Calibrated constants and the resulting guaranteed time horizon."""

    C: float
    gamma_low: float
    gamma_high: float
    psi0: float
    T: float


def _rate(C: float, gamma: float, psi0: float) -> float:
    """C gamma psi0^gamma, the rate of the gamma term of the growth envelope,
    whose blow-up time is its inverse; inf where the power overflows."""
    try:
        return C * gamma * psi0**gamma
    except OverflowError:
        return math.inf


def _blowup_time(rate: float) -> float:
    """1 / rate, the nearest float: inf where the rate underflowed to 0."""
    return 1.0 / rate if rate else math.inf


def existence_time(
    psi0: float, C: float, gamma_low: float, gamma_high: float
) -> ExistenceEstimate:
    """T = 1/2 min over gamma in {low, high} of 1 / (C gamma psi0^gamma), the
    nearest float also where the power leaves the float range (0 or inf)."""
    if psi0 <= 0 or C <= 0 or not 0 < gamma_low <= gamma_high:
        raise ValueError("require psi0 > 0, C > 0, 0 < gamma_low <= gamma_high")
    T = 0.5 * min(_blowup_time(_rate(C, gamma, psi0)) for gamma in (gamma_low, gamma_high))
    return ExistenceEstimate(C, gamma_low, gamma_high, psi0, T)


def psi_bound(t: float, est: ExistenceEstimate) -> float:
    """The two-term norm-growth envelope; defined for t below its blow-up time."""
    total = 0.0
    for gamma in (est.gamma_low, est.gamma_high):
        rate = _rate(est.C, gamma, est.psi0)
        tstar = _blowup_time(rate)
        if t >= tstar:
            raise ValueError(f"t={t} is past blow-up of the bound (t*={tstar})")
        # a root of 0 (t* to rounding, or an underflow) makes the term inf
        root = (1.0 - rate * t) ** (1.0 / gamma)
        total += est.psi0 / root if root else math.inf
    return total


def calibrate_growth(times_list, psi_list, gamma: float | None = None):
    """Fit (C, gamma) from measured d(psi)/dt against psi over a run family.

    Uses only samples with positive growth; gamma from a log-log least-squares
    slope (unless pinned), C as the smallest constant making
    d(psi)/dt <= 2 C psi^{1+gamma} an envelope of the data.
    """
    xs, ys = [], []
    for ts, psis in zip(times_list, psi_list):
        ts, psis = np.asarray(ts), np.asarray(psis)
        if len(ts) < 3:
            continue
        dpsi = np.gradient(psis, ts)
        grow = dpsi > 0
        xs.extend(psis[grow])
        ys.extend(dpsi[grow])
    xs, ys = np.array(xs), np.array(ys)
    if len(xs) < 2:
        raise ValueError("no growth phase found; cannot calibrate")
    if gamma is None:
        slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
        gamma = max(slope - 1.0, 1e-3)
    C = float(np.max(ys / (2.0 * xs ** (1.0 + gamma))))
    return C, float(gamma)


def scale_field(f: SpectralField, lam: int, amplitude: float, out_grid: Grid) -> SpectralField:
    """Map f(x) to amplitude * f(lam x) on out_grid: mode k -> lam k, the
    image modes past out_grid.kmax dropped; a finer out_grid resolves them all."""
    g, gt = f.grid, out_grid
    kmax = gt.dims // 2 - 1
    k1 = np.fft.fftfreq(g.dims, 1.0 / g.dims).astype(int)
    k_last = np.arange(g.dims // 2 + 1)
    lead, last = np.abs(lam * k1) <= kmax, lam * k_last <= kmax
    src = np.ix_(*[np.nonzero(lead)[0]] * (g.n - 1), k_last[last])
    tgt = np.ix_(*[(lam * k1[lead]) % gt.dims] * (g.n - 1), lam * k_last[last])
    out = np.zeros((f.m,) + gt.half_shape, dtype=complex)
    out[(slice(None), *tgt)] = amplitude * f.coeffs[(slice(None), *src)]
    return SpectralField(gt, out)


def restrict_field(f: SpectralField, coarse) -> SpectralField:
    """Copy the modes |k_i| <= coarse.kmax onto a coarser grid; higher modes,
    the coarse grid's Nyquist modes among them, are dropped."""
    if coarse.dims > f.grid.dims or coarse.n != f.grid.n:
        raise ValueError("restrict_field expects a coarser grid of the same dimension")
    return scale_field(f, 1, 1.0, coarse)


def _band_limit_ok(f: SpectralField, lam: int) -> bool:
    # |k_i| > kc / lam and |k_i| > kc // lam agree on integer wavenumbers
    return _outside_cube(f, dealias_cutoff(f.grid.dims) // lam) <= 1e-13


def scaling_check(
    mode: str, lam: int, initial: State, config: SolverConfig
) -> float:
    """Residual of the parabolic rescaling symmetry at scale factor lam.

    mode "mhd": u, b both scale with weight lam under the mhd physics (eta = 0).
    mode "hall_only": b scales with weight 1 under the Hall equation, with
    config.params.eta, and u = 0.  config's own mode is not read.
    The base problem runs on a dims/lam grid to tmax; the rescaled data runs
    on the full grid to tmax / lam^2 with dt / lam^2.  The coarse grid makes
    the two discrete flows correspond mode for mode (matched dealias cutoffs
    and integrating factors), so the residual measures pure roundoff drift.
    """
    if lam not in (2, 4):
        raise ValueError("lambda must be 2 or 4")
    if mode not in ("mhd", "hall_only"):
        raise ValueError("scaling modes are 'mhd' and 'hall_only'")
    if initial.grid.dims // lam < 16:
        raise ValueError(
            f"lambda = {lam} needs grid.dims >= {16 * lam}, as the base run's grid has "
            f"grid.dims / lambda points per axis; got grid.dims = {initial.grid.dims}"
        )
    for f in (initial.u, initial.b):
        if not _band_limit_ok(f, lam):
            raise ValueError("insufficient band-limiting for the requested lambda")

    fine = initial.grid
    coarse = Grid(fine.n, fine.dims // lam)

    u_w, b_w = (float(lam), float(lam)) if mode == "mhd" else (0.0, 1.0)
    base_cfg = replace(config, mode=mode, snapshot_every=10**9)
    scaled_cfg = replace(base_cfg, dt=config.dt / lam**2, tmax=config.tmax / lam**2)

    base_u = restrict_field(initial.u, coarse)
    if mode == "hall_only":
        base_u = SpectralField.zero(coarse, 3)
    base_init = State(base_u, restrict_field(initial.b, coarse), 0.0)
    scaled_init = State(
        scale_field(base_init.u, lam, u_w, fine) if u_w else SpectralField.zero(fine, 3),
        scale_field(base_init.b, lam, b_w, fine),
        0.0,
    )

    base_final, _ = run(base_init, base_cfg)
    scaled_final, _ = run(scaled_init, scaled_cfg)

    num = 0.0
    den = 0.0
    pairs = [(base_final.b, scaled_final.b, b_w)]
    if mode == "mhd":
        pairs.append((base_final.u, scaled_final.u, u_w))
    for base_f, scaled_f, w in pairs:
        diff = scale_field(base_f, lam, w, fine) - scaled_f
        num += lp_norm(diff, 2) ** 2
        den += lp_norm(scaled_f, 2) ** 2
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))
