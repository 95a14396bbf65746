"""Dyadic energy bookkeeping, flux terms, existence-time estimate, scalings.

The two shell energy identities are implemented as exact equalities

    1/2 d/dt sum_q e_u[q] + nu sum_q d_u[q] + I1 + I2 = 0,
    1/2 d/dt sum_q e_b[q] + mu sum_q d_b[q] + I3 + I4 + I5 = 0.

Every dyadic quantity is a weighted spectral sum: by Parseval,
lambda_q^{2s} <Delta_q F, Delta_q f> = lambda_q^{2s} (2 pi)^n sum_k
phi_q(|k|)^2 Re(F_k . conj f_k), so shell energies and dissipations contract
|f_k|^2 and |k|^2 |f_k|^2 against the shell multipliers and no shell is ever
materialized.  The fluxes take one inverse transform of 24 half-spectrum
fields (u, b, grad u, grad b; j = curl b is formed pointwise from grad b), the
five dealiased products u.grad u, b.grad b, u.grad b, b.grad u and j x b, and
one forward transform of those 15 fields.  These are the divergence-form
products of the energy identities, not the curl forms the solver steps with.
I5 pairs j x b with i k x b_k, since curl commutes with Delta_q, and carries
the Hall coefficient with the sign that closes the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .littlewood_paley import SobolevParams, shell_sums, sobolev_weights
from .solver import PhysicalParams, SolverConfig, State, _outside_cube, run
from .spectral import Grid, SpectralField, dealias_cutoff, irfftn_batch, lp_norm, rfftn_batch


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


def _power(coeffs: np.ndarray) -> np.ndarray:
    """|f_k|^2 summed over components."""
    return (coeffs.real**2 + coeffs.imag**2).sum(axis=0)


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a_k . conj(b_k)) summed over components."""
    return (a.real * b.real + a.imag * b.imag).sum(axis=0)


def _transport(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(a . grad) f pointwise, with grad[j, m] = d_j f_m."""
    return a[0] * grad[0] + a[1] * grad[1] + a[2] * grad[2]


def shell_energies(state: State, sob: SobolevParams) -> ShellEnergyRecord:
    g = state.grid
    pu, pb = _power(state.u.coeffs), _power(state.b.coeffs)
    sums = (2.0 * np.pi) ** g.n * shell_sums(g, np.stack([pu, pb, g.ksq * pu, g.ksq * pb]))
    ws, wr = sobolev_weights(g, sob.s), sobolev_weights(g, sob.r)
    return ShellEnergyRecord(state.t, ws * sums[0], wr * sums[1], ws * sums[2], wr * sums[3])


def flux_terms(state: State, params: PhysicalParams, sob: SobolevParams) -> FluxRecord:
    g = state.grid
    n, npts, k = g.n, g.npoints, g.k
    u, b = state.u.coeffs, state.b.coeffs
    grads = [(1j * k[:, None] * f).reshape((9,) + g.half_shape) for f in (u, b)]
    phys = irfftn_batch(np.concatenate([u, b, *grads]) * npts, n, g.shape)
    pu, pb = phys[:3], phys[3:6]
    du = phys[6:15].reshape((3, 3) + g.shape)
    db = phys[15:].reshape((3, 3) + g.shape)
    pj = np.stack([db[1, 2] - db[2, 1], db[2, 0] - db[0, 2], db[0, 1] - db[1, 0]])
    prods = np.concatenate(
        [
            _transport(pu, du),
            _transport(pb, db),
            _transport(pu, db),
            _transport(pb, du),
            np.cross(pj, pb, axis=0),
        ]
    )
    hats = rfftn_batch(prods, n) * (g.dealias_mask / npts)
    curl_b = 1j * np.cross(k, b, axis=0)
    power = np.stack(
        [
            _real_dot(hats[0:3], u),
            _real_dot(hats[3:6], u),
            _real_dot(hats[6:9], b),
            _real_dot(hats[9:12], b),
            _real_dot(hats[12:15], curl_b),
        ]
    )
    sums = (2.0 * np.pi) ** n * shell_sums(g, power)
    ws, wr = sobolev_weights(g, sob.s), sobolev_weights(g, sob.r)
    return FluxRecord(
        state.t,
        float(ws @ sums[0]),
        -float(ws @ sums[1]),
        float(wr @ sums[2]),
        -float(wr @ sums[3]),
        params.eta * float(wr @ sums[4]),
    )


def balance_residuals(
    energies: list[ShellEnergyRecord], fluxes: list[FluxRecord], params: PhysicalParams
):
    """Normalized residuals of the two shell energy identities along a trace
    of precomputed records, one shell-energy and one flux record per sample.

    Time derivatives use centered differences (one-sided at the endpoints);
    residuals are normalized by the dissipation magnitude.
    """
    if len(energies) < 3:
        raise ValueError("need at least 3 samples for a centered time-difference")
    ts = np.array([r.t for r in energies])
    Eu = np.array([r.e_u.sum() for r in energies])
    Eb = np.array([r.e_b.sum() for r in energies])
    Du = np.array([r.d_u.sum() for r in energies])
    Db = np.array([r.d_b.sum() for r in energies])

    dEu = np.gradient(Eu, ts, edge_order=2)
    dEb = np.gradient(Eb, ts, edge_order=2)
    res_u = np.empty(len(energies))
    res_b = np.empty(len(energies))
    for i, f in enumerate(fluxes):
        diss_u = params.nu * Du[i]
        diss_b = params.mu * Db[i]
        res_u[i] = abs(0.5 * dEu[i] + diss_u + f.I1 + f.I2) / max(diss_u, 1e-300)
        res_b[i] = abs(0.5 * dEb[i] + diss_b + f.I3 + f.I4 + f.I5) / max(diss_b, 1e-300)
    return ts, res_u, res_b


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
    dissipation magnitude; centered differences in time, one-sided endpoints.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 samples for a centered time-difference")
    ts = np.array([st.t for st in states])
    E = np.array(
        [0.5 * (lp_norm(st.u, 2) ** 2 + lp_norm(st.b, 2) ** 2) for st in states]
    )
    def grad_sq(f):
        g = f.grid
        power = g.ksq * (f.coeffs.real**2 + f.coeffs.imag**2)
        return (2.0 * np.pi) ** g.n * float((power * g.hermitian_weight).sum())

    D = np.array(
        [params.nu * grad_sq(st.u) + params.mu * grad_sq(st.b) for st in states]
    )
    dE = np.gradient(E, ts, edge_order=2)
    return np.abs(dE + D) / np.maximum(D, 1e-300)


@dataclass
class ExistenceEstimate:
    """Calibrated constants and the resulting guaranteed time horizon."""

    C: float
    gamma_low: float
    gamma_high: float
    psi0: float
    T: float


def existence_time(
    psi0: float, C: float, gamma_low: float, gamma_high: float
) -> ExistenceEstimate:
    """T = 1/2 min over gamma in {low, high} of 1 / (C gamma psi0^gamma)."""
    if psi0 <= 0 or C <= 0 or not 0 < gamma_low <= gamma_high:
        raise ValueError("require psi0 > 0, C > 0, 0 < gamma_low <= gamma_high")
    T = 0.5 * min(
        1.0 / (C * gamma_low * psi0**gamma_low),
        1.0 / (C * gamma_high * psi0**gamma_high),
    )
    return ExistenceEstimate(C, gamma_low, gamma_high, psi0, T)


def psi_bound(t: float, est: ExistenceEstimate) -> float:
    """The two-term norm-growth envelope; defined for t below its blow-up time."""
    total = 0.0
    for gamma in (est.gamma_low, est.gamma_high):
        tstar = 1.0 / (gamma * est.C * est.psi0**gamma)
        if t >= tstar:
            raise ValueError(f"t={t} is past blow-up of the bound (t*={tstar})")
        total += est.psi0 / (1.0 - gamma * est.C * est.psi0**gamma * t) ** (1.0 / gamma)
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


def scale_field(
    f: SpectralField, lam: int, amplitude: float, out_grid=None
) -> SpectralField:
    """Map f(x) to amplitude * f(lam x): mode k -> lam k, optionally onto a
    finer grid so the image lattice is fully resolved."""
    g = f.grid
    gt = out_grid if out_grid is not None else g
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
    """Copy the modes resolvable on a coarser grid; higher modes are dropped."""
    if coarse.dims > f.grid.dims or coarse.n != f.grid.n:
        raise ValueError("restrict_field expects a coarser grid of the same dimension")
    k1 = np.fft.fftfreq(coarse.dims, 1.0 / coarse.dims).astype(int)
    ix = np.ix_(*[k1 % f.grid.dims] * (coarse.n - 1), np.arange(coarse.dims // 2 + 1))
    return SpectralField(coarse, f.coeffs[(slice(None), *ix)])


def _band_limit_ok(f: SpectralField, lam: int) -> bool:
    return _outside_cube(f, dealias_cutoff(f.grid.dims) / lam) <= 1e-13


def scaling_check(
    mode: str, lam: int, initial: State, config: SolverConfig
) -> float:
    """Residual of the parabolic rescaling symmetry at scale factor lam.

    mode "mhd": u, b both scale with weight lam and eta is forced to zero.
    mode "hall_only": b scales with weight 1 under the Hall equation.
    The base problem runs on a dims/lam grid to tmax; the rescaled data runs
    on the full grid to tmax / lam^2 with dt / lam^2.  The coarse grid makes
    the two discrete flows correspond mode for mode (matched dealias cutoffs
    and integrating factors), so the residual measures pure roundoff drift.
    """
    if lam not in (2, 4):
        raise ValueError("lambda must be 2 or 4")
    if mode not in ("mhd", "hall_only"):
        raise ValueError("scaling modes are 'mhd' and 'hall_only'")
    for f in (initial.u, initial.b):
        if not _band_limit_ok(f, lam):
            raise ValueError("insufficient band-limiting for the requested lambda")

    fine = initial.grid
    coarse = Grid(fine.n, fine.dims // lam)

    p = config.params
    if mode == "mhd":
        params = PhysicalParams(p.nu, p.mu, 0.0)
        u_w, b_w = float(lam), float(lam)
    else:
        params = PhysicalParams(p.nu, p.mu, p.eta)
        u_w, b_w = 0.0, 1.0

    base_cfg = SolverConfig(
        params, config.sobolev, config.dt, config.tmax, mode=mode,
        snapshot_every=10**9,
    )
    scaled_cfg = SolverConfig(
        params, config.sobolev, config.dt / lam**2, config.tmax / lam**2,
        mode=mode, snapshot_every=10**9,
    )

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
