"""Dyadic frequency decomposition: smooth cutoffs, shell projections, norms.

The radial cutoff chi equals 1 for |xi| <= 3/4 and 0 for |xi| >= 1, with a
C-infinity bridge in between; phi(xi) = chi(xi/2) - chi(xi) tiles frequency
space into octave shells of scale lambda_q = 2^q.  Shell projections are
Fourier multipliers, exact on the torus; like the fields they act on, the
multipliers cover the real-FFT half spectrum.  _low, the one low-pass cut
chi(|k| / 2^{Q+1}), serves low_pass, the Bony split and the commutator sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField, dealias_cutoff, lp_norm, parseval, power


@dataclass(frozen=True)
class SobolevParams:
    """Regularity exponents: velocity in H^s, magnetic field in H^r, r = s + 1 - eps."""

    s: float
    r: float
    eps: float

    @classmethod
    def from_s_eps(cls, s: float, eps: float) -> "SobolevParams":
        return cls(s=s, r=s + 1.0 - eps, eps=eps)

    def validate(self, n: int) -> None:
        """Check the admissibility constraints for dimension n; raise on violation.

        The config keys s and eps are checked first (s finite, eps finite and
        positive), so that the rules on the derived r name r only where s and
        eps are admissible on their own."""
        if not math.isfinite(self.s):
            raise ValueError(f"sobolev.s: must be finite, got {self.s!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"sobolev.eps: must be finite and positive, got {self.eps!r}")
        if not self.s > n / 2 - 1:
            raise ValueError(f"sobolev.s violates s > n/2 - 1: s={self.s}, n={n}")
        if not self.r > n / 2:
            raise ValueError(f"sobolev.r violates r > n/2: r={self.r}, n={n}")
        if not n / 4 + self.s / 2 < self.r:
            raise ValueError(
                f"sobolev.r violates n/4 + s/2 < r: s={self.s}, r={self.r}, n={n}"
            )
        if not self.r <= self.s + 1.0 - self.eps + 1e-12:
            raise ValueError(
                f"sobolev.r violates r <= s + 1 - eps: s={self.s}, r={self.r}, eps={self.eps}"
            )


def _bump(t):
    """g(t) = exp(-1/t) for t > 0, else 0; the standard smooth-step ingredient."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def chi(xi):
    """Smooth radial cutoff: 1 on |xi| <= 3/4, 0 on |xi| >= 1, monotone between."""
    xi = np.abs(np.asarray(xi, dtype=float))
    up = _bump(1.0 - xi)
    down = _bump(xi - 0.75)
    with np.errstate(invalid="ignore"):
        out = np.where(up + down > 0, up / np.where(up + down > 0, up + down, 1.0), 0.0)
    out = np.where(xi <= 0.75, 1.0, out)
    out = np.where(xi >= 1.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def phi(xi):
    """Annular bump phi(xi) = chi(xi/2) - chi(xi); supported on 3/4 <= |xi| <= 2."""
    return chi(np.asarray(xi, dtype=float) / 2.0) - chi(xi)


def phi_q(xi, q: int):
    """Shell multiplier profile: phi(xi / 2^q) for q >= 0, chi(xi) for q = -1."""
    if q < -1:
        raise ValueError(f"shell index must be >= -1, got {q}")
    if q == -1:
        return chi(xi)
    return phi(np.asarray(xi, dtype=float) / 2.0**q)


def lambda_q(q: int) -> float:
    return 2.0**q


def max_shell(grid: Grid) -> int:
    """Largest Q whose shell fits inside the dealias band: 2*2^Q <= kc, with
    kc = dealias_cutoff(dims); for a power-of-two dims no power of two lies
    between kc and (2/3)(dims/2), so this is the float bound too."""
    return int(np.floor(np.log2(dealias_cutoff(grid.dims) / 2.0)))


def resolved_band(grid: Grid) -> float:
    """Radius (3/4) * lambda_{Q+1} inside which the shell family sums to one."""
    return 0.75 * lambda_q(max_shell(grid) + 1)


def _shell_multiplier(grid: Grid, q: int) -> np.ndarray:
    return grid._cached(("shell", q), lambda: phi_q(grid.kmag, q))


def project_shell(f: SpectralField, q: int) -> SpectralField:
    """Dyadic shell projection: multiply every coefficient by phi_q(|k|)."""
    Q = max_shell(f.grid)
    if q < -1 or q > Q:
        raise ValueError(f"shell index {q} outside [-1, {Q}]")
    return SpectralField(f.grid, f.coeffs * _shell_multiplier(f.grid, q))


def _low(c: np.ndarray, kmag: np.ndarray, Q: int) -> np.ndarray:
    """The chi(|k| / 2^{Q+1}) cut of the stacked spectra c, given |k| on the
    same layout (half spectrum or dealias cube): zero below Q = -1."""
    return c * chi(kmag / lambda_q(Q + 1)) if Q >= -1 else np.zeros_like(c)


def low_pass(f: SpectralField, Q: int) -> SpectralField:
    """Low-frequency part: sum of shells up to Q, i.e. the chi(k / 2^{Q+1}) cut."""
    return SpectralField(f.grid, _low(f.coeffs, f.grid.kmag, Q))


def decompose(f: SpectralField) -> list[SpectralField]:
    return [project_shell(f, q) for q in range(-1, max_shell(f.grid) + 1)]


def shell_sums(grid: Grid, power: np.ndarray) -> np.ndarray:
    """sum_k phi_q(|k|)^2 power[..., k] over the whole lattice for q = -1 .. Q,
    on the last axis.

    power is a spectrum on the half layout (trailing axes grid.half_shape);
    leading axes are kept.  Each mode counts with grid.hermitian_weight, so
    power must be even in k, as the products of real fields' spectra are.
    With power = |f_k|^2 the entries are the shell energies ||Delta_q f||_2^2
    up to the volume factor (2 pi)^n, with no per-shell copy of f.
    """
    n = grid.n
    if power.shape[-n:] != grid.half_shape:
        raise ValueError(f"spectrum shape {power.shape} does not end in {grid.half_shape}")
    lead = power.shape[:-n]
    weighted = power * grid.hermitian_weight
    Q = max_shell(grid)
    out = np.empty(lead + (Q + 2,))
    for q in range(-1, Q + 1):
        mult = _shell_multiplier(grid, q)
        out[..., q + 1] = (weighted * (mult * mult)).reshape(lead + (-1,)).sum(axis=-1)
    return out


def sobolev_weights(grid: Grid, s: float) -> np.ndarray:
    """lambda_q^{2s} for q = -1 .. Q, matching the columns of shell_sums."""
    return np.array([lambda_q(q) ** (2 * s) for q in range(-1, max_shell(grid) + 1)])


def dyadic_sobolev_norm(f: SpectralField, s: float) -> float:
    """(sum_q lambda_q^{2s} ||f_q||_2^2)^{1/2} over the grid's shell family."""
    g = f.grid
    total = (2.0 * np.pi) ** g.n * float(sobolev_weights(g, s) @ shell_sums(g, power(f.coeffs)))
    return float(np.sqrt(total))


def besov_norm(f: SpectralField, s: float, p=2) -> float:
    """B^s_{p,inf} norm: sup over shells of lambda_q^s ||f_q||_p."""
    return max(
        lambda_q(q) ** s * lp_norm(project_shell(f, q), p)
        for q in range(-1, max_shell(f.grid) + 1)
    )


def direct_sobolev_norm(f: SpectralField, s: float) -> float:
    """Multiplier H^s norm (sum (1+|k|^2)^s |f_k|^2)^{1/2}; shell-free cross-check."""
    g = f.grid
    return float(np.sqrt(parseval(g, (1.0 + g.ksq) ** s * power(f.coeffs))))


def bernstein_ratio(f_q: SpectralField, q: int, p_from, p_to) -> float:
    """Measured constant in ||f_q||_{p_to} <= C lambda_q^{n(1/p_from - 1/p_to)} ||f_q||_{p_from}."""
    order = {1: 1.0, 2: 2.0, np.inf: np.inf, float("inf"): np.inf}
    if p_from not in order or p_to not in order:
        raise ValueError("norm orders must come from {1, 2, inf}")
    a, b = order[p_from], order[p_to]
    if not a <= b:
        raise ValueError("p_from must not exceed p_to")
    denom_norm = lp_norm(f_q, p_from)
    if denom_norm == 0.0:
        raise ValueError("undefined ratio: zero shell field")
    n = f_q.grid.n
    inv_a = 0.0 if np.isinf(a) else 1.0 / a
    inv_b = 0.0 if np.isinf(b) else 1.0 / b
    return lp_norm(f_q, p_to) / (lambda_q(q) ** (n * (inv_a - inv_b)) * denom_norm)
