"""Difference-system machinery: cancellation identities and the Gronwall bound.

The difference (U, B) of two solutions satisfies a linearized system whose
energy growth is controlled by an exponential factor built from norms of the
reference solutions.  gronwall_check reduces two forward runs on a common time
grid, as lists or as streams such as solver.trajectory, one snapshot pair at a
time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .littlewood_paley import SobolevParams, dyadic_sobolev_norm
from .solver import State
from .spectral import (
    SpectralField,
    advect,
    cross,
    curl,
    gradient,
    inner_product,
    lp_norm,
    to_physical,
)


def _abs_integral(values: np.ndarray, grid) -> float:
    return float(np.abs(values).sum() * grid.cell_volume)


def _dot_phys(f: SpectralField, g: SpectralField) -> np.ndarray:
    return (to_physical(f) * to_physical(g)).sum(axis=0)


def cancellation_check(
    U: SpectralField,
    B: SpectralField,
    u2: SpectralField,
    b1: SpectralField,
    b2: SpectralField,
):
    """Residuals of the four exact cancellations, each normalized by the
    integral of the absolute value of its unsplit integrand."""
    g = U.grid

    def ratio(numer: float, integrand: np.ndarray) -> float:
        denom = _abs_integral(integrand, g)
        return abs(numer) / denom if denom > 0 else 0.0

    cB = curl(B)
    # (term, field it is tested against); the third in curl form:
    # int curl(w) . B = int w . curl B
    r1, r2, r3 = (
        ratio(inner_product(t, f), _dot_phys(t, f))
        for t, f in ((advect(u2, U), U), (advect(u2, B), B), (cross(cB, b1), cB))
    )

    t4a = advect(b2, B)
    t4b = advect(b2, U)
    denom4 = _abs_integral(_dot_phys(t4a, U), g) + _abs_integral(_dot_phys(t4b, B), g)
    num4 = inner_product(t4a, U) + inner_product(t4b, B)
    r4 = abs(num4) / denom4 if denom4 > 0 else 0.0

    return r1, r2, r3, r4


@dataclass
class DifferenceTrace:
    """Energy of the difference along a run pair and the exponent of its
    Gronwall envelope: energy(t) <= energy(0) * exp{C_nu_mu * exponent(t)}."""

    t: np.ndarray
    energy: np.ndarray
    exponent: np.ndarray
    passed: bool = False
    minimal_C_nu_mu: float = 0.0

    def holds(self, C_nu_mu: float) -> bool:
        """Whether the energy stays under the envelope of this C_nu_mu."""
        # cap the exponent: beyond ~700 the envelope is infinite anyway
        factor = np.exp(np.minimum(C_nu_mu * self.exponent, 700.0))
        if self.energy[0] == 0.0:
            return bool(np.all(self.energy == 0.0))
        return bool(np.all(self.energy <= self.energy[0] * factor + 1e-300))


def gronwall_check(
    run1: Iterable[State],
    run2: Iterable[State],
    sob: SobolevParams,
    C: float,
    C_nu_mu: float,
) -> DifferenceTrace:
    """Check energy(t) <= energy(0) * exp{C_nu_mu int_0^t g + C C_nu_mu t}.

    g(tau) = ||u1||_{H^{s+1}}^2 + ||grad b2||_{H^r}^2, integrated by the
    trapezoid rule on the trace.  Each pair of States of the two iterables is
    reduced to (t, energy, g) and dropped before the next pair is drawn.
    Also reports the minimal C_nu_mu that would pass with the given C: the
    largest ratio log(energy / energy(0)) / exponent, rounded up until this
    comparison accepts it (inf if none does).
    """
    rows, states2 = [], iter(run2)
    for s1 in run1:
        s2 = next(states2, None)
        if s2 is None:
            raise ValueError("mismatched trace lengths")
        if not math.isclose(s1.t, s2.t, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("mismatched time grids")
        # an inf is a valid energy for the envelope, so huge data need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            energy = lp_norm(s1.u - s2.u, 2) ** 2 + lp_norm(s1.b - s2.b, 2) ** 2
            g = dyadic_sobolev_norm(s1.u, sob.s + 1.0) ** 2
            g += dyadic_sobolev_norm(gradient(s2.b), sob.r) ** 2
        rows.append((s1.t, energy, g))
        del s1, s2  # so that a stream can free the pair while it makes the next
    if next(states2, None) is not None:
        raise ValueError("mismatched trace lengths")
    if not rows:
        raise ValueError("no states to compare: both runs are empty")
    ts, energy, g = np.array(rows).T
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(ts))])
    trace = DifferenceTrace(ts, energy, integral + C * ts)
    trace.passed = trace.holds(C_nu_mu)
    if energy[0] > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            need = np.log(energy[1:] / energy[0]) / trace.exponent[1:]
        need = need[np.isfinite(need)]
        ratio = float(max(0.0, need.max())) if len(need) else 0.0
        # the ratio rounds either way: raise it by a doubling number of ulps
        # until the comparison accepts it, which ends at inf if nothing does
        minimal, ulps = ratio, 1.0
        while np.isfinite(minimal) and not trace.holds(minimal):
            minimal = ratio + ulps * np.spacing(ratio)
            ulps *= 2.0
        trace.minimal_C_nu_mu = float(minimal)
    return trace
