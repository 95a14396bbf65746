"""Bony paraproduct split of transport terms and the three shell commutators.

The split of Delta_q(u . grad v) keeps the low-high, high-low and resonant
interactions as separate fields whose sum reproduces the direct evaluation to
roundoff on band-limited data.  Every (p, q) term of the window |q - p| <= 2
(p >= q - 2 for the resonant part) is still projected onto shell q and summed
on its own, in ascending p; only the product of the p-th pieces is shared by
all shells q whose window holds p.  Merging the window into one product per q
would break the exact low-frequency cancellations downstream.

The fields must be finite and zero outside the 2/3 dealias cube (by
spectral._support, the one exact in-cube test), where every shell, low-pass
piece and product of the split lies; the sweep runs on the compact cubes and
expands the sums of a shell only when it hands them over.  A product with a
zero factor is zero, so it is skipped: the splits are bit-identical.

commutator_ratios forms the bound ratios of the four commutators of fixed
fields at every shell of a sweep, with their q-independent pieces (sup norms,
L2 norms, curls and whole-field products) formed once; each ratio is == to
its single-shell function.  It runs on the dealias cube as well, so it
refuses the same fields: the curl-type products of all shells go through one
dealiased_product, and each commutator is expanded before its norm.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .littlewood_paley import _shell_multiplier, chi, lambda_q, low_pass, max_shell, project_shell
from .spectral import (
    Grid,
    SpectralField,
    _curl_of,
    _expanded,
    _gradient_of,
    _on_cube,
    _sampled_norm,
    _support,
    advect,
    cross,
    cross_into,
    curl,
    dealias_cutoff,
    dealiased_product,
    gradient,
    inner_product,
    irfftn_batch,
    lp_norm,
    transport_product,
)


@dataclass
class BonySplit:
    """The three interaction classes of Delta_q(u . grad v) at one shell q."""

    q: int
    low_high: SpectralField
    high_low: SpectralField
    resonant: SpectralField

    def total(self) -> SpectralField:
        return self.low_high + self.high_low + self.resonant


def _checked_cube(name: str, f: SpectralField) -> np.ndarray:
    """The dealias cube of f, after checking that f is finite and zero outside it."""
    g = f.grid
    if not np.isfinite(f.coeffs).all():
        raise ValueError(f"{name} has a non-finite coefficient")
    kc = dealias_cutoff(g.dims)
    if _support(f.coeffs, g.n).max(initial=-1) > kc:
        raise ValueError(f"{name} has a nonzero coefficient outside the dealias cube |k_i| <= {kc}")
    return _on_cube(g, f.coeffs)


def _cube_multipliers(g: Grid) -> tuple:
    """The dealias cubes of k, |k| and the shell multipliers phi_q(|k|) for
    q = -1 .. Q (entry q + 1)."""
    mult = [_on_cube(g, _shell_multiplier(g, q)) for q in range(-1, max_shell(g) + 1)]
    return _on_cube(g, g.k), _on_cube(g, g.kmag), mult


def _cube_low(c: np.ndarray, kmag: np.ndarray, top: int) -> np.ndarray | None:
    """low_pass(., top) of the cube c, or None where it is zero (top < -1)."""
    return c * chi(kmag / lambda_q(top + 1)) if top >= -1 else None


def _bony_sums(u: SpectralField, v: SpectralField, qs) -> dict:
    """(low_high, high_low, resonant) dealias-cube sums for every q in qs.

    Every piece lies inside the cube, so the sweep runs on the cubes of u, v,
    k, |k| and the shell multipliers, with the arithmetic of project_shell
    and low_pass and with gradient's _gradient_of, a near shell summed as
    shells p, p - 1, p + 1.
    One pass over p forms the three products of the p-th pieces, each once,
    and adds phi_q times each to the sums of the shells q in qs whose window
    holds p.  A product with a zero factor is zero for finite data and is
    skipped: for mean-free data the shell -1 and low_pass(., p - 2) for p <= 1
    are zero.
    """
    g = u.grid
    if v.grid != g:
        raise ValueError("grid mismatch between fields")
    cu, cv = _checked_cube("u", u), _checked_cube("v", v)
    Q = max_shell(g)

    k, kmag, mult = _cube_multipliers(g)
    su, sv = [cu * m for m in mult], [cv * m for m in mult]

    def near(p):
        out = su[p + 1]
        for r in (p - 1, p + 1):
            if -1 <= r <= Q:
                out = out + su[r + 1]
        return out

    def product(a, b):
        """The cube of (a . grad) b, or None when a or b is zero."""
        if a is None or b is None or not a.any() or not b.any():
            return None
        return dealiased_product(g, np.concatenate([a, _gradient_of(k, b)]), transport_product)

    sums = {q: [np.zeros((v.m, *g.cube_shape), dtype=complex) for _ in range(3)] for q in qs}

    def add(cls, targets, prod):
        if prod is not None:
            for q in targets:
                sums[q][cls] += prod * mult[q + 1]

    for p in range(max(-1, min(qs) - 2), Q + 1):
        window = [q for q in qs if abs(q - p) <= 2]
        if window:
            add(0, window, product(_cube_low(cu, kmag, p - 2), sv[p + 1]))
            add(1, window, product(su[p + 1], _cube_low(cv, kmag, p - 2)))
        add(2, [q for q in qs if q <= p + 2], product(near(p), sv[p + 1]))
    return sums


def _split(g, q: int, sums) -> BonySplit:
    return BonySplit(q, *(_expanded(g, s) for s in sums))


def _splits(g, sums: dict) -> Iterator[BonySplit]:
    for q in list(sums):
        yield _split(g, q, sums.pop(q))


def bony_splits(u: SpectralField, v: SpectralField) -> Iterator[BonySplit]:
    """BonySplit for q = -1 .. Q in order, from one pass over p.

    Every p-product is formed before this returns; the returned generator
    hands over the sums of one shell at a time.  Each split is equal, bit for
    bit, to bony_split(u, v, q).
    """
    return _splits(u.grid, _bony_sums(u, v, range(-1, max_shell(u.grid) + 1)))


def bony_split(u: SpectralField, v: SpectralField, q: int) -> BonySplit:
    Q = max_shell(u.grid)
    if q < -1 or q > Q:
        raise ValueError(f"shell index {q} outside [-1, {Q}]")
    return _split(u.grid, q, _bony_sums(u, v, [q])[q])


def commutator_transport(u_low: SpectralField, v_p: SpectralField, q: int) -> SpectralField:
    """[Delta_q, u_low . grad] v_p, both terms dealiased the same way."""
    return project_shell(advect(u_low, v_p), q) - advect(u_low, project_shell(v_p, q))


def commutator_cross_curl(F: SpectralField, G: SpectralField, q: int) -> SpectralField:
    """[Delta_q, F x curl] G = Delta_q(F x curl G) - F x curl(Delta_q G)."""
    return project_shell(cross(F, curl(G)), q) - cross(F, curl(project_shell(G, q)))


def commutator_curl_cross(F: SpectralField, G: SpectralField, q: int) -> SpectralField:
    """[Delta_q, curl F x] G = Delta_q(curl F x G) - curl F x Delta_q G."""
    curl_F = curl(F)
    return project_shell(cross(curl_F, G), q) - cross(curl_F, project_shell(G, q))


def _sup_gradient(F: SpectralField, order: int = 1) -> float:
    """Grid-sampled sup norm of the (iterated) gradient tensor of F.

    The 3^order * m derivative components go through one inverse real FFT batch.
    """
    for _ in range(order):
        F = gradient(F)
    return lp_norm(F, np.inf)


def _nonzero(denom: float) -> float:
    if denom == 0.0:
        raise ValueError("undefined ratio: zero denominator")
    return denom


def transport_bound_ratio(u: SpectralField, v: SpectralField, p: int, q: int) -> float:
    """Measured constant in the transport commutator bound at one (p, q) pair."""
    u_low = low_pass(u, p - 2)
    v_p = project_shell(v, p)
    # a zero u_low has a zero gradient: test for it before forming any norm
    denom = _nonzero(u_low.coeffs.any() and _sup_gradient(u_low) * lp_norm(v_p, 2))
    return lp_norm(commutator_transport(u_low, v_p, q), 2) / denom


def cross_curl_bound_ratio(F: SpectralField, G: SpectralField, q: int) -> float:
    """Measured constant in ||[Delta_q, F x curl]G||_2 <= C ||grad F||_inf ||G||_2."""
    denom = _nonzero(_sup_gradient(F) * lp_norm(G, 2))
    return lp_norm(commutator_cross_curl(F, G, q), 2) / denom


def curl_cross_bound_ratio(F: SpectralField, G: SpectralField, q: int) -> float:
    """Measured constant in ||[Delta_q, curl F x]G||_2 <= C ||grad F||_inf ||G||_2."""
    denom = _nonzero(_sup_gradient(F) * lp_norm(G, 2))
    return lp_norm(commutator_curl_cross(F, G, q), 2) / denom


def trilinear_bound_ratio(
    F: SpectralField, G: SpectralField, H: SpectralField, q: int
) -> float:
    """Measured constant in |int [Delta_q, curl F x]G . curl H| <= C ||grad^2 F||_inf ||G||_2 ||H||_2."""
    denom = _nonzero(_sup_gradient(F, order=2) * lp_norm(G, 2) * lp_norm(H, 2))
    return abs(inner_product(commutator_curl_cross(F, G, q), curl(H))) / denom


def _two_transports(phys: np.ndarray) -> np.ndarray:
    """(a . grad) b and (a . grad) c at the grid points, from the stacked
    samples of a, grad b and grad c: two transport_product outputs."""
    m3 = (len(phys) - 3) // 2
    return np.concatenate([transport_product(phys[: 3 + m3]),
                           transport_product(np.concatenate([phys[:3], phys[3 + m3:]]))])


def commutator_ratios(u: SpectralField, v: SpectralField, h: SpectralField, qs) -> dict:
    """{q: {"transport", "cross_curl", "curl_cross", "trilinear"}} for every q in qs.

    The bound ratios of the four commutators at shell q, each == to its
    single-shell function (transport_bound_ratio(u, v, q, q) and the
    curl-type ratios of F = u, G = v, H = h); "transport" is None exactly
    where that raises.  u, v and h must be finite and zero outside the dealias
    cube, as for bony_split.  The sweep runs on the cubes of u, v, h, k, |k|
    and the shell multipliers, with gradient's _gradient_of, curl's _curl_of
    and the arithmetic of project_shell and low_pass: the sup-norm
    denominators from one inverse batch each, the curl-type products of every
    shell from one dealiased_product, and the transport products of a shell
    from one more.
    Each commutator is expanded to the half spectrum before its norm, so that
    the Parseval sums run in the single-shell functions' order.
    """
    g = u.grid
    if v.grid != g or h.grid != g:
        raise ValueError("grid mismatch between fields")
    cu, cv, ch = _checked_cube("u", u), _checked_cube("v", v), _checked_cube("h", h)
    Q = max_shell(g)
    qs = list(qs)
    for q in qs:
        if q < -1 or q > Q:
            raise ValueError(f"shell index {q} outside [-1, {Q}]")
    k, kmag, mult = _cube_multipliers(g)

    def sup(cube):
        return _sampled_norm(g, irfftn_batch(cube, g.n, g.shape), sup=True)

    def norm(cube):
        return lp_norm(_expanded(g, cube), 2)

    v_norm = lp_norm(v, 2)
    grad_u = _gradient_of(k, cu)
    gradient_denom = _nonzero(sup(grad_u) * v_norm)
    hessian_denom = _nonzero(sup(_gradient_of(k, grad_u)) * v_norm * lp_norm(h, 2))
    curl_h = _expanded(g, _curl_of(k, ch))

    # F = u, G in (v, Delta_q v for q in qs): the products F x curl G and
    # curl F x G, stacked as u, curl u, then curl G and G for each G
    shells = [cv * mult[q + 1] for q in qs]
    spec = np.concatenate([cu, _curl_of(k, cu)] + [x for G in [cv] + shells for x in (_curl_of(k, G), G)])

    def curl_type(phys):
        """u x curl G and curl u x G for each G in turn: output j (per 3
        components) crosses u or curl u, by the parity of j, with input j + 2."""
        out, tmp = np.empty((len(phys) - 6, *g.shape)), np.empty(g.shape)
        for j in range(0, len(out), 3):
            cross_into(out[j : j + 3], phys[j % 6 : j % 6 + 3], phys[6 + j : 9 + j], tmp)
        return out

    prods = dealiased_product(g, spec, curl_type)
    u_cross_curl_v, curl_u_cross_v = prods[0:3], prods[3:6]

    ratios = {}
    for i, (q, v_p) in enumerate(zip(qs, shells)):
        transport = None
        u_low = _cube_low(cu, kmag, q - 2)
        # transport_bound_ratio's denominator; where it is zero that raises
        denom = u_low is not None and u_low.any() and sup(_gradient_of(k, u_low)) * norm(v_p)
        if denom != 0.0:
            spec = np.concatenate([u_low, _gradient_of(k, v_p), _gradient_of(k, v_p * mult[q + 1])])
            adv = dealiased_product(g, spec, _two_transports)
            transport = norm(adv[:3] * mult[q + 1] - adv[3:]) / denom
        at = 6 + 6 * i
        curl_cross = _expanded(g, curl_u_cross_v * mult[q + 1] - prods[at + 3 : at + 6])
        ratios[q] = {
            "transport": transport,
            "cross_curl": norm(u_cross_curl_v * mult[q + 1] - prods[at : at + 3]) / gradient_denom,
            "curl_cross": lp_norm(curl_cross, 2) / gradient_denom,
            "trilinear": abs(inner_product(curl_cross, curl_h)) / hessian_denom,
        }
    return ratios
