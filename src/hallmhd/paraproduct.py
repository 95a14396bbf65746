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
refuses the same fields, and it holds little memory: every inverse batch
takes one three-component cube, each field is transformed once, each
commutator is expanded before its norm, and the half spectra of u, v and h
are let go once their cubes and norms exist.  _sup_gradient_of, the one
sampled sup norm of a gradient or Hessian tensor, serves the sweep and the
single-shell ratios (through _sup_gradient).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .littlewood_paley import _low, _shell_multiplier, low_pass, max_shell, project_shell
from .spectral import (
    Grid,
    SpectralField,
    _check_compat,
    _curl_of,
    _expanded,
    _gradient_of,
    _on_cube,
    _sampled_norm,
    _support,
    _transport,
    advect,
    cross,
    cross_into,
    curl,
    dealias_cutoff,
    dealiased_product,
    inner_product,
    irfftn_batch,
    lp_norm,
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


def _bony_sums(u: SpectralField, v: SpectralField, qs) -> dict:
    """(low_high, high_low, resonant) dealias-cube sums for every q in qs.

    Every piece lies inside the cube, so the sweep runs on the cubes of u, v,
    k, |k| and the shell multipliers, with project_shell's arithmetic,
    low_pass's _low and gradient's _gradient_of, a near shell summed as
    shells p, p - 1, p + 1.
    One pass over p forms the three products of the p-th pieces, each once,
    and adds phi_q times each to the sums of the shells q in qs whose window
    holds p.  A product with a zero factor is zero for finite data and is
    skipped: for mean-free data the shell -1 and low_pass(., p - 2) for p <= 1
    are zero.
    """
    g = u.grid
    _check_compat(u, v, same_m=False)
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
        if not a.any() or not b.any():
            return None
        return dealiased_product(g, np.concatenate([a, _gradient_of(k, b)]), lambda p: _transport(p[:3], p[3:]))

    sums = {q: [np.zeros((v.m, *g.cube_shape), dtype=complex) for _ in range(3)] for q in qs}

    def add(cls, targets, prod):
        if prod is not None:
            for q in targets:
                sums[q][cls] += prod * mult[q + 1]

    for p in range(max(-1, min(qs) - 2), Q + 1):
        window = [q for q in qs if abs(q - p) <= 2]
        if window:
            add(0, window, product(_low(cu, kmag, p - 2), sv[p + 1]))
            add(1, window, product(su[p + 1], _low(cv, kmag, p - 2)))
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


def _sup_gradient_of(g: Grid, k: np.ndarray, c: np.ndarray, order: int = 1) -> float:
    """Grid-sampled sup norm of the order-th gradient tensor of the spectra c
    of grid g, given k on the same layout (half spectrum or dealias cube), in
    gradient's component order, one derivative's components per inverse
    batch: js runs over the derivatives d_j, the one taken last first."""

    def samples():
        for js in itertools.product(range(3), repeat=order):
            spec = c
            for j in reversed(js):
                spec = _gradient_of(k[j : j + 1], spec)
            yield irfftn_batch(spec, g.n, g.shape)

    return _sampled_norm(g, samples, sup=True)


def _sup_gradient(F: SpectralField, order: int = 1) -> float:
    """Grid-sampled sup norm of the (iterated) gradient tensor of F."""
    return _sup_gradient_of(F.grid, F.grid.k, F.coeffs, order)


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


def commutator_ratios(u: SpectralField, v: SpectralField, h: SpectralField, qs) -> dict:
    """{q: {"transport", "cross_curl", "curl_cross", "trilinear"}} for every q in qs.

    The bound ratios of the four commutators at shell q, each == to its
    single-shell function (transport_bound_ratio(u, v, q, q) and the
    curl-type ratios of F = u, G = v, H = h); "transport" is None exactly
    where that raises.  u, v and h must be finite and zero outside the dealias
    cube, as for bony_split.  The sweep runs on the cubes of u, v, h, k, |k|
    and the shell multipliers, with gradient's _gradient_of, curl's _curl_of,
    low_pass's _low and the arithmetic of project_shell, three components at
    a time: the sup-norm denominators by _sup_gradient_of, as in the
    single-shell functions, on the cubes, the transports of a shell from
    the samples of u_low and one component of v_q or Delta_q v_q at a time,
    and the curl-type products of G = v and of each shell of v from the
    samples of u, then of curl u, and one G at a time.
    Each commutator is expanded to the half spectrum before its norm, so that
    the Parseval sums run in the single-shell functions' order.
    """
    g = u.grid
    _check_compat(u, v, same_m=False)
    _check_compat(u, h, same_m=False)
    cu, cv, ch = _checked_cube("u", u), _checked_cube("v", v), _checked_cube("h", h)
    Q = max_shell(g)
    qs = list(qs)
    for q in qs:
        if q < -1 or q > Q:
            raise ValueError(f"shell index {q} outside [-1, {Q}]")
    v_norm, h_norm = lp_norm(v, 2), lp_norm(h, 2)
    # the half spectra are not used past their cubes and norms; a caller that
    # holds no other reference frees them here
    del u, v, h
    k, kmag, mult = _cube_multipliers(g)

    def norm(cube):
        return lp_norm(_expanded(g, cube), 2)

    def product(spec, other, form):
        """The cube of form(other, samples of spec) for a three-component cube spec."""
        return dealiased_product(g, spec, lambda phys: form(other, phys))

    def crossed(a, b):
        return cross_into(np.empty_like(b), a, b, np.empty(g.shape))

    gradient_denom = _nonzero(_sup_gradient_of(g, k, cu) * v_norm)
    hessian_denom = _nonzero(_sup_gradient_of(g, k, cu, order=2) * v_norm * h_norm)

    def transport_ratio(q):
        """transport_bound_ratio(u, v, q, q), or None where that raises: the
        transports of b = v_q and Delta_q v_q, one component of b at a time,
        against the samples of u_low."""
        u_low, v_p = _low(cu, kmag, q - 2), cv * mult[q + 1]
        denom = u_low.any() and _sup_gradient_of(g, k, u_low) * norm(v_p)
        if denom == 0.0:
            return None
        low = irfftn_batch(u_low, g.n, g.shape)
        adv = [np.concatenate([product(_gradient_of(k, b[c : c + 1]), low, _transport) for c in range(3)])
               for b in (v_p, v_p * mult[q + 1])]
        return norm(adv[0] * mult[q + 1] - adv[1]) / denom

    # the transport ratios first, while no curl-type product is held
    transports = [transport_ratio(q) for q in qs]

    def commutators(factor, spectrum):
        """factor x spectrum(v) * phi_q - factor x spectrum(Delta_q v), the
        cube of one curl-type commutator of F = u, for each q in qs in turn;
        factor is transformed once, and each product is formed once."""
        phys = irfftn_batch(factor, g.n, g.shape)
        whole = product(spectrum(cv), phys, crossed)
        for q in qs:
            shell = product(spectrum(cv * mult[q + 1]), phys, crossed)
            yield np.subtract(whole * mult[q + 1], shell, out=shell)

    def curl_cross_ratios(c):
        """The curl_cross and trilinear ratios of the commutator cube c."""
        commutator = _expanded(g, c)
        return (lp_norm(commutator, 2) / gradient_denom,
                abs(inner_product(commutator, curl_h)) / hessian_denom)

    # u x curl G, then curl u x G, for G = v and each Delta_q v; the
    # commutators of curl u x are all formed, and the samples of curl u let
    # go, before their expanded forms meet curl h
    cross_curl = [norm(c) / gradient_denom for c in commutators(cu, lambda G: _curl_of(k, G))]
    cubes = list(commutators(_curl_of(k, cu), lambda G: G))
    curl_h = _expanded(g, _curl_of(k, ch))
    curl_cross = [curl_cross_ratios(c) for c in cubes]
    return {
        q: {"transport": t, "cross_curl": cc, "curl_cross": cx, "trilinear": tri}
        for q, t, cc, (cx, tri) in zip(qs, transports, cross_curl, curl_cross)
    }
