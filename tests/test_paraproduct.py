"""Bony split exactness and commutator behavior."""

import tracemalloc

import numpy as np
import pytest

from hallmhd import paraproduct, spectral
from hallmhd.littlewood_paley import (
    decompose,
    low_pass,
    max_shell,
    phi_q,
    project_shell,
    resolved_band,
)
from hallmhd.paraproduct import (
    bony_split,
    bony_splits,
    commutator_cross_curl,
    commutator_curl_cross,
    commutator_ratios,
    commutator_transport,
    cross_curl_bound_ratio,
    curl_cross_bound_ratio,
    transport_bound_ratio,
    trilinear_bound_ratio,
)
from hallmhd.random_fields import random_band_field
from hallmhd.spectral import Grid, SpectralField, advect, cross, curl, dealias_cutoff, lp_norm
from hallmhd.uniqueness import _dot_phys
from hallmhd.verification import check_bony_identity


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 32)


@pytest.fixture(scope="module")
def uv(grid):
    band = resolved_band(grid)
    return random_band_field(grid, 101, band), random_band_field(grid, 102, band)


def test_bony_split_reproduces_direct(grid, uv):
    u, v = uv
    direct_all = advect(u, v)
    scale = lp_norm(direct_all, 2)
    for q in range(-1, max_shell(grid) + 1):
        split = bony_split(u, v, q)
        direct = project_shell(direct_all, q)
        res = lp_norm(split.total() - direct, 2)
        denom = lp_norm(direct, 2)
        if denom > 1e-8 * scale:
            assert res < 1e-10 * denom
        else:
            # near-empty shell (q = -1 sees almost no product content)
            assert res < 1e-12 * scale


def _bony_split_oracle(u, v, q):
    """Per-(p, q) evaluation: every window product is formed for this q alone."""
    Q = max_shell(u.grid)
    su, sv = decompose(u), decompose(v)

    def near(p):
        # shell p, then + shell p - 1, then + shell p + 1, each where it exists
        out = su[p + 1]
        for r in (p - 1, p + 1):
            if -1 <= r <= Q:
                out = out + su[r + 1]
        return out

    lh = SpectralField.zero(u.grid, v.m)
    hl = SpectralField.zero(u.grid, v.m)
    for p in range(max(-1, q - 2), min(Q, q + 2) + 1):
        lh = lh + project_shell(advect(low_pass(u, p - 2), sv[p + 1]), q)
        hl = hl + project_shell(advect(su[p + 1], low_pass(v, p - 2)), q)
    res = SpectralField.zero(u.grid, v.m)
    for p in range(max(-1, q - 2), Q + 1):
        res = res + project_shell(advect(near(p), sv[p + 1]), q)
    return lh, hl, res


def _with_mean(f, mean):
    """f with the k = 0 coefficients set to the constant vector mean."""
    f = f.copy()
    f.coeffs[(slice(None),) + (0,) * f.grid.n] = mean
    return f


@pytest.mark.parametrize(
    "n, dims, mean",
    [(3, 16, False), (3, 32, False), (2, 64, False), (3, 32, True)],
    ids=["3-16", "3-32", "2-64", "3-32-mean"],
)
def test_bony_splits_bit_identical_to_per_pair_oracle(n, dims, mean):
    g = Grid(n, dims)
    band = resolved_band(g)
    u, v = random_band_field(g, 301, band), random_band_field(g, 302, band)
    if mean:
        # nonzero shell -1 and low_pass(., -1) pieces: their products are formed
        u, v = _with_mean(u, [0.3, -0.7, 0.2]), _with_mean(v, [-0.5, 0.1, 0.9])
    splits = list(bony_splits(u, v))
    assert [s.q for s in splits] == list(range(-1, max_shell(g) + 1))
    for split in splits:
        expected = _bony_split_oracle(u, v, split.q)
        for got in (split, bony_split(u, v, split.q)):
            for field, want in zip((got.low_high, got.high_low, got.resonant), expected):
                assert np.array_equal(field.coeffs, want.coeffs)


def _count_products(monkeypatch):
    """The input spectra of the products that paraproduct forms, as bytes."""
    formed = []
    product = paraproduct.dealiased_product

    def counted(grid, spec, *args):
        formed.append(spec.tobytes())
        return product(grid, spec, *args)

    monkeypatch.setattr(paraproduct, "dealiased_product", counted)
    return formed


def test_bony_identity_forms_each_product_once(monkeypatch):
    g = Grid(3, 32)
    formed = _count_products(monkeypatch)
    assert check_bony_identity(g, 2, 11).passed
    # of the three products per p = -1 .. Q, shared by every shell q, the 7
    # with a zero factor are skipped for mean-free data: 5 per pair
    assert len(formed) == 2 * 5 == 10
    assert len(set(formed)) == len(formed)


def test_bony_sums_skip_only_zero_factor_products(monkeypatch):
    g = Grid(3, 32)
    band = resolved_band(g)
    u, v = random_band_field(g, 301, band), random_band_field(g, 302, band)
    formed = _count_products(monkeypatch)
    list(bony_splits(u, v))
    assert len(formed) == 5
    # a mean makes the shell -1 and low_pass(., -1) pieces nonzero: the
    # resonant product at p = -1 and the two paraproducts at p = 1 are formed
    formed.clear()
    list(bony_splits(_with_mean(u, [0.3, -0.7, 0.2]), _with_mean(v, [-0.5, 0.1, 0.9])))
    assert len(formed) == 8


@pytest.mark.parametrize("n, dims", [(3, 32), (2, 64)])
@pytest.mark.parametrize("defect", ["outside", "nonfinite"])
@pytest.mark.parametrize("name", ["u", "v"])
def test_bony_split_rejects_fields_it_cannot_split(n, dims, defect, name):
    g = Grid(n, dims)
    band = resolved_band(g)
    fields = {"u": random_band_field(g, 303, band), "v": random_band_field(g, 304, band)}
    kc = dealias_cutoff(dims)
    if defect == "outside":
        # a mode on the first axis just past the cube
        fields[name].coeffs[(0, kc + 1) + (0,) * (n - 1)] = 1e-3
        match = f"{name} has a nonzero coefficient outside the dealias cube"
    else:
        fields[name].coeffs[(1, 1) + (0,) * (n - 1)] = np.inf
        match = f"{name} has a non-finite coefficient"
    with pytest.raises(ValueError, match=match):
        bony_split(fields["u"], fields["v"], 1)
    with pytest.raises(ValueError, match=match):
        bony_splits(fields["u"], fields["v"])


def test_commutator_sweep_equals_single_shell_ratios(grid):
    for g in (grid, Grid(2, 64)):
        band = resolved_band(g)
        u, v, h = (random_band_field(g, seed, band) for seed in (101, 102, 104))
        qs = range(0, max_shell(g) + 1)
        ratios = commutator_ratios(u, v, h, qs)
        assert list(ratios) == list(qs)
        for q in qs:
            r = ratios[q]
            assert r["cross_curl"] == cross_curl_bound_ratio(u, v, q)
            assert r["curl_cross"] == curl_cross_bound_ratio(u, v, q)
            assert r["trilinear"] == trilinear_bound_ratio(u, v, h, q)
            # the fields are mean-free, so low_pass(u, q - 2) is zero at q = 0, 1
            if q <= 1:
                assert r["transport"] is None
                with pytest.raises(ValueError, match="^undefined ratio: zero denominator$"):
                    transport_bound_ratio(u, v, q, q)
            else:
                assert r["transport"] == transport_bound_ratio(u, v, q, q)


def _with_empty_shell(f, q):
    """f with every mode that shell q holds set to zero."""
    f = f.copy()
    f.coeffs[:, phi_q(f.grid.kmag, q) != 0] = 0.0
    return f


@pytest.mark.parametrize("n, dims", [(3, 32), (2, 64)])
def test_commutator_sweep_transport_where_low_pass_or_shell_is_special(n, dims):
    # u has a mean, so low_pass(u, -1) is nonzero at q = 1 but has a zero
    # gradient; v has one empty shell at a time
    g = Grid(n, dims)
    band = resolved_band(g)
    u = _with_mean(random_band_field(g, 311, band), [0.3, -0.7, 0.2])
    v, h = random_band_field(g, 312, band), random_band_field(g, 313, band)
    qs = range(0, max_shell(g) + 1)
    defined = set()
    for empty in qs:
        v_e = _with_empty_shell(v, empty)
        assert lp_norm(project_shell(v_e, empty), 2) == 0.0
        ratios = commutator_ratios(u, v_e, h, qs)
        for q in qs:
            try:
                expected = transport_bound_ratio(u, v_e, q, q)
            except ValueError:
                assert ratios[q]["transport"] is None
            else:
                assert ratios[q]["transport"] == expected
                defined.add(q)
            assert ratios[q]["cross_curl"] == cross_curl_bound_ratio(u, v_e, q)
            assert ratios[q]["curl_cross"] == curl_cross_bound_ratio(u, v_e, q)
            assert ratios[q]["trilinear"] == trilinear_bound_ratio(u, v_e, h, q)
        # the low-pass piece at q = 1 is the mean, and the empty shell has no norm
        assert ratios[1]["transport"] is None and ratios[empty]["transport"] is None
    assert defined


def test_commutator_sweep_forms_all_curl_type_products_at_once(grid, uv, monkeypatch):
    u, v = uv
    h = random_band_field(grid, 104, resolved_band(grid))
    products, inverse = [], []
    product, batch = paraproduct.dealiased_product, spectral.irfftn_batch

    def counted_product(g, spec, *args):
        products.append(len(spec))
        return product(g, spec, *args)

    def counted_batch(arr, n, shape):
        inverse.append(arr.shape)
        return batch(arr, n, shape)

    monkeypatch.setattr(paraproduct, "dealiased_product", counted_product)
    monkeypatch.setattr(paraproduct, "irfftn_batch", counted_batch)
    monkeypatch.setattr(spectral, "irfftn_batch", counted_batch)
    qs = range(0, max_shell(grid) + 1)
    ratios = commutator_ratios(u, v, h, qs)
    defined = [q for q in qs if ratios[q]["transport"] is not None]
    assert defined == [2]
    # per defined shell, one transport product per component of v_p and of
    # Delta_q v_p, each of its 3 derivatives against the samples of u_low;
    # then one curl-type product per G = v and every Delta_q v, of curl G
    # against the samples of u and of G against those of curl u
    assert products == [3] * (6 * len(defined) + 2 * (1 + len(qs)))
    # every inverse batch takes one three-component dealias cube: no
    # half-spectrum support scan, and three fields transformed at a time
    assert all(shape == (3, *grid.cube_shape) for shape in inverse)
    # sup norms of grad u (9) and its Hessian (27), per defined shell grad
    # u_low (9), u_low (3) and the transport inputs (18), then u, curl u and
    # the curl-type inputs (3 per G each): each field is transformed once
    assert sum(shape[0] for shape in inverse) == 9 + 27 + 30 * len(defined) + 6 + 6 * (1 + len(qs)) == 96


@pytest.mark.parametrize("n, dims", [(3, 32), (2, 64), (3, 16)])
@pytest.mark.parametrize("name", ["u", "v", "h"])
def test_commutator_ratios_rejects_fields_it_cannot_check(n, dims, name):
    g = Grid(n, dims)
    band = resolved_band(g)
    clean = {key: random_band_field(g, seed, band) for key, seed in zip("uvh", (305, 306, 307))}
    qs = range(0, max_shell(g) + 1)
    kc = dealias_cutoff(dims)
    inside, outside = (1, 1) + (0,) * (n - 1), (0, kc + 1) + (0,) * (n - 1)
    faults = [
        (inside, np.inf, "non-finite coefficient"),
        (inside, np.nan, "non-finite coefficient"),
        (outside, 1e-3, f"nonzero coefficient outside the dealias cube \\|k_i\\| <= {kc}"),
    ]
    for index, value, message in faults:
        fields = {key: f.copy() for key, f in clean.items()}
        fields[name].coeffs[index] = value
        with pytest.raises(ValueError, match=f"^{name} has a {message}$"):
            commutator_ratios(fields["u"], fields["v"], fields["h"], qs)
    # an out-of-cube -0.0 is a zero: accepted, with the clean ratios
    fields = {key: f.copy() for key, f in clean.items()}
    fields[name].coeffs[outside] = -0.0
    assert commutator_ratios(fields["u"], fields["v"], fields["h"], qs) == commutator_ratios(
        clean["u"], clean["v"], clean["h"], qs
    )


def test_bony_split_classes_nontrivial(grid, uv):
    u, v = uv
    split = bony_split(u, v, 1)
    # all three interaction classes genuinely contribute for generic data
    assert lp_norm(split.low_high, 2) > 0
    assert lp_norm(split.high_low, 2) > 0
    assert lp_norm(split.resonant, 2) > 0


def test_bony_split_index_validation(grid, uv):
    u, v = uv
    with pytest.raises(ValueError):
        bony_split(u, v, max_shell(grid) + 1)


def test_commutators_vanish_on_constant_first_argument(grid):
    v = random_band_field(grid, 103, resolved_band(grid))
    const = SpectralField.zero(grid, 3)
    const.coeffs[(slice(None),) + (0,) * grid.n] = [1.0, -2.0, 0.5]
    scale = lp_norm(v, 2)
    assert lp_norm(commutator_transport(const, v, 1), 2) < 1e-12 * scale
    assert lp_norm(commutator_cross_curl(const, v, 1), 2) < 1e-12 * scale
    assert lp_norm(commutator_curl_cross(const, v, 1), 2) < 1e-12 * scale


def test_commutator_transport_definition(grid, uv):
    u, v = uv
    q = 1
    u_low = low_pass(u, q - 2)
    got = commutator_transport(u_low, v, q)
    manual = project_shell(advect(u_low, v), q) - advect(u_low, project_shell(v, q))
    assert lp_norm(got - manual, 2) == 0.0


def test_commutator_cross_curl_definition(grid, uv):
    F, G = uv
    q = 1
    got = commutator_cross_curl(F, G, q)
    manual = project_shell(cross(F, curl(G)), q) - cross(F, curl(project_shell(G, q)))
    assert lp_norm(got - manual, 2) == 0.0
    got2 = commutator_curl_cross(F, G, q)
    manual2 = project_shell(cross(curl(F), G), q) - cross(curl(F), project_shell(G, q))
    assert lp_norm(got2 - manual2, 2) == 0.0


def test_commutators_nonzero_generically(grid, uv):
    u, v = uv
    assert lp_norm(commutator_cross_curl(u, v, 1), 2) > 1e-8


def test_bound_ratios_finite_and_uniform(grid):
    band = resolved_band(grid)
    Q = max_shell(grid)
    per_q = {q: [] for q in range(0, Q + 1)}
    for i in range(5):
        u = random_band_field(grid, 200 + 3 * i, band)
        v = random_band_field(grid, 201 + 3 * i, band)
        h = random_band_field(grid, 202 + 3 * i, band)
        for q in range(0, Q + 1):
            rs = [
                cross_curl_bound_ratio(u, v, q),
                curl_cross_bound_ratio(u, v, q),
                trilinear_bound_ratio(u, v, h, q),
            ]
            if q >= 2:  # low_pass(q - 2) is empty below this
                rs.append(transport_bound_ratio(u, v, q, q))
            assert all(np.isfinite(r) and r >= 0 for r in rs)
            per_q[q].append(max(rs))
    maxima = np.array([max(v) for v in per_q.values()])
    assert maxima.max() / np.median(maxima) < 10.0


def test_transport_ratio_tests_zero_low_pass_first(grid, uv, monkeypatch):
    u, v = uv
    # at p = 2, low_pass(u, 0) is nonzero: the ratio is the unchanged formula
    u_low, v_p = low_pass(u, 0), project_shell(v, 2)
    formula = lp_norm(commutator_transport(u_low, v_p, 2), 2) / (
        paraproduct._sup_gradient(u_low) * lp_norm(v_p, 2)
    )
    assert transport_bound_ratio(u, v, 2, 2) == formula
    formed = []
    for name in ("_sup_gradient_of", "_sup_gradient", "lp_norm"):
        monkeypatch.setattr(paraproduct, name, lambda *args, name=name: formed.append(name))
    # u is mean-free, so low_pass(u, p - 2) is zero at p = 0 and 1
    for p in (0, 1):
        with pytest.raises(ValueError, match="^undefined ratio: zero denominator$"):
            transport_bound_ratio(u, v, p, p)
    assert formed == []


def test_bound_ratio_zero_denominator(grid, uv):
    z = SpectralField.zero(grid, 3)
    with pytest.raises(ValueError, match="zero denominator"):
        cross_curl_bound_ratio(z, z, 1)
    # a zero u zeroes both denominators of the sweep
    u, v = uv
    with pytest.raises(ValueError, match="^undefined ratio: zero denominator$"):
        commutator_ratios(z, v, u, range(0, max_shell(grid) + 1))


def test_trilinear_ratio_holds_three_derivatives_at_a_time():
    # the fields of criterion 3's first seed triple; the 27 second
    # derivatives of u, all at once, took 14.42 MiB
    g = Grid(3, 32)
    band = resolved_band(g)
    u, v, h = (random_band_field(g, seed, band) for seed in (6100, 6101, 6102))
    expected = trilinear_bound_ratio(u, v, h, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert trilinear_bound_ratio(u, v, h, 1) == expected
        peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 9.0


def test_sampled_l1_norm_is_the_plain_integral_on_cancellation_integrands(grid, uv):
    # sqrt(x^2) == |x| for every double whose square neither underflows nor
    # overflows, so the one quadrature gives uniqueness's L^1 integrals exactly
    u, v = uv
    b = random_band_field(grid, 103, resolved_band(grid))
    cv = curl(v)
    for t, f in ((advect(u, v), v), (advect(u, b), b), (cross(cv, b), cv), (advect(b, v), u)):
        x = _dot_phys(t, f)
        want = np.abs(x).sum() * grid.cell_volume
        assert spectral._sampled_norm(grid, lambda: (x[None],), sup=False) == want > 0
