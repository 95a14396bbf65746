"""Difference system: cancellations and the Gronwall envelope."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from hallmhd import (
    Grid,
    PhysicalParams,
    SobolevParams,
    SolverConfig,
    State,
    make_initial,
    run,
)
from hallmhd.solver import RunLog, trajectory
from hallmhd.littlewood_paley import resolved_band
from hallmhd.random_fields import random_band_field
from hallmhd.spectral import (
    SpectralField,
    gradient,
    lp_norm,
    to_physical,
    to_spectral,
)
from hallmhd.uniqueness import cancellation_check, gronwall_check

SOB = SobolevParams(1.0, 1.75, 0.25)
PARAMS = PhysicalParams(0.05, 0.05, 0.1)


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 32)


@pytest.fixture(scope="module")
def fields(grid):
    band = resolved_band(grid)
    return {name: random_band_field(grid, 900 + i, band)
            for i, name in enumerate(["u1", "b1", "u2", "b2"])}


def test_cancellations_small(grid, fields):
    band = resolved_band(grid)
    U = random_band_field(grid, 910, band)
    B = random_band_field(grid, 911, band)
    rs = cancellation_check(U, B, fields["u2"], fields["b1"], fields["b2"])
    assert len(rs) == 4
    assert max(rs) < 1e-10


def test_cancellations_zero_fields(grid):
    z = SpectralField.zero(grid, 3)
    assert cancellation_check(z, z, z, z, z) == (0.0, 0.0, 0.0, 0.0)


def test_cancellation_negative_control(grid, fields):
    band = resolved_band(grid)
    U = random_band_field(grid, 912, band)
    B = random_band_field(grid, 913, band)
    # potential correlated with |U|^2 so the transport identity's numerator
    # cannot average away against the broadband energy density
    e = (to_physical(U) ** 2).sum(axis=0)
    ehat = to_spectral(grid, e)
    pot = SpectralField(
        grid, np.where(grid.ksq > 0, -ehat.coeffs / np.maximum(grid.ksq, 1e-300), 0.0)
    )
    bump = gradient(pot)
    contaminated = fields["u2"] + bump * (lp_norm(fields["u2"], 2) / lp_norm(bump, 2))
    rs = cancellation_check(U, B, contaminated, fields["b1"], fields["b2"])
    assert rs[0] > 1e-2


def _paired_starts(grid, eps, dt=1e-3):
    st = make_initial("random_band", grid, 920, (1.0, 1.0), SOB)
    pert = State(
        SpectralField(grid, st.u.coeffs * (1.0 + eps)),
        SpectralField(grid, st.b.coeffs * (1.0 + eps)),
        0.0,
    )
    cfg = SolverConfig(PARAMS, SOB, dt, 0.01, snapshot_every=max(1, round(1e-3 / dt)))
    return st, pert, cfg


def _paired_runs(grid, eps, dt=1e-3):
    st, pert, cfg = _paired_starts(grid, eps, dt)
    t1, t2 = [], []
    run(st, cfg, sinks=[lambda i, s: t1.append(s.copy())])
    run(pert, cfg, sinks=[lambda i, s: t2.append(s.copy())])
    return t1, t2


def test_gronwall_identical_runs(grid):
    t1, t2 = _paired_runs(grid, 0.0)
    trace = gronwall_check(t1, t2, SOB, 1.0, 1.0)
    assert trace.passed
    assert np.all(trace.energy == 0.0)
    assert trace.minimal_C_nu_mu == 0.0


def test_gronwall_perturbed_run(grid):
    t1, t2 = _paired_runs(grid, 1e-6)
    probe = gronwall_check(t1, t2, SOB, 1.0, 1.0)
    assert probe.energy[0] > 0
    assert np.isfinite(probe.minimal_C_nu_mu)
    # with the reported minimal constant (plus margin) the envelope holds
    final = gronwall_check(t1, t2, SOB, 1.0, probe.minimal_C_nu_mu * 1.001 + 1e-12)
    assert final.passed
    # an absurdly small constant fails whenever the difference grows
    if probe.minimal_C_nu_mu > 0:
        assert not gronwall_check(t1, t2, SOB, 1.0, 0.0).passed


def test_gronwall_passes_at_its_reported_minimal():
    # a growing pair whose plain ratio log(energy / energy(0)) / exponent
    # rounds below what the comparison accepts
    g = Grid(3, 16)
    st = make_initial("random_band", g, 3, (80.0, 80.0), SOB)
    pert = State(*(SpectralField(g, f.coeffs * (1.0 + 1e-6)) for f in (st.u, st.b)), 0.0)
    cfg = SolverConfig(PhysicalParams(0.005, 0.005, 0.1), SOB, 1e-3, 0.02)
    t1, t2 = [], []
    run(st, cfg, sinks=[lambda i, s: t1.append(s.copy())])
    run(pert, cfg, sinks=[lambda i, s: t2.append(s.copy())])
    minimal = gronwall_check(t1, t2, SOB, 1.0, 1.0).minimal_C_nu_mu
    trace = gronwall_check(t1, t2, SOB, 1.0, minimal)
    assert trace.energy[-1] > trace.energy[0] and minimal > 0
    assert trace.passed and trace.minimal_C_nu_mu == minimal
    assert not gronwall_check(t1, t2, SOB, 1.0, minimal * (1 - 1e-9)).passed


def test_gronwall_mismatched_traces(grid):
    t1, t2 = _paired_runs(grid, 0.0)
    with pytest.raises(ValueError, match="trace lengths"):
        gronwall_check(t1, t2[:-1], SOB, 1.0, 1.0)
    shifted = [State(s.u, s.b, s.t + 0.5) for s in t2]
    with pytest.raises(ValueError, match="time grids"):
        gronwall_check(t1, shifted, SOB, 1.0, 1.0)


def test_gronwall_rejects_empty_traces():
    with pytest.raises(ValueError, match="^no states to compare: both runs are empty$"):
        gronwall_check([], [], SOB, 1.0, 0.0)


def _stream(start, cfg):
    return (s for _, s in trajectory(start, cfg, RunLog()))


def _one_at_a_time(states):
    """Yield a copy of each state; fail if the consumer still holds the
    previous copy when it asks for the next."""
    held = None
    for s in states:
        assert held is None or held() is None, "the previous state is still held"
        box = [s.copy()]
        held = weakref.ref(box[0])
        yield box.pop()  # so that this frame keeps no reference to the copy
    assert held() is None, "the last state is still held"


def test_gronwall_streams_equal_lists():
    # the growing pair of test_gronwall_passes_at_its_reported_minimal, so
    # that the envelope fails at C_nu_mu = 0 and the minimal constant is not 0
    g = Grid(3, 16)
    st = make_initial("random_band", g, 3, (80.0, 80.0), SOB)
    pert = State(*(SpectralField(g, f.coeffs * (1.0 + 1e-6)) for f in (st.u, st.b)), 0.0)
    cfg = SolverConfig(PhysicalParams(0.005, 0.005, 0.1), SOB, 1e-3, 0.02, snapshot_every=1)
    t1, t2 = [], []
    run(st, cfg, sinks=[lambda i, s: t1.append(s.copy())])
    run(pert, cfg, sinks=[lambda i, s: t2.append(s.copy())])
    for C_nu_mu, passed in ((0.0, False), (1.0, True)):
        listed = gronwall_check(t1, t2, SOB, 1.0, C_nu_mu)
        streamed = gronwall_check(_stream(st, cfg), _stream(pert, cfg), SOB, 1.0, C_nu_mu)
        assert len(streamed.t) == len(t1) == 21
        assert np.array_equal(streamed.t, listed.t)
        assert np.array_equal(streamed.energy, listed.energy)
        assert streamed.passed == listed.passed == listed.holds(C_nu_mu) == passed
        assert streamed.minimal_C_nu_mu == listed.minimal_C_nu_mu > 0
        assert streamed.holds(streamed.minimal_C_nu_mu)


def test_gronwall_holds_one_pair_at_a_time(grid):
    t1, t2 = _paired_runs(grid, 1e-6)
    streamed = gronwall_check(_one_at_a_time(t1), _one_at_a_time(t2), SOB, 1.0, 1.0)
    listed = gronwall_check(t1, t2, SOB, 1.0, 1.0)
    assert np.array_equal(streamed.energy, listed.energy)


@pytest.mark.parametrize("longer", [0, 1])
def test_gronwall_streams_of_unequal_length(grid, longer):
    # a run that ends a step early, as one halted by the blow-up guard does
    st, _, cfg = _paired_starts(grid, 0.0)
    runs = [_stream(st, replace(cfg, tmax=0.009)), _stream(st, replace(cfg, tmax=0.009))]
    runs[longer] = _stream(st, cfg)
    with pytest.raises(ValueError, match="mismatched trace lengths"):
        gronwall_check(*runs, SOB, 1.0, 1.0)
