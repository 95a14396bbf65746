"""The four benchmark workloads, each driving hallmhd through its public API.

An operation is one or more phases, each run in a fresh process (op.py), as
a user runs one ``hmhd`` command per process.  In every phase process a
workload builds its inputs from the seed in ``setup`` (the set-up the
``setup_s`` metric covers), runs the phase in ``timed`` and checks that
phase's output in ``check``.  Only ``timed`` is measured and traced, so it
calls hallmhd through module attributes (``solver.run``, ``cli.main``),
which the tracer rebinds.  Solver workloads give ``steps`` per operation;
``state_bytes`` is the computed size of the spectral state.

Why these four: ``beltrami32`` is the u = 0 solver path and the runtime-capped
acceptance criterion 4; ``turbulence64`` is the full right-hand side with a
working set far beyond L2; ``simulate32`` is the user's simulate-then-analyze
sequence, dominated by diagnostics and snapshot I/O; ``verify32`` is the
Littlewood-Paley/paraproduct sweep, which takes no solver step at all.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np

from hallmhd import cli, solver
from hallmhd.config import load_config, parse_config
from hallmhd.littlewood_paley import SobolevParams
from hallmhd.snapshots import FLUX_CSV, SHELL_CSV
from hallmhd.solver import PhysicalParams, SolverConfig, divergence_drift, make_initial
from hallmhd.spectral import Grid, lp_norm, to_physical

# acceptance-criterion tolerances the checks reuse
BELTRAMI_TOL = 1e-8  # criterion 4, pointwise
DRIFT_TOL = 1e-8  # solver._check_divergence
RESIDUAL_TOL = 1e-3  # criterion 6, dyadic energy balance

COMPLEX_BYTES = 16


def _state_bytes(dims: int) -> int:
    """Bytes of the spectral state (u and b, 3 components each, complex128)."""
    return 2 * 3 * dims**3 * COMPLEX_BYTES


def _seed_lines(seed: int) -> str:
    return f"init.seed = {seed}\nsweep.seed = {seed}\n"


def _energy(state) -> float:
    return lp_norm(state.u, 2) ** 2 + lp_norm(state.b, 2) ** 2


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _exit_failures(command: str, code: int) -> list[str]:
    return [] if code == 0 else [f"{command} exit code {code}"]


class Beltrami32:
    name = "beltrami32"
    why = "u = 0 solver path (15 FFT fields per RHS), no diagnostics; the runtime-capped criterion-4 run"
    phases = ("run",)
    steps = 50
    state_bytes = _state_bytes(32)

    def setup(self, seed: int, workdir: str) -> None:
        # criterion 4: b0 = (0, sin x, cos x) is a Beltrami field, so the Hall
        # and transport terms vanish and b decays exactly as exp(-mu t)
        self.grid = Grid(3, 32)
        sob = SobolevParams.from_s_eps(1.0, 0.25)
        self.params = PhysicalParams(0.05, 0.1, 0.7)
        self.config = SolverConfig(
            self.params, sob, 1e-3, self.steps * 1e-3, snapshot_every=10**9
        )
        self.initial = make_initial("beltrami", self.grid, seed, None, sob)
        x = self.grid.coordinates()[0]
        self.profile = np.stack([np.zeros_like(x), np.sin(x), np.cos(x)])

    def timed(self, phase: str):
        return solver.run(self.initial, self.config)

    def check(self, phase: str, output) -> list[str]:
        final, log = output
        expected = math.exp(-self.params.mu * final.t) * self.profile
        err = max(
            float(np.abs(to_physical(final.b) - expected).max()),
            float(np.abs(to_physical(final.u)).max()),
        )
        failures = []
        if log.halted:
            failures.append(f"halted: {log.halt_reason}")
        if not err <= BELTRAMI_TOL:
            failures.append(f"pointwise error {err:.3e} > {BELTRAMI_TOL:g}")
        return failures


class Turbulence64:
    name = "turbulence64"
    why = "full 33-FFT RHS at 64^3: about 25 MB of spectral state against a 2 MB L2, so memory traffic shows"
    phases = ("run",)
    steps = 3
    state_bytes = _state_bytes(64)

    def setup(self, seed: int, workdir: str) -> None:
        cfg = parse_config(
            "grid.dims = 64\nsolver.mode = full\n"
            f"solver.tmax = {self.steps * 1e-3!r}\nsolver.snapshot_every = 1000000000\n"
            + _seed_lines(seed)
        )
        self.initial = cfg.initial_state()
        self.config = cfg.solver_config()
        self.energy0 = _energy(self.initial)

    def timed(self, phase: str):
        return solver.run(self.initial, self.config)

    def check(self, phase: str, output) -> list[str]:
        final, log = output
        failures = []
        if log.halted:
            failures.append(f"halted: {log.halt_reason}")
        if round(final.t / self.config.dt) != self.steps:
            failures.append(f"stopped at t={final.t}")
        for name, f in (("u", final.u), ("b", final.b)):
            drift = divergence_drift(f)
            if not drift <= DRIFT_TOL:
                failures.append(f"div {name} drift {drift:.3e} > {DRIFT_TOL:g}")
        energy = _energy(final)
        if not energy <= self.energy0:
            failures.append(f"energy grew: {energy!r} > {self.energy0!r}")
        return failures


class Simulate32:
    name = "simulate32"
    why = "hmhd simulate (snapshot_every 5) then analyze: solver, diagnostics and snapshot I/O as a user runs them"
    phases = ("simulate", "analyze")
    state_bytes = _state_bytes(32)

    def setup(self, seed: int, workdir: str) -> None:
        self.conf = os.path.join(workdir, "run.conf")
        self.sim = os.path.join(workdir, "simulate")
        self.ana = os.path.join(workdir, "analyze")
        with open(self.conf, "w", encoding="utf-8") as fh:
            fh.write("solver.snapshot_every = 5\n" + _seed_lines(seed))
        load_config(self.conf)

    def timed(self, phase: str):
        if phase == "simulate":
            return _cli(["simulate", "--config", self.conf, "--out", self.sim])[0]
        return _cli(["analyze", "--run", self.sim, "--out", self.ana])[0]

    def check(self, phase: str, code) -> list[str]:
        failures = _exit_failures(phase, code)
        if phase == "simulate" or failures:
            return failures
        for name in (SHELL_CSV, FLUX_CSV):
            with open(os.path.join(self.sim, name), "rb") as a, open(
                os.path.join(self.ana, name), "rb"
            ) as b:
                if a.read() != b.read():
                    failures.append(f"{name}: analyze output differs from simulate")
        with open(os.path.join(self.ana, FLUX_CSV), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        residuals = [float(r[k]) for r in rows for k in ("residual_u", "residual_b")]
        if not all(r <= RESIDUAL_TOL for r in residuals):
            failures.append(f"flux.csv residuals {residuals} exceed {RESIDUAL_TOL:g}")
        return failures


class Verify32:
    name = "verify32"
    why = "hmhd verify with sweep.size 5: Littlewood-Paley, Bony split and commutator sweeps, no solver step"
    phases = ("verify",)
    state_bytes = _state_bytes(32)

    def setup(self, seed: int, workdir: str) -> None:
        # a quarter of the default sweep, with the same mix of checks, so a
        # run holds three operations: with one 30 s operation per run, drift
        # in machine speed spread wall_norm_s by 13-19 % over ten seeds, and
        # with two (sweep.size 10) by 8 %
        self.conf = os.path.join(workdir, "verify.conf")
        with open(self.conf, "w", encoding="utf-8") as fh:
            fh.write("sweep.size = 5\n" + _seed_lines(seed))
        load_config(self.conf)

    def timed(self, phase: str):
        return _cli(["verify", "--config", self.conf])

    def check(self, phase: str, output) -> list[str]:
        code, text = output
        lines = [ln for ln in text.splitlines() if ln.strip()]
        failures = [ln for ln in lines if not ln.startswith("[PASS]")]
        failures += _exit_failures("verify", code)
        if not lines:
            failures.append("verify printed no checks")
        return failures


WORKLOADS = {w.name: w for w in (Beltrami32, Turbulence64, Simulate32, Verify32)}
