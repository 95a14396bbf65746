"""Command-line front end: simulate, verify, scaling, uniqueness, analyze."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import load_config
from .diagnostics import existence_time, scaling_check
from .snapshots import (
    list_snapshots, snapshot_name, state_records, write_csvs, write_diagnostics, write_snapshot,
)
from .solver import BlowUpError, RunLog, State, run, trajectory
from .spectral import SpectralField, dealias_cutoff
from .uniqueness import gronwall_check
from .verification import run_verification


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    # built first, so that data that cannot be made leaves no --out behind
    initial = cfg.initial_state()
    # one run per directory: write_diagnostics reads every snapshot there
    found = list_snapshots(args.out) if os.path.isdir(args.out) else []
    if found:
        raise ValueError(
            f"--out: {args.out} already holds {len(found)} snapshot(s) of an earlier run; "
            "choose a new or empty directory"
        )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())

    records = []  # each state's CSV rows, as analyze reduces them from its snapshot

    def sink(step, state):
        write_snapshot(os.path.join(args.out, snapshot_name(step)), state)
        records.append(state_records(state, cfg))

    try:
        final, log = run(initial, cfg.solver_config(), sinks=[sink])
    except BlowUpError:
        # keep the evidence: the CSVs of the snapshots written before the blow-up
        if records:
            write_csvs(args.out, cfg, records)
        raise
    write_csvs(args.out, cfg, records)
    print(f"final time t={final.t:.17g}")
    if log.halted:
        print(f"halted early: {log.halt_reason}")
    if log.projection_drift:
        worst = max(d for _, d in log.projection_drift)
        print(f"max safety-projection magnitude on b: {worst:.3e}")
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    results = run_verification(cfg)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        all_ok &= r.passed
    return 0 if all_ok else 1


def _cmd_scaling(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.grid()
    # a random draw must fit the 2/3 cube of the grid shrunk by lambda
    limit = dealias_cutoff(grid.dims) / args.lam - 1.0
    if cfg["init.kind"] == "random_band" and limit < 1.0:
        raise ValueError(
            f"--lambda: {args.lam} leaves no modes on grid.dims = {grid.dims}: the band "
            f"dealias_cutoff / lambda - 1 = {limit:.3g} is below 1; use a larger grid.dims"
        )
    cfg.values["init.band"] = min(cfg["init.band"] or limit, limit)
    initial = cfg.initial_state()
    mode = "mhd" if args.mode == "mhd" else "hall_only"
    residual = scaling_check(mode, args.lam, initial, cfg.solver_config())
    print(f"scaling residual (mode={mode}, lambda={args.lam}): {residual:.17g}")
    return 0


def _cmd_uniqueness(args) -> int:
    if not np.isfinite(args.perturb):
        raise ValueError(f"--perturb: must be a finite number, got {args.perturb!r}")
    cfg = load_config(args.config)
    solver_cfg = cfg.solver_config()
    initial = cfg.initial_state()
    perturbed = State(
        SpectralField(initial.grid, initial.u.coeffs * (1.0 + args.perturb)),
        SpectralField(initial.grid, initial.b.coeffs * (1.0 + args.perturb)),
        0.0,
    )

    # the two runs advance in turn, and each snapshot pair is reduced as it is made
    logs = {"reference": RunLog(), "perturbed": RunLog()}
    run1, run2 = (
        (st for _, st in trajectory(start, solver_cfg, log))
        for start, log in zip((initial, perturbed), logs.values())
    )

    def halts():
        return [f"{name} run halted early: {log.halt_reason}"
                for name, log in logs.items() if log.halted]

    C_nu_mu = cfg["calibration.C_nu_mu"]
    try:
        result = gronwall_check(run1, run2, cfg.sobolev(), cfg["calibration.C"], C_nu_mu)
    except ValueError:
        # the runs step alike, so their traces part only where the guard halts one
        if halts():
            raise ValueError("; ".join(halts())) from None
        raise
    if C_nu_mu <= 0:
        C_nu_mu = result.minimal_C_nu_mu
    passed = result.holds(C_nu_mu)
    print(f"difference energy at t=0: {result.energy[0]:.17g}")
    print(f"difference energy at t={result.t[-1]:.17g}: {result.energy[-1]:.17g}")
    print(f"minimal passing C_nu_mu: {result.minimal_C_nu_mu:.17g}")
    print(f"gronwall bound {'holds' if passed else 'VIOLATED'} with C_nu_mu={C_nu_mu:.17g}")
    for line in halts():
        print(line)
    return 0 if passed else 1


def _cmd_analyze(args) -> int:
    cfg = load_config(os.path.join(args.run, "config.txt"))
    energies, _, ru, rb = write_diagnostics(args.run, cfg, out_dir=args.out)
    # psi0 = ||u0||_{H^s}^2 + ||b0||_{H^r}^2, the dyadic sums of the first record
    psi0 = float(energies[0].e_u.sum() + energies[0].e_b.sum())
    horizon = energies[-1].t
    if psi0 > 0:
        est = existence_time(
            psi0, cfg["calibration.C"], cfg["calibration.gamma_low"],
            cfg["calibration.gamma_high"],
        )
        print(f"predicted existence time T={est.T:.17g}, observed horizon {horizon:.17g}")
    else:
        print(f"zero initial data; observed horizon {horizon:.17g}")
    if len(energies) >= 3:
        print(f"max energy-balance residual: u {np.max(ru):.3e}, b {np.max(rb):.3e}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main reports on one line (exit 2)."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hmhd",
        description="Pseudo-spectral Hall-MHD solver and verification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the solver, write snapshots + CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the identity and estimate sweeps")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scaling", help="check a rescaling symmetry")
    p.add_argument("--mode", choices=["mhd", "hall"], required=True)
    p.add_argument("--lambda", dest="lam", type=int, choices=[2, 4], required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("uniqueness", help="paired runs + Gronwall report")
    p.add_argument("--config", required=True)
    p.add_argument("--perturb", type=float, required=True)
    p.set_defaults(func=_cmd_uniqueness)

    p = sub.add_parser("analyze", help="recompute diagnostics from snapshots")
    p.add_argument("--run", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, BlowUpError, MemoryError) as exc:
        # a bare MemoryError() has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
