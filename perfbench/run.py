"""hallmhd benchmark: four workloads driven from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload beltrami32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

A run repeats the workload's operation until ``--seconds`` have passed.
Each phase of an operation (``simulate32`` has two, the others one) runs in
a fresh process (op.py) that also checks its outputs and times a fixed
reference kernel (reference.py) before and after.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment record and every
metric by name and unit.

``--trace 0`` reports the end-to-end metrics, each the median over the run's
operations: ``setup_s`` (process start to the end of set-up), ``wall_norm_s``
(the timed phases, each scaled by REF_SECONDS over the reference kernel's
time in its process, which takes out the drift in machine speed) and
``peak_rss_mb``.  The unscaled ``wall_s`` is printed too.  ``--trace 1``
alternates untraced and traced operations and reports per-operation layer
metrics from spans around every public hallmhd function, plus
``trace.overhead_s`` (median traced minus median untraced ``wall_norm_s``).

FFT and BLAS threads are pinned to one (``HMHD_THREADS=1``), so a run uses
one core.  Run directories live under ``.perfbench/tmp/`` and are removed
when the run ends; the full result goes to ``.perfbench/results/`` and the
spans of the last traced operation to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from envinfo import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("beltrami32", "turbulence64", "simulate32", "verify32")
OP_TIMEOUT_S = 120
# nominal reference-kernel time, which turns wall / kernel time back into seconds
REF_SECONDS = 0.5

_SPECTRAL = ("half_to_full", "to_physical", "to_spectral", "advect", "cross", "curl",
             "lp_norm", "leray_project")
_LP = ("project_shell", "low_pass", "decompose", "dyadic_sobolev_norm", "gradient_shell_norm")
_PARA = ("bony_split", "transport_bound_ratio", "cross_curl_bound_ratio",
         "curl_cross_bound_ratio", "trilinear_bound_ratio")
_CHECKS = ("check_partition_of_unity", "check_shell_reconstruction", "check_bony_identity",
           "check_commutators_vanish", "check_commutator_ratio_sweeps",
           "check_bernstein_sweep", "check_cancellations")

# traced function -> per-operation statistics reported for it; "fields" and
# "bytes" are the quantity the tracer records on its spans
LAYERS = {
    "spectral.irfftn_batch": ("calls", "fields", "self_s"),
    "spectral.rfftn_batch": ("calls", "fields", "self_s"),
    **{f"spectral.{f}": ("calls", "self_s") for f in _SPECTRAL},
    "solver.step": ("calls", "self_s"),
    "solver.run": ("self_s",),
    **{f"littlewood_paley.{f}": ("calls", "self_s") for f in _LP},
    **{f"paraproduct.{f}": ("calls", "self_s") for f in _PARA},
    **{f"diagnostics.{f}": ("calls", "s") for f in
       ("shell_energies", "flux_terms", "energy_balance_residual")},
    "snapshots.write_snapshot": ("calls", "s", "bytes"),
    "snapshots.read_snapshot": ("calls", "s", "bytes"),
    "snapshots.write_diagnostics": ("s",),
    "uniqueness.cancellation_check": ("s",),
    **{f"verification.{c}": ("s",) for c in _CHECKS},
}
_STAT_UNITS = {"calls": "count", "fields": "count", "bytes": "bytes", "s": "s", "self_s": "s"}
DERIVED = {
    "solver.fft_fields_per_rhs": "fields/rhs",
    "diagnostics.flux_terms.useful_ratio": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {
        f"{fn}.{stat}": _STAT_UNITS[stat] for fn, stats in LAYERS.items() for stat in stats
    }
    units.update(DERIVED)
    return units


def _accumulate(totals, layers, scale=1.0):
    """Add per-function span totals into ``totals``, times multiplied by ``scale``."""
    for fn, st in layers.items():
        acc = totals.setdefault(fn, {})
        for key, value in st.items():
            if key in ("s", "self_s", "subtree_self_s"):
                value *= scale
            acc[key] = acc.get(key, 0) + value


def _run_phase(name, seed, op_dir, trace, phase):
    """One phase in a fresh process (op.py); its result record, or None."""
    env = dict(os.environ, PERFBENCH_T0=repr(time.perf_counter()))
    cmd = [sys.executable, os.path.join(HERE, "op.py"), name, str(seed), op_dir, str(int(trace))]
    try:
        proc = subprocess.run(
            cmd + ([phase] if phase else []),
            capture_output=True, text=True, timeout=OP_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{name}: a phase timed out after {OP_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def _run_op(name, seed, op_dir, trace):
    """One operation: its phases in turn, each in a fresh process.

    Each phase's times are scaled by ``REF_SECONDS / ref_s``, the reference
    kernel's nominal over its measured time in that phase's process.
    """
    op = {"trace": trace, "phases": {}, "wall_norm": 0.0, "failures": [], "layers": {}}
    phase = None
    while True:
        rec = _run_phase(name, seed, op_dir, trace, phase)
        if rec is None or rec["seconds"] is None:
            op["phases"] = None
            op["failures"] += rec["failures"] if rec else [f"op.py failed in phase {phase or 1}"]
            return op
        speed = REF_SECONDS / rec["ref_s"]
        op["phases"][rec["phase"] + "_s"] = rec["seconds"]
        op["wall_norm"] += rec["seconds"] * speed
        op["failures"] += rec["failures"]
        op.setdefault("setup_s", rec["setup_s"])
        op.setdefault("env", rec["env"])
        op.setdefault("refs", []).append(rec["ref_s"])
        op["peak_rss_mb"] = max(op.get("peak_rss_mb", 0.0), rec["peak_rss_mb"])
        _accumulate(op["layers"], rec.get("layers", {}), speed)
        if rec["next"] is None:
            return op
        phase = rec["next"]


def _repeat(name, seed, seconds, trace, workdir):
    """Repeat rounds of operations until ``seconds`` have passed.

    With tracing, a round is an untraced operation followed by a traced one,
    so drift in machine speed affects both kinds alike.
    """
    kinds = (False, True) if trace else (False,)
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        for traced in kinds:
            op_dir = os.path.join(workdir, f"op{len(ops)}")
            os.makedirs(op_dir)
            ops.append(_run_op(name, seed, op_dir, traced))
            if traced:
                spans_dir = os.path.join(SCRATCH, "spans")
                os.makedirs(spans_dir, exist_ok=True)
                for f in os.listdir(op_dir):
                    if f.startswith("spans-"):
                        shutil.move(os.path.join(op_dir, f),
                                    os.path.join(spans_dir, f"{name}-seed{seed}-{f[6:]}"))
            shutil.rmtree(op_dir, ignore_errors=True)
    for op in ops:
        for msg in op["failures"]:
            print(f"FAILED {name}: {msg}", file=sys.stderr)
    return ops


def _median(ops, key):
    values = [key(op) for op in ops if op["phases"] is not None]
    return statistics.median(values) if values else None


def _wall(op):
    return sum(op["phases"].values())


def _wall_norm(op):
    return op["wall_norm"]


def _layer_metrics(traced, overhead_s):
    """Per-operation layer metrics from the span totals of the traced operations.

    Times are scaled to the reference kernel's nominal speed, as wall_norm_s is.
    """
    n = len(traced)
    totals = {}
    for op in traced:
        _accumulate(totals, op["layers"])

    def total(fn, key):
        return totals.get(fn, {}).get(key, 0)

    values = {}
    for fn, wanted in LAYERS.items():
        for stat in wanted:
            values[f"{fn}.{stat}"] = total(fn, "qty" if stat in ("fields", "bytes") else stat) / n
    steps = total("solver.step", "calls")
    values["solver.fft_fields_per_rhs"] = (
        total("solver.step", "fields_under_step") / (4 * steps) if steps else 0.0
    )
    # useful flux_terms calls: one per snapshot per command that writes CSVs
    flux_calls = total("diagnostics.flux_terms", "calls")
    useful = total("snapshots.write_snapshot", "calls") * total("snapshots.write_diagnostics", "calls") / n
    values["diagnostics.flux_terms.useful_ratio"] = useful / flux_calls if flux_calls else 0.0
    values["trace.overhead_s"] = overhead_s
    extras = {
        "solver.step.s": (total("solver.step", "s") / n, "s"),
        "solver.step.subtree_self_s": (total("solver.step", "subtree_self_s") / n, "s"),
    }
    return values, extras


def run_one(args) -> int:
    seed = args.seed % 2**31
    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(SCRATCH, "tmp"))
    try:
        ops = _repeat(args.workload, seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["failures"])
    wall_s = _median(ops, _wall)
    if wall_s is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    env = next(op["env"] for op in ops if op["phases"] is not None)
    extras = {
        "ops_total": (len(ops), "count"),
        "ops_failed": (failed, "count"),
        "wall_s": (wall_s, "s"),
        "ref_s": (_median(ops, lambda op: statistics.fmean(op["refs"])), "s"),
    }
    if args.trace:
        plain_wall = _median([op for op in ops if not op["trace"]], _wall_norm)
        traced = [op for op in ops if op["trace"] and op["phases"] is not None]
        if plain_wall is None or not traced:
            print("error: no untraced and traced pair of operations completed", file=sys.stderr)
            return 1
        values, step_extras = _layer_metrics(traced, _median(traced, _wall_norm) - plain_wall)
        metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
        extras.update(step_extras)
    else:
        metrics = {
            "setup_s": (_median(ops, lambda op: op["setup_s"]), "s"),
            "wall_norm_s": (_median(ops, _wall_norm), "s"),
            "peak_rss_mb": (_median(ops, lambda op: op["peak_rss_mb"]), "MB"),
        }
        for phase in next(op["phases"] for op in ops if op["phases"] is not None):
            extras[phase] = (_median(ops, lambda op: op["phases"][phase]), "s")
        if env.get("steps"):
            extras["steps_per_s"] = (env["steps"] / wall_s, "1/s")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(SCRATCH, "results"), exist_ok=True)
    record = os.path.join(SCRATCH, "results", f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env,
                   "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()}},
                  fh, indent=1)
    print("env " + json.dumps(env))
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in turn; never two at once."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = proc.returncode or 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hallmhd", "__init__.py")):
        print(f"error: no hallmhd sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
