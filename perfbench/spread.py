"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads verify32 --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace --out perfbench/baseline.json

For every workload and seed this runs ``run.py`` once (untraced), one run at a
time, then prints for each end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median next
to a third of the metric's bound in BENCHMARK.json.  ``--trace`` adds one
traced run per workload on the first seed.  ``--out`` writes all of it as
JSON, the form of perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    record = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, args.seconds, False) for seed in _seeds(args.seeds)]
        entry = {
            "seeds": _seeds(args.seeds),
            "ops_total": sum(r["attempted"] for r in runs),
            "ops_failed": sum(r["failed"] for r in runs),
            "end_to_end": {}, "extras": {},
        }
        print(f"{workload}: {len(runs)} runs, {entry['ops_total']} operations, "
              f"{entry['ops_failed']} failed")
        for name in bounds:
            s = _summary([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {name:12s} median {s['median']:.4g} {s['unit']}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}  bound/3 {bounds[name] / 3:.3f}"
                  f"{'' if ok else '  NOT STEADY'}")
        for name, ex in runs[0]["extras"].items():
            if name not in ("ops_total", "ops_failed"):
                entry["extras"][name] = {
                    "median": statistics.median(r["extras"][name]["value"] for r in runs),
                    "unit": ex["unit"],
                }
        if args.trace:
            traced = _run(workload, entry["seeds"][0], args.seconds, True)
            entry["per_layer"] = {
                k: v for k, v in traced["metrics"].items() if v["value"] != 0
            }
        entry["env"] = runs[0]["env"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
