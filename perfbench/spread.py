#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median and the interquartile range as a share of
the median (``statistics.quantiles(values, n=4)``), next to a third of
the metric's bound: WIDE marks a spread of at least a third of the bound,
OVER one past the bound, which also makes the exit status 1 (as does an
incorrect or failed run). Run from the repository root:

    python3 perfbench/spread.py --workloads kron-1gpu road-1gpu --seeds 1-10

``--out FILE`` also writes every run's JSON line to FILE, one per line.
``--against FILE`` compares each median with that of an earlier ``--out``
file of the same workloads and seeds: DRIFT marks a median worse than the
earlier one by more than the bound, which also makes the exit status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"] for m in bench["end_to_end"] if m["better"] == "lower"}
    earlier = {}
    for line in open(args.against) if args.against else []:
        r = json.loads(line)
        for name, m in r["metrics"].items():
            earlier.setdefault((r["workload"], name), []).append(m["value"])
    out = open(args.out, "a") if args.out else None
    ok = True
    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            if out:
                out.write(json.dumps({"workload": w, "seed": seed, **result}) + "\n")
                out.flush()
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(args.seeds)} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                # Past the bound the benchmark is refused; past a third of
                # it the run-to-run noise leaves little room for a change.
                flag = "  OVER" if spread > bound else "  WIDE" if spread >= bound / 3 else ""
                ok &= spread <= bound
            drift = ""
            before = earlier.get((w, name))
            if before and bound is not None:
                old = statistics.median(before)
                worse = (med - old) / old if name in lower_better else (old - med) / old
                drift = f"  vs {old:.6g} worse {worse:+.4f}" + ("  DRIFT" if worse > bound else "")
                ok &= worse <= bound
            third = (bound or 0.0) / 3
            print(f"  {name:<26} median {med:<14.6g} spread {spread:7.4f}  bound/3 {third:.4f}{flag}{drift}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
