#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds 20] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark `--runs` times per workload, each with another seed,
and prints per metric the median and the interquartile range as a share
of the median (Python's `statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json. Every result line is appended to
`.perfbench/spread.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    log = open(os.path.join(ROOT, ".perfbench", "spread.jsonl"), "a")

    ok = True
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            probe = [float(l.split()[1].rstrip(")")) for l in lines if l.strip().startswith("(host.probe_ms")]
            log.write(json.dumps({"workload": workload, "seed": seed, "host_probe_ms": probe[0] if probe else None, **result}) + "\n")
            log.flush()
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops\n{out.stderr}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:<22} median {med:14.4f}  iqr/median {spread:7.4f}  bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
