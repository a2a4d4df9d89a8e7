#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed, each in a fresh process, and prints for
every metric its median and its spread: the distance between the first
and third quartile (Python's statistics.quantiles, n=4) as a share of the
median. Run from the repository root:

    python3 benchmark/spread.py --workload paper-grid --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def benchmark_json():
    """BENCHMARK.json at the repository root: the command and its run length."""
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default=str(benchmark_json()["run_seconds"]))
    p.add_argument("--trace", default="0")
    p.add_argument("--bin", help="run this built binary instead of cargo run")
    args = p.parse_args()

    command = [args.bin] if args.bin else benchmark_json()["command"]
    values = {}
    units = {}
    for seed in args.seeds:
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, check=True, text=True,
            env=dict(os.environ)).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)

    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{args.workload:11s} {name:28s} median {med:12.6g} {units[name]:9s} "
              f"spread {spread:7.2%}  (n={len(vs)})")


if __name__ == "__main__":
    main()
