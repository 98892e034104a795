"""Run-to-run spread of the end-to-end metrics.

    python3 ckbench/spread.py --workload files --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, with the settings in
BENCHMARK.json, and prints for each end-to-end metric the median of the
runs and the distance between their first and third quartiles as a share
of the median, next to the metric's bound.  A spread under a third of the
bound is marked ok.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("give at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        runs.append(run_once(spec["command"], args.workload, seed,
                             spec["run_seconds"]))
        print(f"seed {seed} ({time.perf_counter() - start:.0f} s): "
              + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{name:<16} median {med:<12.6g} spread {spread:7.2%} "
              f"bound {metric['bound']:.0%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
