"""Run-to-run spread of the end-to-end metrics across seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --workload theorem0-sweep

Runs perfbench/run.py once for each of seeds 1-10, one run at a time, with
the command and run length from BENCHMARK.json, and prints for each
end-to-end metric its median and its spread: the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in SEEDS:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode:
            print(out.stdout + out.stderr, file=sys.stderr)
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {vals}", flush=True)
    print(f"{args.workload}: {len(runs)} runs")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {metric['name']}: median {med:.6g} {metric['unit']}, "
              f"spread {(q3 - q1) / med:.4f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
