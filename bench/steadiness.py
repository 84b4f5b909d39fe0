"""Run-to-run steadiness of the end-to-end metrics, one fresh run per seed.

    python3 bench/steadiness.py --runs 10 [--workloads limit average] [--first-seed 100]

For each workload, runs ``bench/run.py --trace 0`` once per seed and prints,
for each end-to-end metric in BENCHMARK.json, the median and quartiles of
the per-run values and their spread (q3 - q1) / median next to the metric's
bound. A metric is steady when its spread is below a third of its bound
(``setup_s`` is exempt from the spread test). Exits 1 when a run fails or a
spread is too wide.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    status = 0
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                print("\n".join(line for line in proc.stdout.split("\n") if "FAILED" in line))
                status = 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.5g}" for name in values), flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            steady = name == "setup_s" or spread < metric["bound"] / 3
            if not steady:
                status = 1
            print(f"  {workload:<9} {name:<12} median {median:.5g} {metric['unit']:<3} "
                  f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f} bound {metric['bound']} "
                  f"{'ok' if steady else 'TOO WIDE'}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
