"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads wide_session audit --seeds 1 2 3 4 5

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for each end-to-end metric its median and the distance between the
first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json. Every run lasts BENCHMARK.json's run_seconds.
The summary gives the largest spread as a share of its bound twice: over
the metrics the spread gate applies to, and for setup_s on its own.
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
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    worst = {"gated": 0.0, "setup_s": 0.0}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=180, check=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            share = (q3 - q1) / median
            key = "setup_s" if metric["name"] == "setup_s" else "gated"
            worst[key] = max(worst[key], share / metric["bound"])
            print(f"{workload:<14} {metric['name']:<14} median {median:12.4f} {metric['unit']:<4} "
                  f"IQR/median {share:7.4f}  bound {metric['bound']}")
    print(f"largest spread as a share of its bound, setup_s excluded: {worst['gated']:.3f}")
    print(f"largest spread of setup_s as a share of its bound (not gated): {worst['setup_s']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
