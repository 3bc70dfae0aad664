"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20 [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one after another,
and prints for every metric its median and its spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median.  ``--out`` saves every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()
    table = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} " + " ".join(
                      f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                  flush=True)
        table[name] = {"runs": runs, "metrics": {}}
        for metric, unit, _ in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary = {"unit": unit, "median": statistics.median(values),
                       "spread": spread(values) if len(values) > 1 else 0.0,
                       "values": values}
            table[name]["metrics"][metric] = summary
            print(f"  {name} {metric}: median {summary['median']:.5g} {unit}, "
                  f"spread {summary['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
