"""nilregular benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tau_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; ``--workload all`` runs every workload in turn.
Times are scaled to the reference speed of ``probe.speed_probe``, a fixed
loop timed next to every op and every set-up (see README.md).  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for a reader.  nilregular is imported from ``src/`` of
this checkout only: without it the run exits with code 2 and no result.

Every pass runs in a fresh single-threaded interpreter with ``workers=1``
(see README.md for why), so nilregular's caches start cold in each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from probe import scaled, speed_probe
from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("work_per_s", "work/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
)

SETUP_SAMPLES = 21       # fresh interpreters timed per run for setup_s
WARM_PROBES = 5          # untimed speed probes before the first timed one
CHILD_TIMEOUT_S = 170    # no pass may outlive the run's own limit


class BenchmarkError(RuntimeError):
    """A pass could not run or produced no result."""


def _child(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args[0]} timed out after {exc.timeout} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"{' '.join(args)} exited {done.returncode}: "
                             f"{done.stderr.strip()[-2000:]}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, scaled by speed probes run in
    this process before the first and after each, and raw.  Each probe
    reading is the median of three, as one 3.5 ms probe is noisier than a
    70 ms import."""
    def speed() -> float:
        return statistics.median(speed_probe() for _ in range(3))

    for _ in range(WARM_PROBES):
        speed_probe()
    probes = [speed()]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(float(_child([str(HERE / "probe.py"), workload])))
        probes.append(speed())
    return scaled(raw, probes), raw


def worker_pass(workload: str, seed: int, *options: str) -> dict:
    result = json.loads(_child([str(HERE / "worker.py"), workload,
                                "--seed", str(seed), *options]))
    if not Path(result["nilregular"]).is_relative_to(SRC):
        raise BenchmarkError(f"imported nilregular from {result['nilregular']}, "
                             f"not from {SRC}")
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, list]:
    setup, raw_setup = setup_seconds(name)
    result = worker_pass(name, seed, "--seconds", str(seconds))
    records = result["records"]
    ms = [r[0] for r in records]
    failed = sum(1 for r in records if not r[1])
    metrics = {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": percentile(ms, 90),
        "work_per_s": sum(r[2] for r in records) / max(sum(ms) / 1000.0, 1e-9),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": (len(records) - failed) / len(records),
    }
    beyond = sum(1 for v in ms if v > metrics["op_ms.p90"])
    notes = [f"{len(records)} ops, {beyond} beyond p90; "
             f"work unit: {WORKLOADS[name].unit}; setup samples: {len(setup)}; "
             f"raw op_ms.p50 {statistics.median(result['raw_ms']):.6g}, "
             f"raw setup_s {statistics.median(raw_setup):.6g}; "
             f"speed probe {result['probe_s'] * 1000:.4g} ms"]
    return _result(records, metrics, END_TO_END), notes


def traced(name: str, seed: int) -> tuple[dict, list]:
    """A traced pass between two untraced passes over the same fixed ops:
    per-layer metrics from the traced one, overhead from its op time over
    the mean of the other two (which cancels a machine speed drifting
    steadily during the run)."""
    rounds = ["--rounds", str(WORKLOADS[name].trace_rounds)]
    spans = HERE / "out" / f"spans-{name}-seed{seed}.tsv.gz"
    spans.parent.mkdir(exist_ok=True)
    before = worker_pass(name, seed, *rounds)["records"]
    with_trace = worker_pass(name, seed, *rounds, "--trace", "--spans", str(spans))
    after = worker_pass(name, seed, *rounds)["records"]
    records = with_trace["records"]
    metrics = dict(with_trace["per_layer"])
    untraced_s = (sum(r[0] for r in before) + sum(r[0] for r in after)) / 2
    metrics["trace.overhead_ratio"] = sum(r[0] for r in records) / untraced_s
    same = [r[1:] for r in records] == [r[1:] for r in before] == [r[1:] for r in after]
    notes = [f"{len(records)} ops in {rounds[1]} rounds; verdicts "
             f"{'identical' if same else 'DIFFER'} with and without tracing; "
             f"spans in {spans.relative_to(ROOT)}"]
    result = _result(records, metrics, PER_LAYER)
    result["correct"] = result["correct"] and same
    return result, notes


def _result(records: list, metrics: dict, table) -> dict:
    failed = sum(1 for r in records if not r[1])
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit, _ in table}}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    result, notes = traced(name, seed) if trace else end_to_end(name, seed, seconds)
    print(f"# {name} seed {seed}: {'; '.join(notes)}")
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} = {value['value']:.6g} {value['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nilregular benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nilregular" / "__init__.py").is_file():
        print(f"error: no nilregular sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{name}/{metric}": value for name, r in results.items()
                               for metric, value in r["metrics"].items()}}
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
