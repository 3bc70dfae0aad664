"""One measured pass of a workload, in its own interpreter.

Run as ``python3 worker.py <workload> --seed N (--seconds S | --rounds R)
[--trace] [--spans PATH]`` with nilregular importable.  Prints one JSON
line: the per-op records (op times scaled to the reference speed of
``probe.speed_probe``), the raw op times, the median speed probe, the
run's peak resident memory and, when traced, the per-layer metrics.  A
fresh interpreter per pass means nilregular's caches start cold, as they
do for every ``nilregular verify`` call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import probe
from tracer import Tracer
from workloads import WORKLOADS

# a run keeps going past its seconds until it has this many ops, so the
# 90th percentile has at least ten samples beyond it
MIN_OPS = 100
WARM_PROBES = 5  # untimed speed probes before the first op


def run_op(workload, op: dict, nr, ctx: dict, index: int, tracer: Tracer | None = None):
    """Prepare, time and check one op.  An op that raises is a failed op,
    never the end of the run.  Returns (ms, ok, work, digest)."""
    started = None
    try:
        call, state = workload.prepare(op, nr, ctx)
        started = time.perf_counter()
        answer = call() if tracer is None else tracer.run_op(index, call)
        ms = (time.perf_counter() - started) * 1000.0
    except Exception as exc:
        traceback.print_exc(limit=3, file=sys.stderr)
        ms = 0.0 if started is None else (time.perf_counter() - started) * 1000.0
        return ms, False, 0, f"raised {type(exc).__name__}"
    try:
        ok, work, digest = workload.check(op, answer, state)
    except Exception as exc:
        traceback.print_exc(limit=3, file=sys.stderr)
        return ms, False, 0, f"check raised {type(exc).__name__}"
    return ms, ok, work, digest


def run_pass(workload, seed: int, nr, ctx: dict, seconds: float | None = None,
             rounds: int | None = None,
             tracer: Tracer | None = None) -> tuple[list, list, float]:
    """Run whole rounds: a fixed number, or until ``seconds`` have passed
    and at least MIN_OPS ops are done (giving up on MIN_OPS at 4x seconds).

    A speed probe runs before the first op and after every op.  Returns the
    records, each op's time scaled to the reference speed by the median of
    the probes around it; the raw op times in ms; and the median probe."""
    for _ in range(WARM_PROBES):
        probe.speed_probe()
    probes = [probe.speed_probe()]
    raw = []
    started = time.perf_counter()
    for number, ops in enumerate(workload.rounds(seed)):
        if rounds is not None and number >= rounds:
            break
        for op in ops:
            raw.append(run_op(workload, op, nr, ctx, len(raw), tracer))
            probes.append(probe.speed_probe())
        if rounds is None:
            elapsed = time.perf_counter() - started
            if elapsed >= seconds and (len(raw) >= MIN_OPS or elapsed >= 4 * seconds):
                break
    raw_ms = [r[0] for r in raw]
    records = [(ms, *r[1:]) for ms, r in zip(probe.scaled(raw_ms, probes), raw)]
    return records, raw_ms, sorted(probes)[len(probes) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (gzip TSV)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    import nilregular as nr
    ctx = probe.build(args.workload, nr)
    source = Path(nr.__file__).resolve().parent
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    records, raw_ms, probe_s = run_pass(workload, args.seed, nr, ctx, args.seconds,
                                        args.rounds, tracer)
    result = {
        "nilregular": str(source),
        "records": records,
        "raw_ms": raw_ms,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
