"""Set-up of one workload in a fresh interpreter, timed, and the speed probe.

Run as ``python3 probe.py <workload>`` with nilregular importable: prints
the seconds from just before ``import nilregular`` to the end of
:func:`build`.  Only ``sys`` and ``time`` are loaded before the
clock starts, so the standard-library modules nilregular pulls in count as
its import.
"""

import sys
import time

# seconds one speed_probe() takes at the reference speed; a time scaled to
# it is ``raw * REFERENCE_PROBE_S / probe``, so the scale is a constant and
# scaled times of two commits compare
REFERENCE_PROBE_S = 0.0035


def speed_probe(rounds: int = 400) -> float:
    """Seconds taken now by a fixed interpreter-bound loop (tuple slicing,
    dict updates, integer arithmetic; about 3.5 ms).

    The shared host this benchmark was written on runs Python code at
    speeds that wander by up to 1.7x over seconds to minutes; process CPU
    time wanders with it.  Timing this loop next to every op and scaling
    the op by it measures the program against the interpreter's current
    speed rather than the host's load.  The loop touches no nilregular
    code, so a change to nilregular moves scaled times as it moves raw ones.
    """
    started = time.perf_counter()
    table = {}
    word = ("x", "q", "x", "q")
    total = 0
    for i in range(rounds):
        for j in range(8):
            key = word[j % 3:] + (str(j),)
            table[key] = table.get(key, 0) + (i * j) % 7
            total += len(key) * (i ^ j) // 3
    return time.perf_counter() - started


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to the reference speed.  ``times[i]`` ran between
    ``probes[i]`` and ``probes[i + 1]``; it is scaled by the median of
    those two and the probe before them."""
    out = []
    for i, t in enumerate(times):
        window = sorted(probes[max(0, i - 1):i + 2])
        middle = len(window) // 2
        speed = (window[middle] if len(window) % 2
                 else (window[middle - 1] + window[middle]) / 2)
        out.append(t * REFERENCE_PROBE_S / speed)
    return out


def build(workload: str, nr) -> dict:
    """Construct the objects a workload's ops share, before the first op."""
    if workload == "tau_sweep":
        return {"algebra": nr.Algebra(nr.xq_system(3), nr.QQ)}
    if workload == "unit_search":
        return {"fields": {p: nr.PrimeField(p) for p in (2, 3, 5)}}
    if workload == "matrix_membership":
        return {"model": nr.MatrixModel(3, nr.QQ)}
    if workload == "long_reduce":
        import nilregular.cli  # the ops enter through the command line
        return {"algebra": nr.Algebra(nr.xq_system(3), nr.QQ), "cli": nilregular.cli}
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    started = time.perf_counter()
    import nilregular
    build(sys.argv[1], nilregular)
    print(repr(time.perf_counter() - started))
