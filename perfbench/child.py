"""Run one benchmark task in a fresh interpreter.

Reads ``{"task", "inputs", "trace", "job"}`` as JSON on stdin and writes
one JSON line on stdout: when set-up ended (``CLOCK_MONOTONIC``, which all
processes share on Linux), the task's work time, peak RSS, the probe times
before and after the job, the task's result or error, and with tracing on,
its spans and counts.  A fresh process per job keeps state cold: window
caches and group instances start empty, as they do for a user running one
command.
"""

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def probe() -> float:
    """Seconds for a fixed piece of interpreter-bound work like the jobs':
    a dict of 100k tuples and big-integer arithmetic.  Every job process
    times it before its imports and again after the job, so the pair
    follows the machine's speed through a run.  Neither run touches the
    job's peak RSS, and the garbage collector is off so the job's leftover
    objects do not slow the second one."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 1
        for k in range(100_000):
            table[k * 7919 % 100_003] = (k, k + 1)
            acc = (acc * 3 + k) % (1 << 200)
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    spec = json.load(sys.stdin)
    probe_before = probe()
    import amenlab
    import tasks
    from spans import NULL, Recorder

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(amenlab.__file__).resolve().parent.parent != src:
        print(f"amenlab imported from {amenlab.__file__}, not {src}", file=sys.stderr)
        return 2
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    rec = Recorder(spec["job"]) if spec["trace"] else NULL
    result = error = None
    start = time.perf_counter()
    try:
        with rec.span("job"):
            result = tasks.TASKS[spec["task"]](spec["inputs"], rec)
    except Exception:
        error = traceback.format_exc()
    work = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "ready": ready,
        "work_s": work,
        "probes": [probe_before, probe()],
        "rss_kb": rss_kb,
        "result": result,
        "error": error,
    }
    if rec.enabled:
        report["spans"] = rec.spans
        report["counts"] = rec.counts
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
