"""Closed-loop benchmark of amenlab batch jobs.

    python3 perfbench/run.py --workload brudno --seed 1 --seconds 25 --trace 0
    python3 perfbench/selftest.py

One client runs one job at a time and starts the next only when the
previous one has finished.  Each job is a fresh interpreter (``child.py``)
that imports amenlab from ``src/`` and runs CLI commands or public-API
calls on inputs generated from ``--seed``.  Passes over the workload's jobs
repeat for about ``--seconds``; passes are never cut short, so every job
runs equally often.  Every job's output is checked
(``workloads.check``); a job that fails or exits non-zero counts in
``failed``.

``--trace 0`` reports the end-to-end metrics with tracing off: ``wall_s``
(sum over jobs of each job's median time), ``setup_s`` (median time from
spawning a job process until amenlab is imported and the inputs parsed),
both scaled to a reference machine speed (``PROBE_REF_S``), and
``peak_rss_mb`` (largest peak RSS of any job process).  ``--trace 1``
runs, for each job, the untraced job, then its single-pass layer
decomposition (``tasks.*_layers``) untraced and traced, and reports per-layer
self times (scaled like ``wall_s``) and exact counts; the spans of the run
are written once, at the end, to ``perfbench/out/``.  ``--workload all`` runs every workload in turn.

A table goes to stderr; the last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 150
# End-to-end times are scaled to a machine on which child.probe takes this
# long.  On a shared 2-vCPU host the speed of the same code drifts by 10-35%
# between runs minutes apart.  Each job process times the probe before and
# after its job, and dividing each job's times by the mean of the two cut
# the spread of wall_s over ten seeds from 11% to 3% (brudno) and from 36%
# to 6% (sft) of its median.  Raw times go to stderr.
PROBE_REF_S = 0.05
# one thread per job process, and a fixed string hash so set layouts repeat
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


@dataclass
class Child:
    """What one job process reported, with the problems found in it."""

    problems: list
    setup_s: float | None = None
    work_s: float | None = None
    rss_mb: float | None = None
    probe_s: float | None = None  # mean of the probes before and after the job
    result: object = None
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def spawn(job: workloads.Job, task: str, trace: bool, job_id: str) -> Child:
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}
    spec = json.dumps({"task": task, "inputs": job.inputs, "trace": trace, "job": job_id})
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=spec,
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Child([f"{job_id}: no result within {JOB_TIMEOUT_S} s"])
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Child([f"{job_id}: exit code {proc.returncode}: {tail[0]}"])
    if report["error"]:
        problems = [f"{job_id}: {report['error'].strip().splitlines()[-1]}"]
    else:
        problems = [f"{job_id}: {p}" for p in workloads.check(job, report["result"])]
    before, after = report["probes"]
    # the first probe runs between spawn and set-up's end but is not set-up
    return Child(problems, report["ready"] - spawned - before, report["work_s"],
                 report["rss_kb"] / 1024, (before + after) / 2, report["result"],
                 report.get("spans", []), report.get("counts", {}))


def _scale(c: Child) -> float:
    """Factor taking this process's times to the reference machine speed."""
    return PROBE_REF_S / c.probe_s if c.probe_s else 1.0


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(wl, jobs, passes, children):
    """End-to-end metrics plus the per-job, raw and rate figures for stderr.

    Each job's work and set-up times are scaled by the probe timed in the
    same process (see PROBE_REF_S) before taking medians.
    """
    ok = [c for c in children if c.probe_s]
    runs = {j.name: [p[j.name]["e2e"] for p in passes if p[j.name]["e2e"].probe_s]
            for j in jobs}
    per_job = {name: _median(c.work_s * _scale(c) for c in cs) for name, cs in runs.items()}
    metrics = {
        "wall_s": sum(per_job.values()),
        "setup_s": _median(c.setup_s * _scale(c) for c in ok),
        "peak_rss_mb": max((c.rss_mb for c in ok), default=0.0),
    }
    extras = {f"job.{name}_s": (value, "s") for name, value in per_job.items()}
    extras["wall_raw_s"] = (sum(_median(c.work_s for c in cs) for cs in runs.values()), "s")
    extras["setup_raw_s"] = (_median(c.setup_s for c in ok), "s")
    extras["probe_s"] = (_median(c.probe_s for c in ok), "s")
    if wl.rate:
        # inputs are the same in every pass, so one pass gives the units
        units = {j.name: workloads.work_units(j, runs[j.name][0].result)
                 for j in jobs if runs[j.name] and not runs[j.name][0].problems}
        busy = sum(per_job[name] for name, n in units.items() if n)
        extras[wl.rate[0]] = (sum(units.values()) / busy if busy else 0.0, wl.rate[1])
    return metrics, extras


def per_layer(jobs, passes):
    """Per-layer self times (median over passes) and exact counts.

    Times are scaled like the end-to-end ones, so that the residual and the
    tracing overhead compare processes that ran at different speeds.
    """
    series: dict[str, list] = {}
    problems = []
    first_counts = None
    for p in passes:
        values: dict[str, float] = {}
        residual = traced = plain = 0.0
        for job in jobs:
            row = p[job.name]
            scale = _scale(row["traced"])
            own = {name: secs * scale for name, secs in self_times(row["traced"].spans).items()}
            own.pop("job", None)  # the job's own glue, not a layer
            for name, secs in own.items():
                values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + secs
            for name, n in row["traced"].counts.items():
                values[name] = values.get(name, 0) + n
            if job.layers and row["e2e"].work_s is not None:
                residual += row["e2e"].work_s * _scale(row["e2e"]) - sum(own.values())
            traced += (row["traced"].work_s or 0.0) * scale
            plain += (row["plain"].work_s or 0.0) * _scale(row["plain"])
        values["cli.residual_s"] = residual
        values["trace.overhead_frac"] = traced / plain - 1 if plain else 0.0
        counts = {name: values.get(name, 0) for name, unit, _ in workloads.PER_LAYER
                  if unit == "count"}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            problems.append("per-layer counts differ between passes")
        for name, unit, _ in workloads.PER_LAYER:
            series.setdefault(name, []).append(values.get(name, 0))
    metrics = {name: (first_counts[name] if name in first_counts else _median(series[name]))
               for name, _, _ in workloads.PER_LAYER}
    return metrics, problems


def write_trace(wl, seed, passes):
    spans = [s for p in passes for row in p.values() for s in row["traced"].spans]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-s{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                "spans": spans}))
    return path


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    jobs = wl.build(seed)
    passes, children = [], []
    start = time.perf_counter()
    pass_s = 0.0
    # whole passes only; start another while it would end no more than half
    # a pass past the deadline, so a run lasts `seconds` on average
    while not passes or time.perf_counter() - start + pass_s / 2 < seconds:
        began = time.perf_counter()
        rows = {}
        for job in jobs:
            job_id = f"{wl.name}/s{seed}/p{len(passes)}/{job.name}"
            row = {"e2e": spawn(job, job.task, False, job_id)}
            if trace:
                row["plain"] = spawn(job, job.layers, False, job_id) if job.layers else row["e2e"]
                row["traced"] = spawn(job, job.layers or job.task, True, job_id)
            children.extend({id(c): c for c in row.values()}.values())
            rows[job.name] = row
        passes.append(rows)
        pass_s = time.perf_counter() - began

    problems = [msg for c in children for msg in c.problems]
    if trace:
        values, extra_problems = per_layer(jobs, passes)
        problems += extra_problems
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        table = {name: (values[name], units[name]) for name, _, _ in workloads.PER_LAYER}
        print(f"spans written to {write_trace(wl, seed, passes).relative_to(ROOT)}",
              file=sys.stderr)
    else:
        values, extras = end_to_end(wl, jobs, passes, children)
        units = {name: unit for name, unit, _, _ in workloads.END_TO_END}
        table = {name: (values[name], units[name]) for name, _, _, _ in workloads.END_TO_END}
        table.update(extras)

    failed = sum(1 for c in children if c.problems)
    table["fail_frac"] = (failed / len(children), "ratio")
    print(f"# {wl.name}: seed {seed}, {len(passes)} passes, {len(children)} job processes",
          file=sys.stderr)
    for name, (value, unit) in table.items():
        print(f"{name:40s} {value:>16.6g} {unit}", file=sys.stderr)
    for msg in problems[:10]:
        print(f"FAILED {msg}", file=sys.stderr)

    names = [n for n, *_ in (workloads.PER_LAYER if trace else workloads.END_TO_END)]
    return {
        "correct": not problems,
        "attempted": len(children),
        "failed": failed,
        "metrics": {n: {"value": table[n][0], "unit": table[n][1]} for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "amenlab" / "__init__.py").is_file():
        print(f"perfbench: no amenlab sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the CPUs of a small virtual machine can differ in speed by 20%: keep
    # every job of a run on one of them so its samples are comparable
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
