"""In-memory span recorder and self-time arithmetic for traced benchmark jobs.

A span is one call into a layer, recorded from the benchmark's own code:
``[name, start, end, parent, job]`` where ``parent`` is the index of the
enclosing span in the same recorder (``None`` for a root) and ``job``
identifies the job process that made it.  Spans stay in memory until the
job ends; the runner writes them out once, at the end of a run.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from unittest import mock


class Recorder:
    """Records nested spans and exact work counters for one job."""

    enabled = True

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.job]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class NullRecorder:
    """Recorder stand-in for untraced runs: records nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int) -> None:
        pass


NULL = NullRecorder()


def traced(stack, rec, module, attr: str, name: str, counter=None) -> None:
    """Replace ``module.attr`` by a wrapper recording span ``name`` per call.

    The replacement lives until ``stack`` (an ``ExitStack``) closes.  Used
    where one layer calls another through a module-level name, so the
    callee's time can be split out of the caller's without editing either.
    ``counter(args, result)`` may return ``(count_name, n)`` to tally work.
    Untraced runs leave the module untouched.
    """
    if not rec.enabled:
        return
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = original(*args, **kwargs)
        if counter is not None:
            rec.count(*counter(args, result))
        return result

    stack.enter_context(mock.patch.object(module, attr, wrapper))


def self_times(spans) -> dict[str, float]:
    """Self time summed per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once and
    children are clipped to the parent's interval.  ``spans`` are the
    records of one recorder, so ``parent`` indexes into the same list.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, job in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, parent, job) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
