"""Spans around the calls the benchmark makes into the program's modules.

The tracer replaces module attributes with timing wrappers, so the
program itself is unchanged: ``isla_avg`` looks ``pre_estimate``,
``sample_region_moments``, ``modulate_block`` and ``summarize`` up in
``repro.core.isla`` at call time, and ``pre_estimate`` looks up
``compute_block_sizes`` in ``repro.core.pre_estimation``.

A span around a function that runs Spark jobs tags them with a job group
of its own, restores the parent's group on exit, and resolves its job,
stage and task counts only after the query, so the bookkeeping costs two
py4j calls per such span. Spans around driver-only functions make no
py4j call at all. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from pyspark import SparkContext


@dataclass
class Span:
    id: int
    parent: int | None
    query: int
    name: str
    start_ns: int
    end_ns: int = 0
    #: Spark job group of the span; ``None`` for a driver-only span.
    group: str | None = None
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    self_ns: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans of one query at a time; see the module docstring."""

    def __init__(self, sc: SparkContext) -> None:
        self._sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.query = -1

    # -- wrapping ---------------------------------------------------------
    def wrap(self, module: object, attr: str, name: str, *, spark: bool) -> None:
        """Replace ``module.attr`` with a span-recording wrapper."""
        fn = getattr(module, attr)
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._traced(fn, name, spark=spark))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def _traced(self, fn, name: str, *, spark: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, spark)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)

        return wrapper

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str, spark: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            query=self.query,
            name=name,
            start_ns=0,
        )
        self.spans.append(span)
        self._stack.append(span)
        if spark:
            span.group = f"islabench-{span.id}"
            self._sc.setJobGroup(span.group, name)
        span.start_ns = time.perf_counter_ns()
        return span

    def _exit(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()
        if span.group is None:
            return
        # Hand the rest of the parent's jobs back to the parent's group.
        parent = next((s for s in reversed(self._stack) if s.group), None)
        if parent is not None:
            self._sc.setJobGroup(parent.group, parent.name)
        else:
            self._sc._jsc.clearJobGroup()

    def resolve(self, first: int = 0) -> None:
        """Fill job/stage/task counts and self times of spans[first:].

        Call between queries: it waits for Spark's listener bus so that
        every job of the query is visible to the status tracker.
        """
        wait_for_listeners(self._sc)
        tracker = self._sc.statusTracker()
        spans = self.spans[first:]
        child_ns: dict[int, int] = {}
        for s in spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.ns
            if s.group is None:
                continue
            for job_id in tracker.getJobIdsForGroup(s.group):
                s.jobs += 1
                job = tracker.getJobInfo(job_id)
                for stage_id in job.stageIds if job else ():
                    stage = tracker.getStageInfo(stage_id)
                    if stage is None:
                        continue
                    s.failed_tasks += stage.numFailedTasks
                    if stage.numCompletedTasks:  # 0: skipped, output reused
                        s.stages += 1
                        s.tasks += stage.numCompletedTasks
        for s in spans:
            s.self_ns = s.ns - child_ns.get(s.id, 0)

    def isla_jobs(self, first: int) -> int:
        """Jobs of the ISLA call among spans[first:] (the isla_avg subtree)."""
        roots = {s.id for s in self.spans[first:] if s.name == "isla.isla_avg"}
        total = 0
        for s in self.spans[first:]:
            if s.id in roots or s.parent in roots:
                roots.add(s.id)
                total += s.jobs
        return total


def wait_for_listeners(sc: SparkContext) -> None:
    """Block until Spark's status store has seen every posted event."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def count_group_jobs(sc: SparkContext, group: str) -> int:
    """Jobs Spark ran under ``group`` (after the listener bus drains)."""
    wait_for_listeners(sc)
    return len(sc.statusTracker().getJobIdsForGroup(group))
