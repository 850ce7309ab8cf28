"""In-memory span tracer that instruments joinsketch from the outside.

The tracer never edits joinsketch: it swaps attributes of the module that
imports a function (``joinsketch.cli.estimate``, ``joinsketch.sketch.
bin_eval_vec``, ...) for a timing wrapper and puts the originals back
when the traced pass ends.  Calls run on one thread and one stack, so
spans nest properly.

Two kinds of wrapper exist.  A *recorded* wrapper keeps one ``Span``
(name, start, end, parent) per call in memory; it is used at layer
boundaries that are crossed a few hundred times per command.  A *folded*
wrapper is for per-row calls (canonicalize, filter, row iteration) that
run millions of times: it keeps only a count and total and self time per
name, and adds its duration to the enclosing frame, so the enclosing
span's self time still excludes it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing recorded span
    folded_s: float = 0.0  # time of folded calls made directly inside it

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its child spans.

    Child intervals are clipped to the parent's interval and merged first,
    so overlapping children are subtracted once.  Folded child time is
    subtracted as recorded.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is not None and lo <= run_hi:
                run_hi = max(run_hi, hi)
                continue
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(s.duration - covered - s.folded_s)
    return out


class Tracer:
    """Spans and folded call totals of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span | None] = []
        # name -> [calls, total seconds, self seconds] for folded calls
        self.folded: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        # Open calls, innermost last: [span index, or None when folded;
        # seconds of folded calls made directly inside].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a recorded span."""
        index = len(self.spans)
        self.spans.append(None)
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            # A recorded parent subtracts this span through its interval.
            if self._stack and self._stack[-1][0] is None:
                self._stack[-1][1] += end - start
            self.spans[index] = Span(name, start, end, parent, frame[1])

    def folded_fn(self, name: str, fn: Callable) -> Callable:
        """fn as a folded call: counted and timed under name, no span kept.

        Kept lean, because it runs once per row or per cell.
        """
        totals = self.folded[name]
        stack = self._stack
        clock = self.clock

        def folded(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]

        return folded

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(
        self, module, attr: str, name: str | None, folded: bool = False, observe=None
    ) -> None:
        """Swap module.attr for a traced wrapper.

        ``observe(result, *args)`` runs after the call, outside its span,
        to count work from the arguments or the result.  With ``name``
        None the call is only observed, not timed.
        """
        fn = getattr(module, attr)
        if name is None:
            timed = fn
        elif folded:
            timed = self.folded_fn(name, fn)
        else:
            timed = functools.partial(self.call, name, fn)
        if observe is None:
            self.patch(module, attr, timed)
            return

        def traced(*args, **kwargs):
            result = timed(*args, **kwargs)
            observe(result, *args)
            return result

        self.patch(module, attr, traced)

    def timed_iter(self, name: str, iterable):
        """Yield from iterable, timing each step as a folded call."""
        step = self.folded_fn(name, iter(iterable).__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per name, recorded and folded alike."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        if self._stack:
            raise RuntimeError("totals() called while spans are open")
        spans = self.spans
        for s, own in zip(spans, self_times(spans)):
            entry = out[s.name]
            entry["calls"] += 1
            entry["total_s"] += s.duration
            entry["self_s"] += own
        for name, (calls, total, own) in self.folded.items():
            entry = out[name]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += own
        return out
