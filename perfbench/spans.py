"""In-memory span tracer for the benchmark's traced runs.

A span is ``(name, start, end, parent)``. The tracer keeps a stack of
open spans; when a span closes, its *self time* is its duration minus
the durations of the child spans that closed inside it. Child spans nest
strictly inside their parent, so the self times of all spans partition
the time covered by the root spans:

    window = sum(self time of every span) + unattributed

for any window that contains every root span. That identity is how the
layers are checked against the wall.

Per-message layers produce millions of spans (a traced ``sim-bench``
run opens 2.3 to 2.9 million, a traced ``live-recover`` run 0.6 million), so
each span name also keeps a running aggregate: calls, inclusive seconds,
self seconds, and a "hits" count of calls whose result satisfied a
predicate (a filter that dropped, say). The first :data:`SPAN_KEEP`
spans are kept verbatim and written out at the end; later ones only
update the aggregates.

Nothing here imports the program under test: :func:`wrap_method`
replaces attributes on the classes and modules the caller passes in.
"""

from __future__ import annotations

import functools
import json
import time
import types
from typing import Callable, Dict, List, Optional

#: Spans kept verbatim per process: the start of a run (set-up and the
#: first simulated days of ``sim-bench``). A kept span takes about 140
#: bytes, so the cap adds at most ~14 MB to a run that peaks near 500 MB.
SPAN_KEEP = 100_000


class Tracer:
    """Stack-based span recorder with per-name self-time aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Kept spans: ``[name, start, end, parent index or -1]``.
        self.spans: List[list] = []
        #: Spans beyond ``SPAN_KEEP`` (aggregated, not kept).
        self.dropped = 0
        #: name -> ``[calls, inclusive_s, self_s, hits]``.
        self.agg: Dict[str, list] = {}
        #: Plain counters recorded at span boundaries (rows drawn, ...).
        self.counts: Dict[str, float] = {}
        # Open spans: ``[name, start, child_seconds, kept index or -1]``.
        self._stack: List[list] = []

    def reset(self) -> None:
        """Forget everything recorded (a forked worker's inherited copy)."""
        self.__init__(self.clock)

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def current(self) -> Optional[str]:
        """Name of the innermost open span, or ``None``."""
        return self._stack[-1][0] if self._stack else None

    def enter(self, name: str) -> list:
        start = self.clock()
        index = -1
        if len(self.spans) < SPAN_KEEP:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, start, start, parent])
        else:
            self.dropped += 1
        frame = [name, start, 0.0, index]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, hit: bool = False) -> None:
        """Close *frame*, the innermost open span."""
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, start, children, index = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children
        if hit:
            agg[3] += 1

    # -- reading -----------------------------------------------------------

    def _field(self, name: str, i: int):
        agg = self.agg.get(name)
        return agg[i] if agg is not None else 0

    def calls(self, name: str) -> int:
        return self._field(name, 0)

    def inclusive(self, name: str) -> float:
        return float(self._field(name, 1))

    def self_time(self, name: str) -> float:
        return float(self._field(name, 2))

    def hits(self, name: str) -> int:
        return self._field(name, 3)

    def total_self(self) -> float:
        return sum(agg[2] for agg in self.agg.values())

    def state(self) -> dict:
        """JSON-able snapshot, for shipping out of a worker process."""
        return {"agg": self.agg, "counts": self.counts, "spans": self.spans,
                "dropped": self.dropped}

    def merge_state(self, state: dict) -> None:
        """Fold another process's aggregates in (its spans stay its own)."""
        for name, (calls, inclusive, own, hits) in state["agg"].items():
            agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += calls
            agg[1] += inclusive
            agg[2] += own
            agg[3] += hits
        for name, n in state["counts"].items():
            self.count(name, n)
        self.dropped += state["dropped"]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.state(), fh)


def wrap_method(tracer: Tracer, owner, attr: str, name: str,
                hit: Optional[Callable[[object], bool]] = None) -> None:
    """Replace ``owner.attr`` by a wrapper recording span *name*.

    *hit*, when given, is applied to the return value; calls for which it
    is true count in the span's ``hits``. Works for functions on a class
    (instances then bind the wrapper) and for module attributes.
    """
    original = getattr(owner, attr)
    enter, exit_ = tracer.enter, tracer.exit

    if hit is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(frame)
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                exit_(frame)
                raise
            exit_(frame, hit(result))
            return result

    setattr(owner, attr, wrapper)


def traced_coroutine(tracer: Tracer, name: str, coro):
    """Drive *coro*, recording each step it runs as a span *name*.

    A step is the stretch between two suspensions, so the span's total is
    the coroutine's busy time: every ``await`` that suspends (a socket
    read, a future another task resolves) falls between spans. Steps run
    synchronously inside one event-loop callback, so spans of functions
    they call nest under them.
    """
    @types.coroutine
    def driver():
        value, error = None, None
        while True:
            frame = tracer.enter(name)
            try:
                if error is not None:
                    suspended = coro.throw(error)
                else:
                    suspended = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame)
            try:
                value, error = (yield suspended), None
            except BaseException as exc:  # re-raised inside coro next step
                value, error = None, exc

    return driver()
