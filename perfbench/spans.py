"""Span tracer and call-site instrumentation for the benchmark's traced runs.

Spans are recorded only in the benchmark's own code: :class:`Patches` swaps
public functions, methods and object attributes of the program for thin
wrappers that open a span around the original call, and restores them on
exit, so an untraced operation runs the program exactly as shipped.  Spans
stay in memory (:class:`Tracer`) and are summarised per operation into self
time per layer plus an explicit unattributed remainder under every parent.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass
class Span:
    """One timed call: name, interval, parent span index and operation id."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int | str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for the (single) thread that drives the load.

    Calls made from other threads are not recorded: the program's replay
    worker threads never enter an instrumented function, and a span there
    would have no parent in this thread's stack.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple, float] = {}
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        #: Operation the spans and counts being recorded belong to.
        self.op: int | str = -1

    def active(self) -> bool:
        return threading.get_ident() == self._thread

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.active():
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a per-operation counter (counters carry no time)."""
        if self.active():
            key = (self.op, name)
            self.counts[key] = self.counts.get(key, 0) + amount

    def op_counts(self, op: int | str) -> dict[str, float]:
        return {name: value for (owner, name), value in self.counts.items() if owner == op}

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped


class Patches:
    """Attribute swaps applied on ``__enter__`` and undone on ``__exit__``.

    Works for classes (methods), modules (functions) and instances; an
    attribute an instance did not own is deleted again on exit, so the
    instance falls back to its class.
    """

    def __init__(self):
        self._items: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, target, attr: str, make_wrapper) -> None:
        """Replace ``target.attr`` by ``make_wrapper(original)`` while active."""
        self._items.append((target, attr, make_wrapper))

    def __enter__(self) -> "Patches":
        for target, attr, make_wrapper in self._items:
            owned = vars(target).get(attr, _MISSING) if hasattr(target, "__dict__") else _MISSING
            self._saved.append((target, attr, owned))
            setattr(target, attr, make_wrapper(getattr(target, attr)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            target, attr, owned = self._saved.pop()
            if owned is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, owned)


def op_breakdown(tracer: Tracer, op: int | str) -> dict:
    """Self time per span name for one operation, plus per-parent remainders.

    A span's self time is its duration minus its children's durations (the
    children of one span never overlap: they run in the same thread).  The
    self times of all spans of an operation therefore add up to the
    operation's root span exactly; the root's own self time is the
    operation's unattributed time.
    """
    indices = [index for index, span in enumerate(tracer.spans) if span.op == op]
    child_seconds: dict[int, float] = {index: 0.0 for index in indices}
    for index in indices:
        parent = tracer.spans[index].parent
        if parent is not None and parent in child_seconds:
            child_seconds[parent] += tracer.spans[index].seconds
    rows: dict[str, dict] = {}
    root = None
    for index in indices:
        span = tracer.spans[index]
        if span.parent is None:
            root = index
        row = rows.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.seconds
        row["self_s"] += span.seconds - child_seconds[index]
    if root is None:
        raise RuntimeError(f"operation {op} recorded no root span")
    return {
        "op_seconds": tracer.spans[root].seconds,
        "root": tracer.spans[root].name,
        "unattributed_s": tracer.spans[root].seconds - child_seconds[root],
        "layers": rows,
        "counts": tracer.op_counts(op),
    }


def span_records(tracer: Tracer) -> list[dict]:
    """JSON-able span list (times relative to the first span)."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    return [
        {
            "id": index,
            "name": span.name,
            "op": span.op,
            "parent": span.parent,
            "start_s": span.start - origin,
            "end_s": span.end - origin,
        }
        for index, span in enumerate(tracer.spans)
    ]
