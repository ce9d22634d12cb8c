"""Spans recorded from outside the program, and the arithmetic on them.

The benchmark times each layer by wrapping its public callables from
here; nothing in ``src/repro`` knows it is being traced.  A
:class:`Tracer` records one :class:`Span` per wrapped call (name, start,
end, the same-thread span that caused it, and a trace id shared by the
spans of one video / chunk / request), keeps them in memory, and writes
them as JSON lines when the workload ends.

Installing is the subtle part: callers bind ``from repro.vision.morphology
import opening`` at import, so patching only the defining module records
nothing.  :func:`install` therefore rebinds *every* ``repro.*`` module
global that ``is`` the wrapped function (and the class attribute for
methods), and :meth:`Installation.check_fired` fails the traced run if a
wrapped name recorded no call.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Installation",
    "Span",
    "Target",
    "Tracer",
    "covered_ns",
    "install",
    "self_times_ns",
]


@dataclass
class Span:
    """One timed call.  ``parent`` is the enclosing span on the same thread."""

    name: str
    start_ns: int
    end_ns: int = 0
    parent: "Span | None" = None
    trace_id: object = None
    units: float = 1.0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``module`` + dotted ``qualname`` inside it.

    Attributes:
        span: span name, ``<group>/<callable>``; the group is the layer
            bucket the span's self time is summed into.
        trace_id: optional ``f(args, kwargs)`` naming the trace a call
            starts (a chunk's ``stream#seq``, a clip's name); otherwise
            the enclosing span's id is inherited.
        units: optional ``f(args, kwargs, result)`` evaluated *after* the
            span closed — work done by the call (frames, bytes).
        count_only: count calls without timing them (``os.fsync``: its
            time belongs to the storage span around it).
    """

    span: str
    module: str
    qualname: str
    trace_id: object = None
    units: object = None
    count_only: bool = False


class Tracer:
    """In-memory span recorder (thread-aware, append-only)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, trace_id=None, units=None):
        """*fn* wrapped so that every call records a span called *name*."""
        spans = self.spans
        get_stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = get_stack()
            parent = stack[-1] if stack else None
            if trace_id is not None:
                tid = trace_id(args, kwargs)
            else:
                tid = parent.trace_id if parent is not None else None
            span = Span(name, clock(), 0, parent, tid)
            spans.append(span)  # list.append is atomic under the GIL
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()
            if units is not None:
                span.units = units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def counter(self, name: str, fn):
        """*fn* wrapped so that calls are counted under *name*, untimed."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- reading -------------------------------------------------------- #

    def calls(self, name: str) -> int:
        """Calls recorded under *name* (spans or plain counts)."""
        if name in self.counts:
            return self.counts[name]
        return sum(1 for span in self.spans if span.name == name)

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span: name, start_ns, end_ns, parent, trace_id."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = {
                    "id": index,
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": ids[id(span.parent)] if span.parent is not None else None,
                    "trace_id": span.trace_id,
                    "units": span.units,
                }
                handle.write(json.dumps(row, default=str) + "\n")


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #


def covered_ns(start_ns: int, end_ns: int, children: list[tuple[int, int]]) -> int:
    """Nanoseconds of ``[start, end)`` covered by the union of *children*.

    Children are clipped to the parent interval and may overlap each
    other (spans handed to worker threads do); each instant counts once.
    """
    total = 0
    cursor = start_ns
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end_ns)
        if child_end > child_start:
            total += child_end - child_start
            cursor = child_end
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """``id(span)`` -> self time: its duration minus what its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append((span.start_ns, span.end_ns))
    return {
        id(span): span.duration_ns
        - covered_ns(span.start_ns, span.end_ns, children.get(id(span), []))
        for span in spans
    }


# ---------------------------------------------------------------------- #
# Installing wrappers over the program's callables
# ---------------------------------------------------------------------- #


@dataclass
class Installation:
    """The rebinding done by one :func:`install`; undo with :meth:`restore`."""

    tracer: Tracer
    targets: tuple[Target, ...]
    patches: list[tuple[object, str, object]] = field(default_factory=list)

    def restore(self) -> None:
        """Put every rebound name back (reverse order, idempotent)."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def check_fired(self) -> None:
        """Raise if a wrapped callable recorded no call at all."""
        silent = [t.span for t in self.targets if self.tracer.calls(t.span) == 0]
        if silent:
            raise RuntimeError(f"wrapped but never called: {', '.join(sorted(silent))}")


def _resolve(target: Target) -> tuple[object, str]:
    """The object that owns the target's attribute, and the attribute name."""
    owner = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, targets: tuple[Target, ...]) -> Installation:
    """Wrap every target and rebind each name bound to it under ``repro.*``."""
    installation = Installation(tracer, tuple(targets))
    callers = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    try:
        for target in targets:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            wrapper = _wrapper_for(tracer, target, original)
            if isinstance(owner, type):
                _patch(installation, owner, attr, original, wrapper)
                continue
            # The defining module (which need not be under ``repro``: os.fsync)
            # and every ``repro.*`` module that bound the name at import.
            for module in {id(m): m for m in [owner, *callers]}.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        _patch(installation, module, name, original, wrapper)
    except BaseException:
        installation.restore()
        raise
    return installation


def _wrapper_for(tracer: Tracer, target: Target, original):
    kind = type(original) if isinstance(original, (staticmethod, classmethod)) else None
    fn = original.__func__ if kind is not None else original
    if target.count_only:
        wrapped = tracer.counter(target.span, fn)
    else:
        wrapped = tracer.wrap(target.span, fn, target.trace_id, target.units)
    return kind(wrapped) if kind is not None else wrapped


def _patch(installation: Installation, owner, attr: str, original, wrapper) -> None:
    setattr(owner, attr, wrapper)
    installation.patches.append((owner, attr, original))
