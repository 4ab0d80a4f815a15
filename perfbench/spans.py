"""Spans recorded from outside the program, around its public calls.

The traced run patches a fixed list of public functions and methods
(``BuildSession.stage_*``, ``ObjectCache.get/put``, ``load``,
``Process.run``, ``ServeInstance.handle_request`` ...) with wrappers
that record one span per call: name, parent span, an id (unit key or
request index — never request or response bytes), start and end on
the wall clock and on the calling thread's CPU clock.  Spans stay in
memory and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the part its child
spans cover.  Layer busy times use the thread CPU clock, so time a
build worker spends waiting for the interpreter lock is not charged
to whatever layer it happened to be inside.

The same patching mechanism implements the self-test's injected
delay: the wrapped call is followed by a busy wait as long as the call
itself, doubling that layer's cost from outside the program.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

_perf = time.perf_counter
_cpu = time.thread_time

# Span tuple fields.
SID, PARENT, NAME, IDENT, TID, T0, T1, C0, C1 = range(9)


class Tracer:
    """In-memory span recorder, safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, ident=None):
        """Record one span around the block."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        c0 = _cpu()
        t0 = _perf()
        try:
            yield
        finally:
            t1 = _perf()
            c1 = _cpu()
            stack.pop()
            self.spans.append(
                (sid, parent, name, ident, threading.get_ident(),
                 t0, t1, c0, c1)
            )

    def call(self, name: str, fn, args, kwargs, ident=None):
        """``fn(*args, **kwargs)`` inside a span."""
        with self.span(name, ident):
            return fn(*args, **kwargs)

    def mark(self) -> int:
        """Position to pass to :func:`self_times` as ``since``."""
        return len(self.spans)

    def write(self, path: str) -> None:
        records = [
            {
                "id": s[SID],
                "parent": s[PARENT],
                "name": s[NAME],
                "ident": s[IDENT],
                "tid": s[TID],
                "start_us": round(s[T0] * 1e6, 1),
                "dur_us": round((s[T1] - s[T0]) * 1e6, 1),
                "cpu_us": round((s[C1] - s[C0]) * 1e6, 1),
            }
            for s in sorted(self.spans, key=lambda s: (s[T0], s[SID]))
        ]
        with open(path, "w") as handle:
            json.dump({"spans": records}, handle)


def self_times(spans, scale, since: int = 0,
               until: int | None = None) -> dict:
    """Per span name: ``{"n", "cpu", "wall"}`` self-time totals over
    ``spans[since:until]`` (children are looked up in the same slice;
    phases are sequential, so a span and its children always land in
    the same slice).  ``scale(t)`` converts a duration measured around
    time ``t`` to reference-host units."""
    window = spans[since:until]
    child_cpu: dict[int, float] = defaultdict(float)
    child_wall: dict[int, float] = defaultdict(float)
    for s in window:
        if s[PARENT]:
            child_cpu[s[PARENT]] += s[C1] - s[C0]
            child_wall[s[PARENT]] += s[T1] - s[T0]
    out: dict[str, dict] = defaultdict(
        lambda: {"n": 0, "cpu": 0.0, "wall": 0.0}
    )
    for s in window:
        entry = out[s[NAME]]
        k = scale((s[T0] + s[T1]) / 2)
        entry["n"] += 1
        entry["cpu"] += k * ((s[C1] - s[C0]) - child_cpu.get(s[SID], 0.0))
        entry["wall"] += k * ((s[T1] - s[T0]) - child_wall.get(s[SID], 0.0))
    return out


def _spin(seconds: float) -> None:
    end = _perf() + seconds
    while _perf() < end:
        pass


class Probe(NamedTuple):
    """One public callable to wrap: ``owner.attr`` under span ``name``.
    ``observe`` sees ``(args, result)`` after the span has closed, to
    count work (instructions lowered, bytes serialized, cache hits)."""

    owner: object
    attr: str
    name: str
    observe: Callable | None = None


def _delayed(fn):
    def slow(*args, **kwargs):
        t0 = _perf()
        result = fn(*args, **kwargs)
        _spin(_perf() - t0)
        return result

    return slow


def _wrap(probe: Probe, orig, tracer: Tracer | None, delay: bool):
    if delay:
        orig = _delayed(orig)
    if tracer is None:
        return orig
    name, observe = probe.name, probe.observe

    def wrapper(*args, **kwargs):
        result = tracer.call(name, orig, args, kwargs)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


@contextmanager
def instrument(probes, tracer: Tracer | None, inject: str | None = None):
    """Patch every probe for the duration of the block.

    With ``tracer`` None, only the probe named ``inject`` (if any) is
    patched — the untraced run carries no wrappers at all otherwise.
    """
    saved = []
    try:
        for probe in probes:
            delay = probe.name == inject
            if tracer is None and not delay:
                continue
            orig = vars(probe.owner)[probe.attr]
            saved.append((probe.owner, probe.attr, orig))
            setattr(probe.owner, probe.attr, _wrap(probe, orig, tracer,
                                                   delay))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
