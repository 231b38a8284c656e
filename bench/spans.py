"""Trace spans recorded from the benchmark's side, around calls into qbench's modules.

The benchmark wraps module attributes (``qbench.cli.load_volume``,
``qbench.noise.find_t_opt``, ``Volume.from_array``, ...) so that no file of
the program changes. A span has a name, start, end, parent and op id. Spans
are kept in memory and written out when the run ends. Parents are tracked
per thread; work submitted to the ``curve`` thread pool adopts the
submitting thread's open span as its parent, so it attaches to the right op.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``op`` labels root spans opened from now on."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sp = Span(
                id=len(self.spans),
                name=name,
                start=self._clock(),
                end=None,
                parent=parent.id if parent else None,
                op=parent.op if parent else self.op,
                thread=threading.get_ident(),
                attrs=attrs,
            )
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._clock()
            stack.pop()

    @contextmanager
    def adopt(self, parent: Span | None):
        """Open spans of this thread under ``parent``, a span of another thread."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent else []
        try:
            yield
        finally:
            stack[:] = saved

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` inside a span; ``before(*args)`` and ``after(result)`` give span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, **attrs) as sp:
                result = fn(*args, **kwargs)
            if after:
                sp.attrs.update(after(result))
            return result

        return traced

    def executor(self, base):
        """A subclass of executor class ``base`` whose tasks adopt the submitter's span."""
        tracer = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    with tracer.adopt(parent):
                        return fn(*args, **kwargs)

                return super().submit(run)

        return TracedExecutor

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans (any thread) cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: sp.duration - covered(children[sp.id], sp.start, sp.end) for sp in spans}


def _file_bytes(path, *args, **kwargs) -> dict:
    try:
        return {"bytes": os.path.getsize(path)}
    except OSError:
        return {}


def _threshold_attrs(result) -> dict:
    curve = getattr(result, "curve", None)
    return {
        "curve_points": int(curve.shape[0]) if curve is not None else None,
        "mode": getattr(result, "mode_used", None),
    }


def _array_mb(cls, data, *args, **kwargs) -> dict:
    # computed from the array size (elements x 8 bytes of float64), not measured
    return {"mb": getattr(data, "size", 0) * 8 / 1e6}


def instrument(tracer: Tracer):
    """Wrap qbench's layer boundaries in spans; returns a function that undoes it.

    An attribute a later version no longer has is skipped, and the metrics
    built on it then read n/a.
    """
    from qbench import cli, noise, resolution
    from qbench.volume import Volume

    undo = []

    def patch(owner, attr, name, before=None, after=None):
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(original.__func__, name, before=before, after=after)))
        else:
            setattr(owner, attr, tracer.wrap(original, name, before=before, after=after))
        undo.append((owner, attr, original))

    # the op's root span; it covers the CLI call alone, not the harness around it
    patch(cli, "main", "cli.main")
    patch(cli, "load_volume", "qvol.load", before=_file_bytes)
    patch(cli, "input_digest", "report.digest", before=_file_bytes)
    patch(cli, "build_report", "report.build")
    for attr in ("report_json", "curve_csv", "write_text_atomic"):
        patch(cli, attr, "report.write")
    patch(cli, "estimate", "noise.estimate")
    patch(cli, "noise_resolution_curve", "resolution.curve")
    patch(noise, "find_t_opt", "noise.find_t_opt", after=_threshold_attrs)
    patch(resolution, "estimate", "noise.estimate")
    patch(resolution, "downsample", "resolution.downsample")
    patch(Volume, "from_array", "volume.from_array", before=_array_mb)
    if "ThreadPoolExecutor" in vars(resolution):
        original = resolution.ThreadPoolExecutor
        resolution.ThreadPoolExecutor = tracer.executor(original)
        undo.append((resolution, "ThreadPoolExecutor", original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
