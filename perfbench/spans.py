"""In-memory spans around calls from one islandsis module into another.

The program under test is never edited: a :class:`Tracer` replaces a function
attribute in the *calling* module (or a method on a class) with a wrapper that
records a span, runs the original and puts the original back on exit.  Spans
stay in a list until the run ends, when :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    """One call across a layer boundary.

    `parent` is the index of the enclosing span in the tracer's list, or None
    for a root; `run` identifies the workload run and timed call.  `counts`
    holds work counters read off the call's arguments and result.
    """

    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Boundary:
    """A call site to wrap.

    `owner` is the module or class whose attribute `attr` is looked up at call
    time; `name` is the span name, or a function of the call's positional
    arguments that returns it.  `observe(args, kwargs, result)` returns work
    counters for the span.  With `keep`, the call's arguments are appended to
    `Tracer.kept` under the span name, for the benchmark to take out after the
    call; whatever it leaves there stays until the run ends.  A `probe` stays
    installed in untraced
    runs, because an end-to-end count or a check needs what it observes.
    """

    owner: Any
    attr: str
    name: str | Callable[..., str]
    observe: Callable[[tuple, dict, Any], dict] | None = None
    keep: bool = False
    probe: bool = False


class Tracer:
    def __init__(self):
        self.run = ""
        self.spans: list[Span] = []
        self.kept: dict[str, list[tuple[tuple, dict]]] = defaultdict(list)
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, *args, observe=None, keep=False, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent, self.run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            record.counts.update(observe(args, kwargs, result))
        if keep:
            self.kept[name].append((args, kwargs))
        return result

    def _wrap(self, b: Boundary, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            name = b.name if isinstance(b.name, str) else b.name(*args)
            return self.span(name, fn, *args, observe=b.observe, keep=b.keep, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, boundaries) -> Callable[[], None]:
        """Wrap every boundary; return the function that restores the originals."""
        saved = []

        def restore():
            while saved:
                owner, attr, raw = saved.pop()
                setattr(owner, attr, raw)

        try:
            for b in boundaries:
                raw = b.owner.__dict__[b.attr] if isinstance(b.owner, type) else getattr(b.owner, b.attr)
                saved.append((b.owner, b.attr, raw))
                if isinstance(raw, classmethod):
                    setattr(b.owner, b.attr, classmethod(self._wrap(b, raw.__func__)))
                else:
                    setattr(b.owner, b.attr, self._wrap(b, raw))
        except BaseException:
            restore()
            raise
        return restore

    def dump(self, path: Path, facts: dict) -> None:
        """Write one JSON line of run facts, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"facts": facts}) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(dict(asdict(span), id=index)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
