"""Span recording, self-time accounting and call wrapping for traced runs.

A span is one timed interval at a layer boundary: a name, a start and an
end from one clock, the index of the span that was open when it started,
and free-form attributes.  The benchmark opens spans only around calls
into the library, by swapping a module's global for a wrapper for the
length of a traced run; the library itself is never edited.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span stack for a single thread of calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if not self._open or self._open[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._open.pop()
        self.spans[idx].end = self.clock()

    def ancestor_attr(self, idx: int, key: str) -> Any:
        """The nearest value of attribute `key` on the span or its ancestors."""
        i: int | None = idx
        while i is not None:
            if key in self.spans[i].attrs:
                return self.spans[i].attrs[key]
            i = self.spans[i].parent
        return None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


Describe = Callable[[tuple, dict, Any, BaseException | None], dict[str, Any]]


def span_call(tracer: Tracer, name: str, fn: Callable, describe: Describe | None = None) -> Callable:
    """Wrap `fn` so each call is one span.

    `describe(args, kwargs, result, error)` runs after the span has closed,
    so the attributes it computes cost the span nothing.
    """

    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        result = None
        error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            tracer.close(idx)
            if describe is not None:
                tracer.spans[idx].attrs.update(describe(args, kwargs, result, error))

    return wrapper


def span_generator(tracer: Tracer, name: str, fn: Callable[..., Iterator]) -> Callable:
    """Wrap a generator function so that only its resumptions are timed.

    The consumer's work between two items belongs to whoever consumes, so
    each `next` is its own span.  Creations count as `<name>.calls` and
    yielded items as `<name>.items`.
    """

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        tracer.counters[name + ".calls"] += 1

        def resumed():
            try:
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.counters[name + ".items"] += 1
                    yield item
            finally:
                gen.close()

        return resumed()

    return wrapper


@contextmanager
def patched(replacements: Iterable[tuple[Any, str, Callable]]) -> Iterator[None]:
    """Set module attributes for the block's duration, then restore them all."""
    saved = []
    try:
        for module, attr, new in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)
