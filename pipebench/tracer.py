"""In-memory span tracer that wraps functions from outside the program.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent), the operation it belongs to and
a tag naming the CLI call inside that operation.  Wrapping replaces module
attributes, so the program's source is never edited; `Tracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up to the time the parent spent inside them.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class Target:
    """A function to wrap: where it is defined and the span name it gets.

    observe(args, kwargs, result, error, tracer) may add counts (through
    tracer.count) taken at the same boundary, such as sizes of the arguments
    or of the result.
    """

    module: str
    attr: str
    span: str
    observe: object = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    op: int = -1
    tag: str = ""
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def count(self, key: str, amount: float = 1.0) -> None:
        k = (self.tag, key)
        self.counters[k] = self.counters.get(k, 0.0) + amount

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op, tag=self.tag))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, func, target: Target):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.open(target.span)
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.close(idx)
                if target.observe is not None:
                    try:
                        target.observe(args, kwargs, result, error, tracer)
                    except Exception:  # a changed signature must not fail the program's call
                        tracer.count(f"{target.span}.observe_failed")

        return traced

    def install(self, targets, namespaces: dict) -> None:
        """Wrap each target in every namespace that bound the same object.

        namespaces maps module names to module objects.  A target whose
        defining module no longer has the attribute is recorded as absent
        and skipped, so a renamed or deleted function does not stop a run.
        """
        for target in targets:
            home = namespaces.get(target.module)
            original = getattr(home, target.attr, None) if home is not None else None
            if original is None:
                name = f"{target.module}.{target.attr}"
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self.wrap(original, target)
            for module in namespaces.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
