"""In-memory spans recorded around calls into ``emocnn``'s public functions.

A span is (name, start, end, parent, trace): ``parent`` is the id of the
span that was open when it started, and ``trace`` the id of the outermost
one, so the spans of one operation share it. Spans stay in memory while the
benchmark runs and are written out once, when it ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


@contextlib.contextmanager
def patched(module, replacements: dict):
    """Swap module attributes for the duration of the block.

    ``emocnn`` calls its own functions through module globals, so replacing
    ``emocnn.training.adam_step`` also catches the call inside ``train``.
    """
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, trace]
        self._open: list[int] = []

    def _new(self, name: str) -> list:
        """Append a span record whose parent and trace are the open spans."""
        sid = len(self.spans)
        record = [name, 0, 0, self._open[-1] if self._open else None, self._open[0] if self._open else sid]
        self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._new(name)
        self._open.append(len(self.spans) - 1)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span timed by another process on the same monotonic clock."""
        self._new(name)[1:3] = start_ns, end_ns

    def wrap(self, fn):
        """``fn`` recording a span named after its defining module."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)

        return traced

    def patch(self, module, names):
        return patched(module, {n: self.wrap(getattr(module, n)) for n in names})

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, start, end, _, _ in self.spans if n == name]

    def median_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "trace": trace,
                }) + "\n")


class NullTracer:
    """Stand-in for untraced runs: no spans, no patching."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def timed(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        pass
