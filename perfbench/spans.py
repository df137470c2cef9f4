"""In-memory spans and counters recorded around the benchmark's calls into sonolink.

Spans are opened by the benchmark's own code, never inside ``src/sonolink``.
A span named ``<module>.<function>`` brackets one call into that public
function; an ``item`` span encloses one item.  A span marked ``probe`` is
work the traced run adds: a direct call timing a function the workload only
reaches inside another call (for example ``spectral_gain`` inside
``dereverberate``), or a ``probe.*`` span around such calls and their
bookkeeping.  Probes are excluded from item time.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    item: int | None
    probe: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters in memory; :meth:`write` dumps them at the end."""

    on = True

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.item: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.item, probe)

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def names(self) -> set[str]:
        return {s.name for s in self.spans}

    def median_ms(self, name: str) -> float:
        times = [s.seconds for s in self.spans if s.name == name]
        return 1e3 * statistics.median(times) if times else 0.0

    def item_split(self, item_span: int) -> tuple[float, float, float]:
        """(wall, probe, attributed) seconds of an item span.

        ``probe`` and ``attributed`` are the time its direct children spend
        in probes and in layer calls.
        """
        wall = self.spans[item_span].seconds
        probe = attributed = 0.0
        for s in self.spans[item_span + 1:]:
            if s.parent is None:  # the next top-level span: this item has ended
                break
            if s.parent == item_span:
                if s.probe:
                    probe += s.seconds
                else:
                    attributed += s.seconds
        return wall, probe, attributed

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)},
                fh,
            )


class NullTracer:
    """Tracing off: spans cost one ``with`` on a shared no-op context."""

    on = False
    _null = contextlib.nullcontext()

    def span(self, name: str, probe: bool = False):
        return self._null

    def add(self, name: str, value: float = 1) -> None:
        pass
