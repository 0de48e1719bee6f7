"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files around calls into a
layer's public functions; nothing inside ``src/`` is instrumented.  A
span has a name, a start, an end and the id of the span that caused
it (``None`` for a top-level span).  Counts ride along under their own
names.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Trace:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []        # (name, parent, start, end)
        self.counts: Dict[str, float] = defaultdict(float)

    def add(self, name: str, start: float, parent: Optional[int] = None) -> float:
        """Close a span that began at ``start``; returns its end time."""
        end = time.monotonic()
        self.spans.append((name, parent, start, end))
        return end

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        """Time the body; yields the span's id for its children.  The
        span is stored before the body runs, so a child's parent id is
        always the index of an earlier entry."""
        sid = len(self.spans)
        self.spans.append((name, parent, time.monotonic(), None))
        try:
            yield sid
        finally:
            name, parent, start, _ = self.spans[sid]
            self.spans[sid] = (name, parent, start, time.monotonic())

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans
                   if parent is None)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per name: span count, total and self time (total minus the
        time its child spans cover)."""
        child_s: Dict[int, float] = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for sid, (name, _, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            row["n"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[sid]
        return out
