"""In-memory span recorder for the benchmark's traced mode.

Spans are recorded from the benchmark's own files, around each call into
a layer of the program. They are kept in memory and written out once at
the end of the run. A disabled recorder makes ``span`` a no-op, which is
what untraced (end-to-end) runs use.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: [name, start, end, parent index or -1, attributes]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, attrs]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, self time and count.

        A span's self time is its duration minus the durations of its
        direct children (children never outlive their parent here).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["count"] += 1
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans
            ],
            "layers": self.layer_times(),
        }
        path.write_text(json.dumps(doc, default=str) + "\n")
