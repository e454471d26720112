"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the benchmark's own calls into each layer of
the program (noise, algorithms, assignment, measures, service client),
kept in memory, and written to disk once when the run ends.  Each span
carries its name, start, end, parent span and the id of the cell or
request it belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from metrics import self_time


@dataclass
class SpanRecord:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    cell: str


class SpanRecorder:
    """Nested spans on one thread, with self-time roll-ups."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: List[SpanRecord] = []
        self.spans: List[SpanRecord] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None
             ) -> Iterator[SpanRecord]:
        """Record one span; ``cell`` defaults to the enclosing span's."""
        parent = self._stack[-1] if self._stack else None
        if cell is None:
            cell = parent.cell if parent is not None else ""
        record = SpanRecord(id=len(self.spans), name=name,
                            start=self._clock(), end=0.0,
                            parent=parent.id if parent is not None else None,
                            cell=cell)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        children: Dict[int, List[SpanRecord]] = {}
        for record in self.spans:
            if record.parent is not None:
                children.setdefault(record.parent, []).append(record)
        return {
            record.id: self_time(
                record.start, record.end,
                [(c.start, c.end) for c in children.get(record.id, [])])
            for record in self.spans
        }

    def self_time_by_name(self) -> Dict[str, float]:
        """Summed self time per span name."""
        own = self.self_times()
        totals: Dict[str, float] = {}
        for record in self.spans:
            totals[record.name] = totals.get(record.name, 0.0) + own[record.id]
        return totals

    def write(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON document."""
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [dict(asdict(record), self_s=own[record.id])
                   for record in self.spans]
        path.write_text(json.dumps({"spans": payload}, indent=1) + "\n")
