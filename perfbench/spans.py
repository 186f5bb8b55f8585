"""In-memory spans around calls into refstream, taken from outside the program.

The tracer replaces bound methods on detector components (and, for the
grid, module-level names where ``refstream.grid`` looks them up) with
wrappers that append one span per call: name, parent span, start and end
in nanoseconds, and whether the call happened after probation. Spans stay
in flat arrays until the run ends; ``write`` dumps them as TSV and
``layer_table`` turns them into per-name totals and self times (a span's
duration minus the durations of its direct children).

Counters come from return values only: ``learning.update`` tells whether
the group changed, and a refresh is "useful" when the update in the same
``Detector.process`` call admitted or evicted a member.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.scored = array("b")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.scored_phase = False
        self._group_changed = False
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.end)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.scored.append(self.scored_phase)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()

        return traced

    def instrument_detector(self, det):
        """Wrap the public methods of one detector's components in place."""
        det.representation.push = self.wrap("representation.push", det.representation.push)
        update = self.wrap("learning.update", det.strategy.update)

        def counted_update(feature, t, score=0.0):
            added, removed = update(feature, t, score)
            self._group_changed = added is not None or removed is not None
            if self.scored_phase:
                self.counts["learning.updates"] += 1
                self.counts["learning.admits"] += added is not None
                self.counts["learning.evicts"] += removed is not None
            return added, removed

        det.strategy.update = counted_update
        for method in ("insert", "remove", "score", "member_scores"):
            setattr(det.measure, method,
                    self.wrap(f"nonconformity.{method}", getattr(det.measure, method)))
        det.scorer.step = self.wrap("scoring.step", det.scorer.step)
        det.scorer.set_reference_scores = self.wrap(
            "scoring.set_reference_scores", det.scorer.set_reference_scores)
        process = self.wrap("detector.process", det.process)

        def phased_process(point):
            self.scored_phase = point[0] > det.probation_len
            self._group_changed = False
            record = process(point)
            if record is not None:  # scored calls always refresh the reference scores
                self.counts["detector.refreshes"] += 1
                self.counts["detector.refreshes_useful"] += self._group_changed
            return record

        det.process = phased_process
        return det

    def __len__(self):
        return len(self.end)

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, calls after probation, total and self seconds."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        scored = np.frombuffer(self.scored, dtype=np.int8).astype(bool)
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        table = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            table[name] = {
                "calls": int(mask.sum()),
                "scored_calls": int((mask & scored).sum()),
                "total_s": float(dur[mask].sum()) * 1e-9,
                "self_s": float(self_ns[mask].sum()) * 1e-9,
            }
        return table

    def write(self, path):
        """Dump every span as TSV: id, parent, name, start_ns, end_ns, scored."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tscored\n")
            for i, (nid, par, t0, t1, sc) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end, self.scored)
            ):
                fh.write(f"{i}\t{par}\t{self.names[nid]}\t{t0}\t{t1}\t{sc}\n")
