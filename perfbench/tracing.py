"""In-memory spans for the traced benchmark run.

A span is (name, start, end, parent, op): ``op`` is the id of the
closed-loop operation (batch pass, query or epoch) the span belongs to.
Spans are recorded around calls into each layer from the benchmark's own
files only -- by wrapping instance or module attributes for the duration
of the traced run -- and written out when the run ends.  Worker-side
timings (measured inside Ray tasks) enter through :meth:`Tracer.add`;
``time.monotonic`` is CLOCK_MONOTONIC on Linux, so driver and worker
timestamps share one clock.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Records spans when ``enabled``; a disabled tracer records nothing
    and wraps nothing, so the untraced and traced runs make the same
    calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op = None
        self._stack: list = []
        self._undo: list = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext({})
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name, attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": time.monotonic(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """A span measured elsewhere (inside a Ray worker), parented to
        the innermost open span."""
        if not self.enabled:
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": start, "end": end}
        rec.update(attrs)
        self.spans.append(rec)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function or an instance's
        bound method) by a spanned call; undone by :meth:`unwrap_all`.
        Instance wrapping means a method calling ``self.other()`` nests
        the inner span under the outer one."""
        if not self.enabled:
            return
        orig = getattr(owner, attr)
        had_own = attr in vars(owner)

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            with self._span(name, {}) as rec:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, out)
                return out

        setattr(owner, attr, spanned)
        self._undo.append((owner, attr, orig, had_own))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, orig, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    # -- analysis -----------------------------------------------------------

    def closed(self) -> list:
        return [s for s in self.spans if s["end"] is not None]

    def self_times(self) -> dict:
        """span id -> duration minus the part its children cover."""
        kids = defaultdict(list)
        spans = self.closed()
        for s in spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        out = {}
        for s in spans:
            cover = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                     for c in kids[s["id"]]]
            cover = [(a, b) for a, b in cover if b > a]
            out[s["id"]] = (s["end"] - s["start"]) - _union(cover)
        return out

    def layer_table(self) -> dict:
        """name -> {calls, total_s, self_s}."""
        selfs = self.self_times()
        table: dict = {}
        for s in self.closed():
            row = table.setdefault(s["name"],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s["end"] - s["start"]
            row["self_s"] += selfs[s["id"]]
        return table

    def mean_s(self, name: str, key: str = "total_s") -> float:
        """Mean seconds per ``name`` span (``key``: total_s or self_s);
        0 when the layer was never called."""
        row = self.layer_table().get(name)
        return row[key] / row["calls"] if row else 0.0

    def top_level_cover(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] covered by top-level spans."""
        iv = [(max(s["start"], t0), min(s["end"], t1))
              for s in self.closed() if s["parent"] is None]
        return _union([(a, b) for a, b in iv if b > a])

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.closed():
                f.write(json.dumps(s, default=str) + "\n")
