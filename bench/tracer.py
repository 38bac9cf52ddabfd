"""Span and call-count instrumentation installed around pgcodes from outside.

An Instrument replaces a function or method attribute with a wrapper and
puts the original back on restore(). Spans (name, parent, start, end, op) go
into flat arrays in memory and are only aggregated or written once the run
is over. A span's self time is its duration minus the durations of its
direct children.

Nothing here is imported by pgcodes: the untraced benchmark run never
creates an Instrument, so it runs the program exactly as a user would.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np


class Instrument:
    """Wrappers around program attributes, recording spans or counting calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("q")
        self.counts: Counter[str] = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Callable[[Counter, tuple, object], None] | None = None,
    ) -> None:
        """Record a span for every call of owner.attr; on_result may add counts."""
        fn = owner.__dict__[attr]
        nid = self._name_id(name)
        parent, names, start, end, op = self.parent, self.name, self.start, self.end, self.op
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(names)
            parent.append(stack[-1])
            names.append(nid)
            op.append(self.current_op)
            start.append(0)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if on_result is not None:
                on_result(counts, args, result)
            return result

        self._replace(owner, attr, wrapper)

    def count(self, owner: object, attr: str, name: str) -> None:
        """Count calls of owner.attr without timing them."""
        fn = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            for key in ("parent", "name", "start", "end", "op")
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, time_s, self_s, and outer_s.

        outer_s sums only spans whose parent belongs to another layer (the
        part of the name before its last dot), so a layer that calls itself,
        such as prng.sample calling prng.below, is not counted twice.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(dur.shape[0], dtype=np.int64)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        layer_of = [n.rsplit(".", 1)[0] for n in self.names]
        layer_id = {layer: i for i, layer in enumerate(dict.fromkeys(layer_of))}
        span_layer = np.array([layer_id[layer] for layer in layer_of], dtype=np.int64)[a["name"]]
        parent_layer = np.full(dur.shape[0], -1, dtype=np.int64)
        parent_layer[has_parent] = span_layer[a["parent"][has_parent]]
        outer = parent_layer != span_layer
        out = {}
        for nid, name in enumerate(self.names):
            mine = a["name"] == nid
            out[name] = {
                "calls": int(mine.sum()),
                "time_s": float(dur[mine].sum()) / 1e9,
                "self_s": float((dur - child)[mine].sum()) / 1e9,
                "outer_s": float(dur[mine & outer].sum()) / 1e9,
            }
        return out

    def children_named(self, parent_name: str, child_name: str) -> int:
        """How many child_name spans have a parent_name span as direct parent."""
        if parent_name not in self._ids or child_name not in self._ids:
            return 0
        a = self.arrays()
        kids = (a["name"] == self._ids[child_name]) & (a["parent"] >= 0)
        return int((a["name"][a["parent"][kids]] == self._ids[parent_name]).sum())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())
