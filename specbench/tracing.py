"""Span recorder for the traced rounds of the specpred benchmark.

Wrappers go onto the public functions of each specpred module for the length
of a traced round and come off afterwards, so untraced rounds run the program
unmodified.  Every call records a span (name, start, end, parent, steps) in
flat arrays; the spans are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager

import numpy as np


def missing_targets(targets) -> list:
    """``owner.attribute`` of every trace target the program does not define."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in targets if not hasattr(owner, attr)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.steps = array("q")
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self.steps.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int, steps: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.steps[i] = steps
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(i, 0)

    def wrap(self, fn, name: str, steps_of=None):
        """Return ``fn`` recording one span per call.

        ``steps_of(args, result)`` gives the work units of a call that
        returned; a call that raised records 0.
        """
        nid = self._name(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            steps = 0
            try:
                out = fn(*args, **kwargs)
                if steps_of is not None:
                    steps = int(steps_of(args, out))
                return out
            finally:
                self._close(i, steps)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, span name, steps_of) target.

        Targets are resolved by attribute lookup, so a method inherited from
        a base class is found.  ``LookupError`` names every target the
        program no longer defines, before any is wrapped: a lost layer must
        end the run, not read as 0."""
        missing = missing_targets(targets)
        if missing:
            raise LookupError("trace targets not defined: " + ", ".join(missing))
        saved = []
        try:
            for owner, attr, name, steps_of in targets:
                saved.append((owner, attr, attr in vars(owner),
                              vars(owner).get(attr)))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name,
                                               steps_of))
            yield
        finally:
            for owner, attr, own, orig in reversed(saved):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    def summary(self) -> dict:
        """Per span name: calls, busy and self ns, steps, and the calls and
        busy ns of the calls that returned work (steps > 0)."""
        n = len(self.start)
        if n == 0:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        steps = np.frombuffer(self.steps, dtype=np.int64).astype(float)
        child = parent >= 0
        child_ns = np.bincount(parent[child], weights=dur[child], minlength=n)
        k = len(self.names)
        done = steps > 0

        def per_name(weights=None, mask=None):
            sel = np.ones(n, bool) if mask is None else mask
            w = None if weights is None else weights[sel]
            return np.bincount(nid[sel], weights=w, minlength=k)

        cols = {
            "calls": per_name(),
            "busy_ns": per_name(dur),
            "self_ns": per_name(dur - child_ns),
            "steps": per_name(steps),
            "done_calls": per_name(mask=done),
            "done_ns": per_name(dur, mask=done),
        }
        return {name: {key: float(col[i]) for key, col in cols.items()}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Spans as gzip TSV: id, parent, name, start_ns, end_ns, steps."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tsteps\n")
            names = self.names
            for i, (n, p, s, e, w) in enumerate(zip(
                    self.name_id, self.parent, self.start, self.end, self.steps)):
                fh.write(f"{i}\t{p}\t{names[n]}\t{s}\t{e}\t{w}\n")
