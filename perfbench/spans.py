"""In-memory span tracer that hooks the program from outside.

Spans are recorded around calls into the public functions of each module:
the engine's phase methods are wrapped on the engine instance, and
module-level functions are patched in the namespace of the module that
calls them.  Nothing in the program is edited.  A hook whose target no
longer exists is recorded as absent instead of failing the run.
"""
from __future__ import annotations

import gzip
import time
from pathlib import Path

import numpy as np


class Tracer:
    """Closed spans as ``(id, parent, step, name, start_ns, end_ns)`` tuples.

    Ids count span openings, so a parent's id is below its children's.
    """

    def __init__(self):
        self.spans = []
        self._next = 0
        self.stack = []
        self.step = -1
        self.absent = set()
        self.counts = {}
        self._restore = []

    def open(self, name: str) -> tuple:
        sid = self._next
        self._next += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, name, parent, time.perf_counter_ns()

    def close(self, token: tuple):
        end = time.perf_counter_ns()
        self.stack.pop()
        sid, name, parent, start = token
        # tuples of atoms drop out of the garbage collector's tracking
        self.spans.append((sid, parent, self.step, name, start, end))

    def count(self, name: str, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args)`` runs once it closes."""

        def traced(*args, **kwargs):
            token = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(token)
            if after is not None:
                after(out, *args)
            return out

        return traced

    def hook(self, owner, attr: str, name: str, after=None) -> bool:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unhook`."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.add(name)
            return False
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, self.wrap(name, fn, after))
        return True

    def unhook(self):
        for owner, attr, old in reversed(self._restore):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    def self_times(self) -> dict:
        """Per span name: (total duration, total self time, calls) in seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of a span's subtree sum to its duration.
        """
        if not self.spans:
            return {}
        sid, parent, _, names, start, end = zip(*self.spans)
        sid, parent = np.array(sid), np.array(parent)
        dur = np.zeros(self._next, dtype=np.int64)
        dur[sid] = np.array(end, dtype=np.int64) - np.array(start, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[sid[has]])
        out = {}
        for k, name in zip(sid.tolist(), names):
            tot, slf, calls = out.get(name, (0, 0, 0))
            out[name] = (tot + int(dur[k]), slf + int(dur[k] - child[k]), calls + 1)
        return {k: (t * 1e-9, s * 1e-9, c) for k, (t, s, c) in out.items()}

    def write(self, path: Path):
        """Spans as gzipped CSV: id, parent, step, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id,parent,step,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(map(str, span)) + "\n")
