"""In-memory spans recorded by wrappers around public entry points.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: name, start, end, parent span and trace id.
Spans live in per-thread buffers (no lock on the hot path) and are
written out once, by :meth:`Tracer.dump`, when the run ends.

Spans on one thread nest on that thread's stack, so the children of a
span never overlap each other; a span's self time is its duration minus
the sum of its children's durations.  A span with no parent starts a new
trace: every span below it carries the root's trace id, which makes one
trace per cell, job or experiment.

Nothing in the program is edited: the benchmark installs wrappers from
outside with :meth:`Tracer.wrap` and removes them with
:meth:`Tracer.uninstall`.  A forked child (pool worker) drops the
wrappers right after the fork, so only the benchmark's own process
records spans.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

_clock = time.perf_counter


class _Buffer:
    """One thread's spans, in parallel typed arrays."""

    __slots__ = ("name", "start", "end", "parent", "trace", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trace = array("q")
        self.stack: List[int] = []


class Spans:
    """Flattened spans of every thread, ready for aggregation."""

    def __init__(self, names: Sequence[str], name: np.ndarray,
                 start: np.ndarray, end: np.ndarray, parent: np.ndarray,
                 trace: np.ndarray) -> None:
        self.names = list(names)
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace

    def __len__(self) -> int:
        return len(self.name)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the time its children cover."""
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent],
            minlength=len(self),
        )
        return dur - covered

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per name: (calls, inclusive seconds, self seconds)."""
        dur = self.duration
        own = self.self_time()
        out: Dict[str, Tuple[int, float, float]] = {}
        for index, name in enumerate(self.names):
            mask = self.name == index
            out[name] = (int(mask.sum()), float(dur[mask].sum()),
                         float(own[mask].sum()))
        return out

    def save(self, path: os.PathLike) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name,
            start=self.start, end=self.end, parent=self.parent,
            trace=self.trace,
        )


class Tracer:
    """Records spans from wrappers it installs on the program."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._buffers_lock = threading.Lock()
        self._installed: List[Tuple[object, str, object, bool]] = []
        self._fork_hook = False

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span called ``name`` per call."""
        name_id = self._name_id(name)
        buffer = self._buffer

        def wrapper(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            index = len(buf.name)
            if stack:
                parent = stack[-1]
                trace = buf.trace[parent]
            else:
                parent = -1
                trace = index
            buf.name.append(name_id)
            buf.parent.append(parent)
            buf.trace.append(trace)
            buf.end.append(0.0)
            stack.append(index)
            buf.start.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[index] = _clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation --------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module, class or instance attribute)
        with a traced wrapper; :meth:`uninstall` restores it."""
        in_dict = attr in getattr(owner, "__dict__", {})
        original = owner.__dict__[attr] if in_dict else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace descriptor {name}")
        setattr(owner, attr, self.traced(name, original))
        self._remember(owner, attr, original, in_dict)

    def wrap_dict(self, table: dict, key: str, name: str) -> None:
        """Trace one entry of a dispatch table such as ``EXPERIMENTS``."""
        original = table[key]
        table[key] = self.traced(name, original)
        self._remember(table, key, original, None)

    def _remember(self, owner, attr, original, in_dict) -> None:
        self._installed.append((owner, attr, original, in_dict))
        if not self._fork_hook:
            os.register_at_fork(after_in_child=self._drop_in_child)
            self._fork_hook = True

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, original, in_dict = self._installed.pop()
            if in_dict is None:
                owner[attr] = original
            elif in_dict:
                setattr(owner, attr, original)
            else:
                # The wrapper shadowed an inherited or class attribute.
                delattr(owner, attr)

    def _drop_in_child(self) -> None:
        self.uninstall()
        self._buffers = []
        self._local = threading.local()

    # -- output --------------------------------------------------------------

    def spans(self) -> Spans:
        """Every thread's spans, flattened (parents re-based per thread)."""
        names, starts, ends, parents, traces = [], [], [], [], []
        offset = 0
        for buf in list(self._buffers):
            count = len(buf.end)
            n = min(count, len(buf.start))
            name = np.frombuffer(buf.name, dtype=np.int32)[:n].astype(np.int64)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:n].copy()
            trace = np.frombuffer(buf.trace, dtype=np.int64)[:n] + offset
            parent[parent >= 0] += offset
            names.append(name)
            starts.append(np.frombuffer(buf.start, dtype=np.float64)[:n].copy())
            ends.append(np.frombuffer(buf.end, dtype=np.float64)[:n].copy())
            parents.append(parent)
            traces.append(trace)
            offset += n
        if not names:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=np.float64)
            return Spans(self.names, empty_i, empty_f, empty_f, empty_i,
                         empty_i)
        return Spans(self.names, np.concatenate(names),
                     np.concatenate(starts), np.concatenate(ends),
                     np.concatenate(parents), np.concatenate(traces))

    def dump(self, path: os.PathLike) -> Spans:
        """Flatten the spans and write them out (once, at the end)."""
        spans = self.spans()
        spans.save(path)
        return spans
