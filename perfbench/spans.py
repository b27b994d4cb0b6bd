"""Outside-in span recording for the traced benchmark run.

The traced run wraps public entry points of each layer from here, without
touching the program: every wrapped call records one span (name, start,
end, parent) on the host clock, and the two generator layers (the worker
loop and ``Epoll.wait``) record one span per resumption.  Spans stay in
memory in flat arrays and are written out once, at the end.

A layer's self time is the sum over its spans of the span's duration minus
the time its direct child spans cover.  Counts recorded beside the spans
(wakeups that found the sleeper woken, program declines, foreign arrivals,
the engine's heap pops) are cross-checked against the program's own
counters by the caller; a wrapper that misses a binding fails loudly
instead of under-reporting its layer.
"""

from __future__ import annotations

import gc
import json
import sys
import types
from array import array
from time import perf_counter

#: Every layer the traced run reports, in report order.  A span named
#: ``<layer>.<entry point>`` belongs to its layer.
LAYERS = (
    "sim", "core.scheduler", "core.wst", "kernel.reuseport",
    "kernel.epoll", "kernel.waitqueue", "kernel.tcp", "kernel.hash",
    "lb.worker", "lb.server", "lb.metrics", "workloads.generator",
    "fleet.ingress", "fleet.lookup", "check.invariants", "check.pcc",
    "obs.trace",
)


class SpanRecorder:
    """Spans in parallel arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Event counts recorded at the same boundaries as the spans.
        self.counts = {}

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap_call(self, name: str, fn, after=None):
        """``fn`` recorded as one span per call; ``after(args, result)``
        runs outside the span to record counts."""
        nid = self.name_id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed(self, inner, nid: int, on_resume=None, on_return=None):
        """Drive generator ``inner``, one span per resumption.

        ``on_resume(n)`` runs before the n-th resumption (n >= 1, i.e.
        after a suspension); ``on_return(n, value)`` runs when ``inner``
        returns after ``n`` suspensions.  Sends, throws and close are
        forwarded unchanged, so the driven process behaves exactly as the
        unwrapped one.
        """
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        value = None
        error = None
        resumes = 0
        while True:
            if resumes and on_resume is not None:
                on_resume(resumes)
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                if error is None:
                    target = inner.send(value)
                else:
                    target = inner.throw(error)
            except StopIteration as stop:
                result = stop.value
                if on_return is not None:
                    on_return(resumes, result)
                return result
            finally:
                ends[index] = perf_counter()
                stack.pop()
            error = None
            resumes += 1
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into ``inner``
                error = exc
                value = None

    # -- analysis ---------------------------------------------------------
    def calls(self):
        """Span count per span name."""
        counts = [0] * len(self.names)
        for nid in self.name:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def summary(self):
        """(calls, self seconds) per span name."""
        start, end, parent = self.start, self.end, self.parent
        duration = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(duration)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += duration[i]
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name):
            self_s[nid] += duration[i] - child[i]
        return self.calls(), dict(zip(self.names, self_s))

    def write(self, stem: str) -> None:
        """Write every span: ``stem.bin`` holds the name, parent, start and
        end columns back to back (int32, int32, float64, float64, native
        byte order); ``stem.json`` the name table, counts and layout."""
        with open(stem + ".bin", "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"spans": len(self.name), "names": self.names,
                       "columns": ["name:i4", "parent:i4", "start:f8",
                                   "end:f8"],
                       "byteorder": sys.byteorder, "counts": self.counts},
                      fh, indent=1)


def _program_modules():
    """Loaded modules of the program under test."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Patches:
    """Installs wrappers on classes and module bindings; restores them.

    A module-level function is replaced in every loaded program module
    that binds it by name.  After installing, and again after restoring,
    :meth:`verify` fails if anything other than this object still refers
    to a replaced original (or, after restore, to a wrapper).
    """

    def __init__(self):
        self._saved = []

    def method(self, cls, attr: str, wrapper) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original, wrapper))
        setattr(cls, attr, wrapper)

    def function(self, original, wrapper) -> None:
        bound = 0
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original, wrapper))
                    setattr(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding of {original.__qualname__} found")

    def restore(self) -> None:
        """Put every original back, then :meth:`verify` that no wrapper is
        left reachable."""
        for owner, attr, original, _wrapper in reversed(self._saved):
            setattr(owner, attr, original)
        # A module imported while patched bound a wrapper by name.
        originals = {id(w): o for _owner, _attr, o, w in self._saved}
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])
        self.verify(installed=False)
        self._saved = []

    def verify(self, installed: bool) -> None:
        """Fail loudly on a stray reference: to an original while the
        wrappers are installed, to a wrapper once restored."""
        gc.collect()
        mine = {id(self._saved)} | {id(record) for record in self._saved}
        # Code outside the program (``heapq`` for the engine's pop) keeps
        # its own binding; only the program's must be replaced.
        program = {id(module) for module in _program_modules()}
        mine |= {id(vars(module)) for module in list(sys.modules.values())
                 if module is not None and id(module) not in program}
        for _owner, attr, original, wrapper in self._saved:
            target = original if installed else wrapper
            cells = {id(c) for c in (wrapper.__closure__ or ())}
            for ref in gc.get_referrers(target):
                if (id(ref) in mine or id(ref) in cells
                        or isinstance(ref, types.FrameType)):
                    continue
                which = "original" if installed else "wrapped"
                raise RuntimeError(
                    f"stray reference to the {which} {attr!r} from a "
                    f"{type(ref).__name__}: calls made through it would "
                    f"not be recorded")
