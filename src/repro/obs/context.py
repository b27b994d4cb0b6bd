"""Trace-context propagation for synchronous kernel call chains.

The kernel layers deliberately do not know about connections or workers
beyond what the real kernel would (a reuseport group sees a 4-tuple, a wait
queue sees opaque entries).  To still tag their trace events with the
connection that triggered them, the layer that *does* know (``NetStack``,
``Worker``) pushes ids onto a context stack around the synchronous call, and
every event emitted inside inherits them.

The stack is only valid across *synchronous* call chains: the simulation is
single-threaded and a scope must not span a generator ``yield`` (another
process would run inside it).  All uses in the tree follow that rule —
SYN handling (`connect` → select → enqueue → wake → epoll callback) and
request delivery are plain call chains, and the scheduler cascade runs
without yielding inside one worker-loop iteration.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["TraceContext"]

#: The id keys a context frame may carry.
ID_KEYS = ("worker", "conn", "request")


class TraceContext:
    """A stack of id frames; the top frame is merged into emitted events."""

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        # Each frame is the *merged* view at that depth, so `current` is O(1).
        self._stack: List[Dict[str, int]] = []

    def push(self, worker: Optional[int] = None, conn: Optional[int] = None,
             request: Optional[int] = None) -> None:
        stack = self._stack
        frame = dict(stack[-1]) if stack else {}
        if worker is not None:
            frame["worker"] = worker
        if conn is not None:
            frame["conn"] = conn
        if request is not None:
            frame["request"] = request
        stack.append(frame)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def current(self) -> Dict[str, int]:
        """The merged ids visible at the current depth (empty when idle)."""
        return self._stack[-1] if self._stack else {}

    @property
    def depth(self) -> int:
        return len(self._stack)

    def scope(self, worker: Optional[int] = None, conn: Optional[int] = None,
              request: Optional[int] = None) -> "_Scope":
        """``with ctx.scope(conn=cid): ...`` — push/pop around a call chain.

        The frame is pushed on ``__enter__`` (not here) and popped on
        ``__exit__``, also when the body raises; ``as`` binds the context.
        """
        return _Scope(self, worker, conn, request)


class _Scope:
    """The context manager :meth:`TraceContext.scope` returns.

    A plain class rather than a ``@contextmanager`` generator: it runs on
    every traced SYN, request delivery and scheduler run.
    """

    __slots__ = ("_ctx", "_worker", "_conn", "_request")

    def __init__(self, ctx: TraceContext, worker: Optional[int],
                 conn: Optional[int], request: Optional[int]) -> None:
        self._ctx = ctx
        self._worker = worker
        self._conn = conn
        self._request = request

    def __enter__(self) -> TraceContext:
        ctx = self._ctx
        ctx.push(self._worker, self._conn, self._request)
        return ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        self._ctx._stack.pop()
