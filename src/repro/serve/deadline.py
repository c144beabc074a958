"""Deadline propagation: bounded time budgets threaded through a query.

A :class:`Deadline` is an absolute point on the monotonic clock that
rides along with a batch: the engine checks it at admission, the
executor bounds shard lock waits by it and checks it between the
operations of a read-only shard queue, and the replica layer checks it
before falling over to another copy.  A shard queue with a mutation
checks it only while waiting for the writer lock, then runs to the end,
so its slab is all-or-nothing.  When it expires, every layer stops
*cooperatively* -- the engine returns a :class:`~repro.serve.executor.
PartialResult` marked with the x-slabs that were served rather than
hanging on the slow or dead remainder.

:class:`DeadlineExpired` is the internal control-flow signal the
replica layer raises when the budget runs out mid-read; the shard task
catches it, so it never escapes the engine facade.
"""

from __future__ import annotations

import time


class DeadlineExpired(RuntimeError):
    """A deadline ran out mid-operation (internal control flow)."""


class Deadline:
    """An absolute time budget on the monotonic clock.

    Build one with :meth:`after` (relative seconds) or pass an absolute
    ``time.monotonic()`` value.  Immutable; cheap to share across
    threads.
    """

    __slots__ = ("_at",)

    def __init__(self, at: float):
        self._at = float(at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (<= 0 is already expired)."""
        return cls(time.monotonic() + seconds)

    @property
    def at(self) -> float:
        """The absolute monotonic expiry time."""
        return self._at

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return time.monotonic() >= self._at

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._at - time.monotonic())

    def __repr__(self) -> str:
        left = self._at - time.monotonic()
        state = f"{left * 1e3:.1f}ms left" if left > 0 else "expired"
        return f"Deadline({state})"
