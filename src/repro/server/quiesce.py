"""The quiesce gate shared by the query service and the routers.

One pattern serves every place the serving stack must stop work from
starting while it changes state underneath it: a pause flag, an in-flight
count and a closed flag under one condition variable.

* work runs inside :meth:`QuiesceGate.entered` -- it waits while the gate
  is paused and counts itself in flight until it finishes;
* a state change runs inside :meth:`QuiesceGate.paused` -- new work queues
  at the gate, in-flight work drains, and the gate reopens afterwards
  (the service's micro-batch dispatch, router hot swaps, rebalances and
  cluster write pushes);
* :meth:`QuiesceGate.close` rejects work arriving from then on and drains
  what is already in flight (router shutdown).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class QuiesceGate:
    """Pause flag, in-flight count and closed flag under one condition."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._paused = False
        self._inflight = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    @contextmanager
    def entered(self) -> Iterator[None]:
        """Hold one in-flight slot for the block; waits while paused.

        Raises:
            RuntimeError: once the gate is closed.  The check runs after
                any pause ends and before the slot is taken, so
                :meth:`close` drains exactly the work it let in.
        """
        with self._cond:
            while self._paused:
                self._cond.wait()
            if self._closed:
                raise RuntimeError("the query service is shut down")
            self._inflight += 1
        try:
            yield
        finally:
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the block with no work in flight; new work waits at the gate."""
        with self._cond:
            self._paused = True
            while self._inflight:
                self._cond.wait()
        try:
            yield
        finally:
            with self._cond:
                self._paused = False
                self._cond.notify_all()

    def close(self) -> bool:
        """Reject new work, then wait for in-flight work to finish.

        Returns:
            True for the call that closed the gate, False for later ones
            (which return at once).
        """
        with self._cond:
            if self._closed:
                return False
            self._closed = True
            while self._inflight:
                self._cond.wait()
        return True


__all__ = ["QuiesceGate"]
