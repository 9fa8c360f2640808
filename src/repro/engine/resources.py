"""Shared resources for the discrete-event engine.

:class:`Resource` models a pool of identical slots acquired in FIFO order;
the simulator uses one for each GPU's SM engine (kernel serialization) and
one per copy-engine direction (transfer serialization).
"""

from __future__ import annotations

from collections import deque
from sys import getrefcount
from typing import Deque, List

from repro.engine.core import Environment, Event, _PENDING
from repro.errors import SimulationError


class Request(Event):
    """A pending acquisition of one resource slot.

    Built only by :meth:`Resource.request` (fires when the slot is
    granted) and :meth:`Resource.try_acquire` (granted on creation).
    Must be returned via :meth:`Resource.release`.
    """

    __slots__ = ("resource",)


class Resource:
    """A FIFO resource with ``capacity`` identical slots."""

    __slots__ = ("env", "capacity", "name", "_queue", "_users", "_spare")

    def __init__(
        self, env: Environment, capacity: int = 1, name: "str | None" = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Observability label (e.g. ``"h2d"``); never read on hot paths.
        self.name = name
        self._queue: Deque[Request] = deque()
        self._users: List[Request] = []
        # Released Request objects recycled by request()/try_acquire().
        # Only requests whose sole remaining reference is the releasing
        # holder's local are stashed (refcount check in release), so a
        # recycled object can never be observed changing state by anyone
        # still legitimately holding it.
        self._spare: List[Request] = []

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """Whether no slot is granted and no request waits for one."""
        return not self._users and not self._queue

    def request(self) -> Request:
        """Create a request for one slot; yields when granted."""
        # Built without a constructor chain: under contention (queue
        # non-empty or at capacity) the request just parks, so the
        # Event.__init__ call and the grant scan would be pure overhead.
        spare = self._spare
        if spare:
            request = spare.pop()
        else:
            request = Request.__new__(Request)
            request.env = self.env
            request.resource = self
        request.callbacks = []
        request._value = _PENDING
        request._exception = None
        request._scheduled = False
        self._queue.append(request)
        if len(self._users) < self.capacity:
            self._grant_waiters()
        return request

    def try_acquire(self) -> "Request | None":
        """Grant a slot synchronously if one is free, else return ``None``.

        The fast path for uncontended resources: no event is scheduled and
        nothing is enqueued, so a grant costs one list append.  The
        returned request is already processed (``yield``-able as a no-op)
        and must be returned with :meth:`release` like any other.
        """
        if self._queue or len(self._users) >= self.capacity:
            return None
        spare = self._spare
        if spare:
            granted = spare.pop()
        else:
            granted = Request.__new__(Request)
            granted.env = self.env
            granted.resource = self
        granted.callbacks = None  # born processed; waiters resume inline
        granted._value = granted
        granted._exception = None
        granted._scheduled = True
        self._users.append(granted)
        return granted

    def release(self, request: Request) -> None:
        """Return a previously granted slot to the pool."""
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            raise SimulationError("release() of a slot that was never granted")
        # Every granted request carries itself as its value; dropping
        # that self-reference lets reference counting free a released
        # request, contended or not, without the cyclic collector.
        request._value = None
        # A release frees exactly one slot, so at most one waiter can be
        # granted — inlined from _grant_waiters.
        queue = self._queue
        if queue and len(users) < self.capacity:
            granted = queue.popleft()
            users.append(granted)
            granted._value = granted
            granted._scheduled = True
            env = granted.env
            sequence = env._sequence
            env._sequence = sequence + 1
            env._now_queue.append((sequence, granted))
        else:
            # Uncontended release: recycle the request when the holder's
            # local binding is its only remaining reference (3 == local +
            # parameter + the getrefcount argument; the self-reference
            # is already gone).  Engine-granted requests are still
            # referenced by run-loop locals here and anything parked in
            # AllOf lists or traces stays above the threshold, so only
            # genuinely private objects enter the pool.  Contended
            # releases skip the check outright — their requests came
            # through the engine and never pass it.
            spare = self._spare
            if len(spare) < 8 and getrefcount(request) == 3:
                spare.append(request)

    def _grant_waiters(self) -> None:
        queue = self._queue
        users = self._users
        while queue and len(users) < self.capacity:
            granted = queue.popleft()
            users.append(granted)
            # Inlined granted.succeed(granted): a queued request is never
            # already triggered (it leaves the queue only by being
            # granted), so the guard and the attribute dance of succeed()
            # are pure cost.
            granted._value = granted
            granted._scheduled = True
            env = granted.env
            sequence = env._sequence
            env._sequence = sequence + 1
            env._now_queue.append((sequence, granted))
