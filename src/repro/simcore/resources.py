"""Shared-resource primitive: a capacity-limited FIFO resource.

This mirrors the SimPy resource model trimmed to what this reproduction
needs: FIFO resources with integer capacity (Galaxy job slots, GridFTP
connection limits).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from .events import _PENDING, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class Request(SimEvent):
    """Pending claim on a :class:`Resource`; succeeds when capacity frees."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Flat initializer (see Timeout): grants happen once per task slot
        # handoff, which makes this a per-event allocation at scale.
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        resource._request(self)

    def release(self) -> None:
        """Give back the claimed unit (or cancel a pending request)."""
        self.resource._release(self)


class Resource:
    """A resource with ``capacity`` identical units and FIFO queueing."""

    __slots__ = ("sim", "capacity", "users", "queue")

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Units currently claimed."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    # -- internals ---------------------------------------------------------
    # Invariant (restored after every mutation): the wait queue is only
    # non-empty when every unit is claimed.  It lets ``_request`` grant
    # immediately whenever capacity is free — the queue must be empty, so
    # no waiter can be passed over.
    def _request(self, req: Request) -> None:
        users = self.users
        if len(users) < self.capacity:
            users.append(req)
            req.succeed(req)
        else:
            self.queue.append(req)

    def _release(self, req: Request) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            # Cancelling a pending request frees no capacity.
            try:
                self.queue.remove(req)
            except ValueError:
                pass
            return
        self._trigger()

    def _trigger(self) -> None:
        users = self.users
        queue = self.queue
        while queue and len(users) < self.capacity:
            req = queue.popleft()
            users.append(req)
            req.succeed(req)
