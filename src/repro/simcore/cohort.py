"""Cohort events: struct-of-arrays batch scheduling for homogeneous timers.

Large simulations are dominated by *populations* of identical timers —
GridFTP chunk completions, Condor job completions, EC2 boot delays.  The
scalar path allocates one :class:`~repro.simcore.events.SimEvent` (often
a whole generator resume) per timer.  An :class:`EventCohort` registers N
such timers as one record: an optional payload and a single
``apply(cohort, k)`` callback shared by every member.  Registration is
flat: one slotted carrier per member, allocated without an ``__init__``
call, and no per-member closure.

Ordering contract
-----------------
Members are staged into the kernel's pending list at registration time
with freshly drawn insertion ids, in member-index order.  Insertion ids
are globally monotonic, so members keep their position relative to
every other event in the simulation — exactly as if each member were a
plain ``sim.timeout`` registered in index order — and members sharing a
timestamp execute in ascending index order.  Each member is one queue
entry and one kernel pop, so ``events_processed`` and
``peak_queue_depth`` count members.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

__all__ = ["EventCohort"]

ApplyFn = Callable[["EventCohort", int], None]


class _CohortMember(SimEvent):
    """One queue entry for member ``index``.

    Allocated inline by :class:`EventCohort` via ``__new__`` (members
    are created in bulk; even a flat ``__init__`` call is measurable at
    cohort scale) with only the attributes the drain loop reads:
    ``callbacks`` (one list shared by every member of the cohort —
    popping clears the event's *attribute*, never the list), ``_ok``,
    ``_defused``, and ``index``.
    """

    __slots__ = ("index",)


class EventCohort:
    """N homogeneous timers registered as one struct-of-arrays record.

    Created via :meth:`Simulator.schedule_cohort`; producers keep a
    reference for its :attr:`done` event (fires once every member has
    been applied) and for the payload ``apply`` indexes into.
    """

    __slots__ = (
        "payload",
        "apply",
        "size",
        "done",
        "_remaining",
        "cause",
    )

    def __init__(
        self,
        sim: "Simulator",
        times: Sequence[float],
        apply: ApplyFn,
        payload: object = None,
        cause: object = None,
    ) -> None:
        # Opaque causal baggage for observability: producers stash the obs
        # span id(s) that provoked this cohort (one id, or a per-member
        # sequence) so `apply` can thread cause links onto spans it opens.
        # The kernel never reads it; None (the obs-off default) costs one
        # slot write.
        self.cause = cause
        self.payload = payload
        self.apply = apply
        self.size = n = len(times)
        self.done = SimEvent(sim)
        self._remaining = n
        if n == 0:
            self.done.succeed(self)
            return
        tl = times.tolist() if isinstance(times, np.ndarray) else times
        now = sim._now
        pending = sim._pending
        eid = sim._eid
        cbs = [self._fire_member]
        new = _CohortMember.__new__
        for k in range(n):
            t = tl[k]
            if not t >= now:  # also rejects NaN
                del pending[len(pending) - k:]  # unstage members 0..k-1
                raise ValueError(
                    f"cohort fire time {t} is NaN or in the past (now={now})"
                )
            ev = new(_CohortMember)
            ev.callbacks = cbs
            ev._ok = True
            ev._defused = False
            ev.index = k
            pending.append((t, next(eid), ev))

    def _fire_member(self, ev: SimEvent) -> None:
        """Kernel callback: apply one member, then retire it."""
        self.apply(self, ev.index)  # type: ignore[attr-defined]
        self._remaining -= 1
        if self._remaining == 0:
            self.done.succeed(self)
