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
``peak_queue_depth`` count members.  The cohort's completion is one more
queue entry, triggered as its last member fires (an empty cohort's, at
registration), whether or not anybody built :attr:`EventCohort.done`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from .events import UNWATCHED, SimEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import Simulator

__all__ = ["EventCohort"]

ApplyFn = Callable[["EventCohort", int], None]


class _CohortMember(SimEvent):
    """One queue entry for member ``index`` of ``cohort``.

    Allocated inline by :class:`EventCohort` via ``__new__`` (members
    are created in bulk; even a flat ``__init__`` call is measurable at
    cohort scale) with only the attributes the drain loop and
    :func:`_apply_member` read: ``callbacks`` (:data:`_MEMBER_CALLBACKS`,
    one list shared by every member of every cohort — popping clears the
    event's *attribute*, never the list), ``_ok``, ``_defused``,
    ``cohort`` and ``index``.  A member points at its cohort and the
    cohort never points at its members, so no reference cycle forms.
    """

    __slots__ = ("cohort", "index")


def _apply_member(ev: _CohortMember) -> None:
    """Kernel callback of every member: apply it, then retire it.

    The last member triggers the cohort's completion: its ``done``, or,
    when nobody built that, the queue entry
    :meth:`~repro.simcore.kernel.Simulator.trigger_unwatched` pushes,
    pushed here without the call.
    """
    cohort = ev.cohort
    cohort.apply(cohort, ev.index)
    cohort._remaining -= 1
    if cohort._remaining == 0:
        done = cohort._done
        if done is None:
            sim = cohort.sim
            sim._immediate.append((next(sim._eid), UNWATCHED))
        else:
            done.succeed()


_MEMBER_CALLBACKS = [_apply_member]


class EventCohort:
    """N homogeneous timers registered as one struct-of-arrays record.

    Created via :meth:`Simulator.schedule_cohort`; producers keep a
    reference for its :attr:`done` event and for the payload ``apply``
    indexes into.
    """

    __slots__ = (
        "sim",
        "payload",
        "apply",
        "size",
        "_done",
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
        self.sim = sim
        self.payload = payload
        self.apply = apply
        self.size = n = len(times)
        self._done = None
        self._remaining = n
        if n == 0:
            sim.trigger_unwatched()
            return
        now = sim._now
        pending = sim._pending
        eid = sim._eid
        cbs = _MEMBER_CALLBACKS
        new = _CohortMember.__new__
        for k in range(n):
            t = times[k]
            if not t >= now:  # also rejects NaN
                del pending[len(pending) - k:]  # unstage members 0..k-1
                raise ValueError(
                    f"cohort fire time {t} is NaN or in the past (now={now})"
                )
            ev = new(_CohortMember)
            ev.callbacks = cbs
            ev._ok = True
            ev._defused = False
            ev.cohort = self
            ev.index = k
            pending.append((t, next(eid), ev))

    @property
    def done(self) -> SimEvent:
        """The event that fires with value ``None`` once every member has
        been applied.

        Built on first read.  Until then the cohort's completion is the
        kernel's shared unwatched event (see
        :meth:`Simulator.trigger_unwatched`), counted the same, so a
        cohort nobody waits on builds no event.  First read after the last
        member fired (or on an empty cohort), it comes back already
        processed.  It never carries the cohort itself: that would make
        the cohort a reference cycle, left for the collector instead of
        freed by refcount once its last member has fired.
        """
        done = self._done
        if done is None:
            sim = self.sim
            done = self._done = (
                SimEvent(sim) if self._remaining else sim.processed_event()
            )
        return done
