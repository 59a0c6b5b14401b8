"""Event-skipping cycle engine.

The engine owns the global cycle counter and a priority queue of pending
component ticks.  It is *cycle-accurate* — every component sees a coherent
integer cycle — but *event-skipping*: cycles on which no component has work
are never visited.  This is the standard discrete-event optimization of
clocked simulators (the UNISIM kernel the paper builds on does the same in
its distributed-event mode) and is what makes a pure-Python reproduction of
150-cycle-latency workloads tractable.

Correctness depends on a simple wake discipline: any component that makes
another component runnable must :meth:`~repro.sim.component.Component.wake`
it.  If the queue drains before the run's stop condition is met the engine
raises :class:`SimulationDeadlock` with a per-component state dump, turning
a missed wakeup into a loud, debuggable failure instead of a hang.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.sim.component import Component

__all__ = [
    "Engine",
    "Callback",
    "register_callback",
    "SimulationDeadlock",
    "SimulationLimitExceeded",
]


class SimulationDeadlock(RuntimeError):
    """The event queue drained before the stop condition was satisfied."""


class SimulationLimitExceeded(RuntimeError):
    """The run hit ``max_cycles`` before the stop condition was satisfied."""


#: Registry of re-armable callback kinds: name -> unbound function invoked
#: as ``fn(owner, *payload)``.  Every production ``call_at`` site registers
#: its kind here so a heap full of pending callbacks is pure data — a
#: checkpoint can serialize it and a restored process can re-arm it.
_CALLBACK_KINDS: dict[str, Callable] = {}


def register_callback(kind: str, fn: Callable) -> None:
    """Register ``fn`` as the executor for callback descriptors of ``kind``.

    ``fn`` is called as ``fn(owner, *payload)``; registering an unbound
    method (``register_callback("bus.deliver", Bus._deliver)``) makes the
    descriptor behave exactly like the bound-method closure it replaces.
    Re-registering a kind with a different function is an error — kinds
    are global names and a silent overwrite would re-arm restored
    checkpoints with the wrong behavior.
    """
    existing = _CALLBACK_KINDS.get(kind)
    if existing is not None and existing is not fn:
        raise ValueError(f"callback kind {kind!r} already registered")
    _CALLBACK_KINDS[kind] = fn


class Callback:
    """Serializable one-shot event descriptor scheduled via ``call_at``.

    Replaces the opaque closures the heap used to hold: a descriptor is
    ``(kind, owner, payload)`` where ``kind`` names a registered executor,
    ``owner`` is the component (or other snapshot-addressable object) the
    event belongs to and ``payload`` is a tuple of plain data.  Descriptors
    support lazy cancellation: a cancelled descriptor stays in the heap
    but is skipped (and counted as stale) at dispatch.
    """

    __slots__ = ("kind", "owner", "payload", "cancelled")

    def __init__(self, kind: str, owner: object, payload: tuple = ()) -> None:
        if kind not in _CALLBACK_KINDS:
            raise ValueError(f"unregistered callback kind {kind!r}")
        self.kind = kind
        self.owner = owner
        self.payload = payload
        self.cancelled = False

    def __call__(self) -> None:
        _CALLBACK_KINDS[self.kind](self.owner, *self.payload)

    def describe(self) -> str:
        owner = getattr(self.owner, "name", None) or repr(self.owner)
        return f"{self.kind}({owner})"

    # __slots__ classes need explicit pickle support.
    def __getstate__(self) -> tuple:
        return (self.kind, self.owner, self.payload, self.cancelled)

    def __setstate__(self, state: tuple) -> None:
        self.kind, self.owner, self.payload, self.cancelled = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = " cancelled" if self.cancelled else ""
        return f"<Callback {self.describe()}{flag}>"


class Engine:
    """Owns simulated time and dispatches component ticks."""

    #: Stale entries tolerated before a supersede triggers compaction.
    #: Below this the heapify cost outweighs the memory saved.
    COMPACT_MIN_STALE = 32

    def __init__(self) -> None:
        self._now = 0
        # Entries are (cycle, priority, order, seq, target).  ``order`` is
        # the component's registration index (0 for callbacks), so ticks
        # that tie on (cycle, priority) dispatch in *registration* order —
        # never in push order.  This matters for correctness, not style: a
        # fast-forwarding SPU schedules its window-end tick many cycles
        # early, and a push-order tie-break would let that early push jump
        # ahead of peer SPUs within the cycle, reordering shared-resource
        # arbitration versus the cycle-by-cycle path.  ``seq`` only
        # disambiguates a live entry from its own stale duplicates (and
        # keeps callbacks FIFO).
        self._heap: list[tuple[int, int, int, int, object]] = []
        self._seq = 0
        self._components: list[Component] = []
        #: Components with a live (non-superseded) entry in the heap.
        self._live = 0
        #: Pending one-shot callbacks (never stale).
        self._callbacks = 0
        #: Cycles actually visited (for event-skip efficiency metrics).
        self.ticks_dispatched = 0
        #: One-shot callbacks run via :meth:`call_at`.
        self.callbacks_dispatched = 0
        #: Lazily-deleted (superseded) heap entries popped and discarded.
        self.stale_skipped = 0
        #: Heap compaction passes performed.
        self.compactions = 0

    # -- registration ------------------------------------------------------

    def register(self, component: Component) -> Component:
        """Attach ``component`` to this engine and return it."""
        component._attach(self)
        component._order = len(self._components)
        self._components.append(component)
        return component

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Live queued events: component ticks plus pending callbacks.

        O(1) and exact — superseded (lazily-deleted) heap entries are
        excluded, so the metrics sampler's ``engine.pending_events``
        gauge reports real backlog, not heap garbage.
        """
        return self._live + self._callbacks

    @property
    def stale_count(self) -> int:
        """Lazily-deleted heap entries awaiting skip or compaction."""
        return len(self._heap) - self._live - self._callbacks

    # -- scheduling --------------------------------------------------------

    def schedule(self, component: Component, cycle: int | None = None) -> None:
        """Schedule a tick of ``component`` at ``cycle`` (default next cycle).

        Scheduling is idempotent per target cycle: if the component already
        has a tick scheduled at or before ``cycle`` the call is a no-op.
        Requests for the current or past cycles are clamped to ``now + 1``
        (a component cannot re-tick within its own cycle).
        """
        if component._engine is not self:
            raise RuntimeError(
                f"component {component.name!r} is not registered with this engine"
            )
        if cycle is None or cycle <= self._now:
            cycle = self._now + 1
        already = component._scheduled_at
        if already is not None and already <= cycle:
            return
        if already is None:
            self._live += 1
        else:
            # Superseding leaves the old entry stale in the heap.  When
            # stale garbage outnumbers live work, rebuild the heap: the
            # O(n) heapify amortizes against the pops it saves, and the
            # heap stays proportional to real backlog.
            stale = len(self._heap) - self._live - self._callbacks
            if stale > self.COMPACT_MIN_STALE and stale > (
                self._live + self._callbacks
            ):
                self._compact()
        component._scheduled_at = cycle
        self._seq += 1
        heapq.heappush(
            self._heap,
            (cycle, component.priority, component._order, self._seq, component),
        )

    def call_at(self, cycle: int, callback: Callback) -> None:
        """Run ``callback`` at the start of ``cycle`` (before ticks).

        Callbacks are one-shot and ordered before component ticks at the
        same cycle (priority ``-1``).  Only :class:`Callback` descriptors
        are accepted, so the heap is always serializable: a bare callable
        raises ``TypeError`` here, the one place it could enter the heap.
        """
        if not isinstance(callback, Callback):
            raise TypeError(
                f"call_at takes a Callback descriptor, not {callback!r}; "
                f"register the function with register_callback() first"
            )
        if cycle <= self._now:
            cycle = self._now + 1
        self._callbacks += 1
        self._seq += 1
        heapq.heappush(self._heap, (cycle, -1, 0, self._seq, callback))

    def cancel(self, callback: Callback) -> None:
        """Lazily cancel a pending :class:`Callback` descriptor.

        The heap entry stays behind (and is skipped at dispatch, counted
        in ``stale_skipped``) — exactly the lazy-deletion discipline
        superseded component ticks already use.  Idempotent.
        """
        if not callback.cancelled:
            callback.cancelled = True
            self._callbacks -= 1

    @staticmethod
    def _entry_live(entry: tuple) -> bool:
        """True when a heap entry will actually dispatch (not lazily dead)."""
        target = entry[4]
        if isinstance(target, Component):
            return target._scheduled_at == entry[0]
        return not target.cancelled

    def _compact(self) -> None:
        """Drop stale heap entries and re-heapify in place."""
        self._heap[:] = [e for e in self._heap if self._entry_live(e)]
        heapq.heapify(self._heap)
        self.compactions += 1

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_cycles: int | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint: Callable[[int], None] | None = None,
    ) -> int:
        """Run until ``until()`` is true (checked between cycles).

        Returns the final cycle count.  Raises :class:`SimulationDeadlock`
        if the queue drains first, or :class:`SimulationLimitExceeded` if
        ``max_cycles`` is hit.

        ``checkpoint_every`` (with ``on_checkpoint``) invokes the hook at
        the first *visited* cycle at or past each N-cycle boundary, after
        ``self.now`` has advanced to that cycle but before any of its
        events dispatch — the exact state a restore re-enters, so a
        restored run re-derives the same cycle and dispatches identically.
        When off it costs one ``is not None`` test per visited cycle.
        """
        if checkpoint_every is not None:
            if on_checkpoint is None:
                raise ValueError("checkpoint_every requires on_checkpoint")
            if checkpoint_every <= 0:
                raise ValueError("checkpoint_every must be positive")
            next_ckpt: int | None = self._now + checkpoint_every
        else:
            next_ckpt = None
        heap = self._heap
        while True:
            if until is not None and until():
                return self._now
            if not heap:
                if until is None:
                    return self._now
                raise SimulationDeadlock(self._deadlock_report())
            cycle = heap[0][0]
            if max_cycles is not None and cycle > max_cycles:
                raise SimulationLimitExceeded(self._limit_report(max_cycles))
            self._now = cycle
            if next_ckpt is not None and cycle >= next_ckpt:
                on_checkpoint(cycle)
                next_ckpt = cycle + checkpoint_every
            # Dispatch every event scheduled for this cycle, in
            # (priority, registration-order) order — same-priority ties
            # resolve by *registration* index, not push order, so the
            # within-cycle sequence is independent of how far ahead each
            # tick was scheduled.  Nothing dispatched here can add
            # same-cycle work: schedule() and call_at() both clamp
            # requests for the current (or a past) cycle to now + 1,
            # so this inner loop always terminates.
            while heap and heap[0][0] == cycle:
                target = heapq.heappop(heap)[4]
                if isinstance(target, Component):
                    if target._scheduled_at != cycle:
                        self.stale_skipped += 1
                        continue  # lazily-deleted stale entry
                    target._scheduled_at = None
                    self._live -= 1
                    self.ticks_dispatched += 1
                    nxt = target.tick(cycle)
                    if nxt is not None:
                        if nxt <= cycle:
                            raise RuntimeError(
                                f"component {target.name!r} returned non-advancing "
                                f"next tick {nxt} at cycle {cycle}"
                            )
                        self.schedule(target, nxt)
                else:
                    if target.cancelled:
                        self.stale_skipped += 1
                        continue  # lazily-cancelled descriptor
                    self._callbacks -= 1
                    self.callbacks_dispatched += 1
                    target()

    def drain(self, max_cycles: int | None = None) -> int:
        """Run until the event queue is empty; returns the final cycle."""
        return self.run(until=None, max_cycles=max_cycles)

    # -- diagnostics -------------------------------------------------------

    def _component_states(self) -> list[str]:
        lines = ["component states:"]
        for comp in self._components:
            lines.append(f"  {comp.name}: {comp.describe_state()}")
        return lines

    def _deadlock_report(self) -> str:
        lines = [
            f"simulation deadlock at cycle {self._now}: event queue drained "
            f"before the stop condition was met",
        ]
        lines.extend(self._component_states())
        return "\n".join(lines)

    def _limit_report(self, max_cycles: int) -> str:
        # Distinct from the deadlock report: here the queue is NOT drained —
        # events are still pending, the run just outlived its budget.
        lines = [
            f"exceeded max_cycles={max_cycles} at cycle {self._now} with "
            f"events still pending",
        ]
        lines.extend(self._component_states())
        pending = self.peek_events(8)
        if pending:
            lines.append("next pending events:")
            lines.extend(f"  {line}" for line in pending)
        return "\n".join(lines)

    def peek_events(self, limit: int = 8) -> list[str]:
        """The next ``limit`` *live* queued events, formatted, in dispatch
        order — stale lazily-deleted ticks and cancelled callbacks are
        filtered out so deadlock/livelock/limit reports never name dead
        events."""
        # nsmallest over a filtering generator: O(n log limit) with no
        # copy of the heap, instead of the old filter-everything-and-sort
        # O(n log n) pass (peek runs inside limit-exceeded reporting and
        # interactive debugging where the heap can be large).
        live = heapq.nsmallest(
            limit, (entry for entry in self._heap if self._entry_live(entry))
        )
        lines = []
        for cycle, _prio, _order, _seq, target in live:
            if isinstance(target, Component):
                lines.append(f"cycle {cycle}: tick {target.name}")
            else:
                lines.append(f"cycle {cycle}: callback {target.describe()}")
        return lines

    def pending_events(self) -> Iterable[tuple[int, object]]:
        """(cycle, target) pairs currently queued, unordered (for tests)."""
        for entry in self._heap:
            if self._entry_live(entry):
                yield entry[0], entry[4]
