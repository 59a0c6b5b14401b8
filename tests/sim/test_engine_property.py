"""Property-based engine tests: ordering and completeness of dispatch."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.component import Component
from repro.sim.engine import Callback, Engine, register_callback

#: Callback kind that appends its payload to the owning list.
FIRE = "test.property.fire"
register_callback(FIRE, list.append)


class Recorder(Component):
    """Ticks `count` times every `period` cycles, logging (cycle, name)."""

    def __init__(self, name: str, period: int, count: int,
                 log: list[tuple[int, str]]) -> None:
        super().__init__(name)
        self.period = period
        self.remaining = count
        self.log = log

    def tick(self, now: int) -> int | None:
        self.log.append((now, self.name))
        self.remaining -= 1
        return now + self.period if self.remaining > 0 else None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 50),   # start cycle
            st.integers(1, 20),   # period
            st.integers(1, 10),   # tick count
        ),
        min_size=1,
        max_size=8,
    )
)
def test_every_requested_tick_happens_in_order(specs):
    eng = Engine()
    log: list[tuple[int, str]] = []
    comps = []
    for i, (start, period, count) in enumerate(specs):
        comp = eng.register(Recorder(f"c{i}", period, count, log))
        eng.schedule(comp, start)
        comps.append((comp, start, period, count))
    eng.drain()

    # 1. Global dispatch order is non-decreasing in time.
    cycles = [c for c, _ in log]
    assert cycles == sorted(cycles)
    # 2. Every component got exactly its requested ticks, at exactly the
    #    arithmetic progression it asked for.
    for i, (comp, start, period, count) in enumerate(comps):
        mine = [c for c, n in log if n == f"c{i}"]
        assert mine == [start + k * period for k in range(count)]
    # 3. The engine never visited more events than were requested.
    assert eng.ticks_dispatched == sum(c for _, _, c in specs)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 200), min_size=1, max_size=20),
    st.integers(0, 19),
)
def test_callbacks_fire_at_exact_cycles(cycles, pick):
    eng = Engine()
    fired: list[int] = []
    for c in cycles:
        eng.call_at(c, Callback(FIRE, fired, (c,)))
    eng.drain()
    assert sorted(fired) == sorted(cycles)
    assert eng.now == max(cycles)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 100), min_size=2, max_size=10, unique=True))
def test_rescheduling_keeps_earliest_wins(targets):
    """Scheduling the same component at many cycles: it ticks once, at
    the earliest, then (having returned None) never again."""
    eng = Engine()
    log: list[tuple[int, str]] = []
    comp = eng.register(Recorder("c", period=1, count=1, log=log))
    for t in targets:
        eng.schedule(comp, t)
    eng.drain()
    assert [c for c, _ in log] == [min(targets)]
