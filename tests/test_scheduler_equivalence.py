"""Heap scheduler ≡ brute-force reference — property and regression suite.

:mod:`repro.sim.engine` promises the ``(time, origin, seq)`` total
order, windowed ``run(until, inclusive)`` semantics, ``max_events``
budgets, lazy cancellation, ``peek_time`` and ``earliest_output_bound``
exactly as :class:`ReferenceScheduler` — a straight heapq engine, simple
enough to be obviously correct — implements them.  Identical randomized
schedule/cancel/run scripts run on both, and their full execution traces
must match.  At every checkpoint the reference answers ``peek_time`` and
``earliest_output_bound`` by brute force over its whole heap, so neither
query leans on the heap order it is checking.

The regression tests at the bottom pin same-tick burst corner cases: each
event of a same-(tick, sender) burst counts toward
``max_events``/``events_processed``, cancelled events are skipped (and
not counted), a mid-burst ``stop()`` or budget exhaustion leaves the rest
of the burst queued, and a burst callback scheduling a same-tick event
with a lower origin *preempts* the rest of the burst.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EXTERNAL_ORIGIN, EventHandle, Simulator


class ReferenceScheduler:
    """One global heap, one pop per event; queries answered by brute force.

    Kept as close to the historical implementation as possible (including
    the ``origin`` install and the ``max``-clamped idle-advance) so the
    property tests compare the engine against known-good semantics rather
    than against a re-derivation.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self._stopped = False
        self.events_processed = 0
        self.origin = EXTERNAL_ORIGIN

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError("negative delay")
        time = self.now + delay
        origin = self.origin
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, origin)
        heapq.heappush(self._heap, (time, origin, seq, handle))
        return handle

    def schedule_at(self, time, callback, *args):
        if time < self.now:
            raise ValueError("past")
        origin = self.origin
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, origin)
        heapq.heappush(self._heap, (time, origin, seq, handle))
        return handle

    def schedule_at_node(self, time, rank, callback, *args):
        if time < self.now:
            raise ValueError("past")
        origin = self.origin
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, origin, loc=rank)
        heapq.heappush(self._heap, (time, origin, seq, handle))
        return handle

    def schedule_link(self, delay, sort_origin, exec_origin, callback, *args):
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, exec_origin)
        heapq.heappush(self._heap, (time, sort_origin, seq, handle))
        return handle

    def schedule_arrival_at(self, time, sort_origin, exec_origin, callback, *args):
        if time < self.now:
            raise ValueError("past")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, exec_origin)
        heapq.heappush(self._heap, (time, sort_origin, seq, handle))
        return handle

    def run(self, until=None, max_events=None, inclusive=True):
        self._stopped = False
        processed = 0
        heap = self._heap
        try:
            while heap and not self._stopped:
                time = heap[0][0]
                if until is not None and (
                    time > until or (not inclusive and time == until)
                ):
                    if inclusive:
                        self.now = max(self.now, until)
                    return
                _t, _o, _s, handle = heapq.heappop(heap)
                if handle.cancelled:
                    continue
                self.now = time
                self.origin = handle.exec_origin
                handle.callback(*handle.args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    return
            if until is not None and inclusive and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self.events_processed += processed
            self.origin = EXTERNAL_ORIGIN

    def step(self):
        while self._heap:
            time, _o, _s, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = time
            self.origin = handle.exec_origin
            try:
                handle.callback(*handle.args)
            finally:
                self.origin = EXTERNAL_ORIGIN
            self.events_processed += 1
            return True
        return False

    def stop(self):
        self._stopped = True

    def pending(self):
        return len(self._heap)

    def peek_time(self):
        live = [time for time, _o, _s, handle in self._heap if not handle.cancelled]
        # The documented lazy discard: cancelled events ahead of the first
        # live one leave the queue (and the ``pending`` count).
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return min(live) if live else None

    def earliest_output_bound(self, dist_by_rank, default=0.0):
        return min(
            (
                time + dist_by_rank.get(handle.loc, default)
                for time, _o, _s, handle in self._heap
                if not handle.cancelled
            ),
            default=float("inf"),
        )


# Small value pools: heavy collisions are the point — equal timestamps
# exercise same-tick ordering, zero delays exercise events scheduled into
# the tick being drained, and small origin ranges force sender-rank ties.
DELAYS = (0.0, 0.0, 0.25, 1.0, 1.0, 2.0, 3.5)
ORIGINS = (0, 1, 2, 3)

# One in-callback (or external) action.  ``spawn``/``at``/``node``
# schedule with the executing context's origin (``node`` also names a
# locus rank for ``earliest_output_bound``); ``link``/``burst`` carry an
# explicit sender rank; ``cancel`` lazily cancels an earlier handle;
# ``stop`` halts the loop after the current callback; ``mark`` records a
# checkpoint, including both queue queries under a small distance map
# (ranks absent from the map fall back to ``default``).
_action = st.one_of(
    st.tuples(st.just("spawn"), st.sampled_from(range(len(DELAYS)))),
    st.tuples(st.just("at"), st.sampled_from(range(len(DELAYS)))),
    st.tuples(
        st.just("node"), st.sampled_from(range(len(DELAYS))), st.sampled_from(ORIGINS)
    ),
    st.tuples(
        st.just("link"),
        st.sampled_from(range(len(DELAYS))),
        st.sampled_from(ORIGINS),
        st.sampled_from(ORIGINS),
    ),
    st.tuples(
        st.just("burst"),
        st.sampled_from(range(len(DELAYS))),
        st.sampled_from(ORIGINS),
        st.sampled_from(ORIGINS),
        st.integers(min_value=2, max_value=5),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("stop")),
    st.tuples(
        st.just("mark"),
        st.dictionaries(
            st.sampled_from(ORIGINS), st.sampled_from(DELAYS), max_size=len(ORIGINS)
        ),
        st.sampled_from((0.0, 0.5)),
    ),
)

_specs = st.lists(st.lists(_action, max_size=4), min_size=1, max_size=24)

# A run window: (horizon delta or None, max_events or None, inclusive).
_windows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from((0.0, 0.25, 1.0, 2.0, 5.0))),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        st.booleans(),
    ),
    max_size=4,
)


class Driver:
    """Replays one generated script against either scheduler."""

    def __init__(self, sim, specs):
        self.sim = sim
        self.specs = specs
        self.next_spec = 0
        self.handles = []
        self.trace = []

    def _take_spec(self):
        i = self.next_spec
        if i < len(self.specs):
            self.next_spec = i + 1
            return i
        return -1

    def fire(self, eid):
        sim = self.sim
        self.trace.append(("exec", eid, sim.now, sim.origin))
        if eid >= 0:
            for act in self.specs[eid]:
                self.apply(act)

    def apply(self, act):
        sim = self.sim
        kind = act[0]
        if kind == "spawn":
            self.handles.append(sim.schedule(DELAYS[act[1]], self.fire, self._take_spec()))
        elif kind == "at":
            self.handles.append(
                sim.schedule_at(sim.now + DELAYS[act[1]], self.fire, self._take_spec())
            )
        elif kind == "node":
            self.handles.append(
                sim.schedule_at_node(
                    sim.now + DELAYS[act[1]], act[2], self.fire, self._take_spec()
                )
            )
        elif kind == "link":
            self.handles.append(
                sim.schedule_link(DELAYS[act[1]], act[2], act[3], self.fire, self._take_spec())
            )
        elif kind == "burst":
            # Back-to-back same-(delay, sender) sends: one node fanning a
            # multicast out over equal-delay faces.
            for _ in range(act[4]):
                self.handles.append(
                    sim.schedule_link(
                        DELAYS[act[1]], act[2], act[3], self.fire, self._take_spec()
                    )
                )
        elif kind == "cancel":
            if self.handles:
                self.handles[act[1] % len(self.handles)].cancel()
        elif kind == "stop":
            sim.stop()
        elif kind == "mark":
            self.checkpoint(act[1], act[2])

    def checkpoint(self, dist=None, default=0.0):
        sim = self.sim
        state = (sim.now, sim.events_processed, sim.pending())
        bound = sim.earliest_output_bound(dist or {}, default)
        self.trace.append(("mark",) + state + (sim.peek_time(), bound, sim.pending()))


def _replay(sim, specs, initial, windows):
    driver = Driver(sim, specs)
    for act in initial:
        driver.apply(act)
    t = 0.0
    for delta, max_ev, inclusive in windows:
        until = None if delta is None else t + delta
        if until is not None:
            t = until
        sim.run(until=until, max_events=max_ev, inclusive=inclusive)
        driver.checkpoint()
    sim.run()
    driver.checkpoint()
    return driver.trace


@settings(max_examples=120)
@given(specs=_specs, initial=st.lists(_action, min_size=1, max_size=6), windows=_windows)
def test_run_trace_equivalent_to_reference_heap(specs, initial, windows):
    ref = _replay(ReferenceScheduler(), specs, initial, windows)
    cal = _replay(Simulator(), specs, initial, windows)
    assert cal == ref


@settings(max_examples=60)
@given(specs=_specs, initial=st.lists(_action, min_size=1, max_size=6))
def test_step_trace_equivalent_to_reference_heap(specs, initial):
    traces = []
    for sim in (ReferenceScheduler(), Simulator()):
        driver = Driver(sim, specs)
        for act in initial:
            driver.apply(act)
        while sim.step():
            pass
        driver.checkpoint()
        traces.append(driver.trace)
    assert traces[0] == traces[1]


# ----------------------------------------------------------------------
# Named same-tick burst corner cases (regression tests)
# ----------------------------------------------------------------------


def _burst(sim, k, delay, sort_origin, log, tag="m", on_fire=None):
    """Schedule ``k`` back-to-back arrivals from one sender on one tick."""
    handles = []
    for i in range(k):
        def cb(i=i):
            log.append(f"{tag}{i}")
            if on_fire is not None:
                on_fire(i)
        handles.append(sim.schedule_link(delay, sort_origin, sort_origin, cb))
    return handles


def test_batch_members_count_toward_max_events():
    """Each event of a same-tick burst counts once toward ``max_events``."""
    sim = Simulator()
    log = []
    _burst(sim, 4, 1.0, 5, log)
    sim.run(max_events=2)
    assert log == ["m0", "m1"]
    assert sim.events_processed == 2
    assert sim.pending() == 2
    sim.run()
    assert log == ["m0", "m1", "m2", "m3"]
    assert sim.events_processed == 4
    assert sim.pending() == 0


def test_cancelled_member_inside_batch_is_skipped_and_not_counted():
    """A cancelled event inside a same-tick burst is skipped, uncounted."""
    sim = Simulator()
    log = []
    handles = _burst(sim, 3, 1.0, 5, log)
    handles[1].cancel()
    sim.run()
    assert log == ["m0", "m2"]
    assert sim.events_processed == 2
    assert sim.pending() == 0


def test_member_callback_can_cancel_later_member_of_same_batch():
    """A burst callback can cancel a later event of the same burst."""
    sim = Simulator()
    log = []
    handles = _burst(sim, 3, 1.0, 5, log, on_fire=lambda i: i == 0 and handles[2].cancel())
    sim.run()
    assert log == ["m0", "m1"]
    assert sim.events_processed == 2


def test_same_tick_lower_origin_preempts_batch_remainder():
    """A same-tick event with a lower origin runs before the burst's rest.

    A burst callback schedules a zero-delay arrival whose sender rank
    sorts *before* the burst's, so it runs next, mid-burst.
    """
    for make_sim in (ReferenceScheduler, Simulator):
        sim = make_sim()
        log = []

        def on_fire(i):
            if i == 0:
                sim.schedule_link(0.0, 0, 0, lambda: log.append("preempt"))

        _burst(sim, 3, 1.0, 5, log, on_fire=on_fire)
        sim.run()
        assert log == ["m0", "preempt", "m1", "m2"], make_sim.__name__


def test_same_tick_higher_origin_does_not_preempt_batch():
    """A same-tick event with a higher origin waits for the whole burst."""
    for make_sim in (ReferenceScheduler, Simulator):
        sim = make_sim()
        log = []

        def on_fire(i):
            if i == 0:
                sim.schedule_link(0.0, 9, 9, lambda: log.append("after"))

        _burst(sim, 3, 1.0, 5, log, on_fire=on_fire)
        sim.run()
        assert log == ["m0", "m1", "m2", "after"], make_sim.__name__


def test_exclusive_horizon_excludes_batch_tick():
    """An exclusive horizon on the burst's tick leaves the whole burst queued."""
    sim = Simulator()
    log = []
    _burst(sim, 3, 1.0, 5, log)
    sim.run(until=1.0, inclusive=False)
    assert log == []
    assert sim.pending() == 3
    sim.run(until=1.0, inclusive=True)
    assert log == ["m0", "m1", "m2"]


def test_stop_mid_batch_requeues_tail_in_order():
    """``stop()`` mid-burst leaves the rest queued; the next run resumes it."""
    sim = Simulator()
    log = []
    _burst(sim, 4, 1.0, 5, log, on_fire=lambda i: i == 1 and sim.stop())
    sim.run()
    assert log == ["m0", "m1"]
    assert sim.pending() == 2
    sim.run()
    assert log == ["m0", "m1", "m2", "m3"]
    assert sim.events_processed == 4


def test_earliest_output_bound_uses_locus_and_skips_cancelled():
    """The bound credits each live event with its locus's boundary distance."""
    sim = Simulator()
    sim.schedule_at_node(1.0, 3, lambda: None)  # locus 3, sorts EXTERNAL
    sim.schedule_link(2.0, 0, 1, lambda: None)  # locus = receiver rank 1
    doomed = sim.schedule_at(0.5, lambda: None)  # locus EXTERNAL_ORIGIN
    dist = {1: 0.25, 3: 4.0}
    assert sim.earliest_output_bound(dist) == 0.5
    assert sim.earliest_output_bound(dist, default=9.0) == 2.25
    doomed.cancel()
    assert sim.earliest_output_bound(dist) == 2.25
    assert sim.peek_time() == 1.0
    assert sim.pending() == 2
    assert Simulator().earliest_output_bound(dist) == float("inf")
