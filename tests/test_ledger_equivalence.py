"""Indexed SubscriptionLedger ≡ the scan ledger it replaced.

:class:`~repro.sim.invariants.SubscriptionLedger` answers its window and
coverage queries from indexes — per-host epoch-time arrays, coverage as
``subs ∩ cd.prefixes()``, and a CD → candidate-host cache that
:meth:`~repro.sim.invariants.SubscriptionLedger.note` invalidates.  This
file pins that the indexes change nothing observable, against
:class:`ReferenceLedger` — a straight port of the scan implementation,
simple enough to be obviously correct — by replaying random scripts of
``note`` calls interleaved with every query on both and comparing each
answer.  The scripts reach the corners an index can get wrong: epochs
appended mid-run between queries, duplicate epoch times, a root ``/``
subscription, windows that start before a host's first epoch or end
before they start, offline epochs, unknown hosts, and CDs given to
``note`` as ``str`` or :class:`~repro.names.Name`.
"""

from __future__ import annotations

from bisect import bisect_right

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.names import Name
from repro.sim.invariants import SubscriptionLedger, covered, expected_deliveries


def reference_covered(cd, subscriptions):
    return any(sub == cd or sub.is_prefix_of(cd) for sub in subscriptions)


class ReferenceLedger:
    """The scan ledger: every query rebuilds what it needs from the epochs."""

    def __init__(self) -> None:
        self._epochs = {}

    def hosts(self):
        return sorted(self._epochs)

    def note(self, host, t, cds, online=True):
        epochs = self._epochs.setdefault(host, [])
        if epochs and t < epochs[-1][0]:
            raise ValueError("ledger epochs must be time-ordered")
        epochs.append((t, frozenset(Name.coerce(cd) for cd in cds), online))

    def note_offline(self, host, t):
        self.note(host, t, (), online=False)

    def epochs_overlapping(self, host, start, end):
        epochs = self._epochs.get(host, [])
        if not epochs:
            return []
        times = [t for t, _, _ in epochs]
        lo = max(0, bisect_right(times, start) - 1)
        hi = bisect_right(times, end)
        return epochs[lo:hi]

    def covered_in_window(self, host, cd, start, end):
        return any(
            online and reference_covered(cd, subs)
            for _, subs, online in self.epochs_overlapping(host, start, end)
        )

    def stable_through(self, host, cd, start, end):
        epochs = self.epochs_overlapping(host, start, end)
        if not epochs or epochs[0][0] > start:
            return False
        if not all(online for _, _, online in epochs):
            return False
        _, first_subs, _ = epochs[0]
        return any(
            all(sub in subs for _, subs, _ in epochs)
            for sub in first_subs
            if sub == cd or sub.is_prefix_of(cd)
        )

    def uncovered_since(self, host, cd):
        epochs = self._epochs.get(host, [])
        if not epochs:
            return None
        since = None
        for t, subs, online in epochs:
            if online and reference_covered(cd, subs):
                since = None
            elif since is None:
                since = t
        return since


def reference_expected_deliveries(
    ledger, publishes, stability_window_ms, horizon_ms, join_margin_ms=0.0
):
    out = []
    hosts = ledger.hosts()
    for sequence, t_pub, cd, publisher in publishes:
        until = min(t_pub + stability_window_ms, horizon_ms)
        for host in hosts:
            if host == publisher:
                continue
            if ledger.stable_through(host, cd, t_pub - join_margin_ms, until):
                out.append((sequence, t_pub, host))
    return out


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

NAMES = ["/", "/1", "/1/2", "/1/3", "/1/2/4", "/2", "/2/1", "/3"]
HOSTS = ["h0", "h1", "pub"]
#: Queries also ask about a host the ledger never heard of.
QUERY_HOSTS = HOSTS + ["ghost"]

#: Coarse times so epoch boundaries, window edges and duplicates collide.
times = st.sampled_from([0.0, 5.0, 10.0, 10.0, 15.0, 20.0, 30.0])
cd_text = st.sampled_from(NAMES)
cd_name = cd_text.map(Name.parse)
#: ``note`` takes CDs as str or Name, mixed within one call.
note_cds = st.lists(st.one_of(cd_text, cd_name), max_size=4)

note_op = st.tuples(
    st.just("note"),
    st.sampled_from(HOSTS),
    st.sampled_from([0.0, 0.0, 2.5, 5.0, 10.0]),  # advance; 0 = duplicate time
    note_cds,
    st.sampled_from([True, True, True, False]),  # online
)
offline_op = st.tuples(
    st.just("offline"), st.sampled_from(HOSTS), st.sampled_from([0.0, 5.0])
)
#: Windows may start before a host's first epoch and may end before they start.
query_op = st.tuples(
    st.just("query"), st.sampled_from(QUERY_HOSTS), cd_name, times, times
)
publish_batch = st.lists(
    st.tuples(times, cd_name, st.sampled_from(QUERY_HOSTS)), max_size=6
)
verdict_op = st.tuples(
    st.just("verdict"),
    publish_batch,
    st.sampled_from([0.0, 5.0, 12.0]),    # stability window
    st.sampled_from([8.0, 25.0, 100.0]),  # horizon
    st.sampled_from([0.0, 3.0]),          # join margin
)
scripts = st.lists(
    st.one_of(note_op, note_op, offline_op, query_op, query_op, verdict_op),
    max_size=40,
)


def replay(script):
    """Run ``script`` on both ledgers; yield (op, indexed, reference) answers."""
    indexed, reference = SubscriptionLedger(), ReferenceLedger()
    clocks = {host: 0.0 for host in HOSTS}
    for op in script:
        kind = op[0]
        if kind == "note":
            _, host, advance, cds, online = op
            clocks[host] += advance
            indexed.note(host, clocks[host], cds, online=online)
            reference.note(host, clocks[host], cds, online=online)
        elif kind == "offline":
            _, host, advance = op
            clocks[host] += advance
            indexed.note_offline(host, clocks[host])
            reference.note_offline(host, clocks[host])
        elif kind == "query":
            _, host, cd, start, end = op
            yield (
                ("epochs_overlapping", host, start, end),
                indexed.epochs_overlapping(host, start, end),
                reference.epochs_overlapping(host, start, end),
            )
            for method in ("covered_in_window", "stable_through"):
                yield (
                    (method, host, cd, start, end),
                    getattr(indexed, method)(host, cd, start, end),
                    getattr(reference, method)(host, cd, start, end),
                )
            yield (
                ("uncovered_since", host, cd),
                indexed.uncovered_since(host, cd),
                reference.uncovered_since(host, cd),
            )
        else:
            _, batch, window, horizon, margin = op
            publishes = [
                (seq, t, cd, publisher) for seq, (t, cd, publisher) in enumerate(batch)
            ]
            yield (
                ("expected_deliveries", publishes, window, horizon, margin),
                expected_deliveries(
                    indexed, publishes, window, horizon, join_margin_ms=margin
                ),
                reference_expected_deliveries(
                    reference, publishes, window, horizon, join_margin_ms=margin
                ),
            )
    yield ("hosts",), indexed.hosts(), reference.hosts()


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=300)
@given(scripts)
def test_indexed_ledger_matches_scan_ledger(script):
    for call, got, want in replay(script):
        assert got == want, call


#: One host's history: (advance, cds, online) per epoch.
histories = st.lists(
    st.tuples(st.sampled_from([0.0, 5.0, 10.0]), note_cds, st.booleans()),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200)
@given(histories)
def test_every_window_on_one_history(history):
    # Exhaustive queries over a grid that straddles every epoch edge:
    # scripts sample windows, this sweeps all of them.
    indexed, reference = SubscriptionLedger(), ReferenceLedger()
    t = 5.0
    for advance, cds, online in history:
        t += advance
        indexed.note("h", t, cds, online=online)
        reference.note("h", t, cds, online=online)
    grid = [0.0, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 40.0, 70.0]
    for text in NAMES:
        cd = Name.parse(text)
        assert indexed.uncovered_since("h", cd) == reference.uncovered_since("h", cd)
        # The verdict asks only candidates: none may be left out.
        if any(
            reference.stable_through("h", cd, start, end)
            for start in grid for end in grid
        ):
            assert "h" in indexed.candidates(cd)
        for start in grid:
            for end in grid:
                call = (text, start, end)
                assert indexed.epochs_overlapping("h", start, end) == (
                    reference.epochs_overlapping("h", start, end)
                ), call
                assert indexed.covered_in_window("h", cd, start, end) == (
                    reference.covered_in_window("h", cd, start, end)
                ), call
                assert indexed.stable_through("h", cd, start, end) == (
                    reference.stable_through("h", cd, start, end)
                ), call


@settings(max_examples=200)
@given(cd_name, st.lists(cd_name, max_size=5))
def test_covered_matches_scan(cd, subs):
    want = reference_covered(cd, subs)
    assert covered(cd, subs) == want
    assert covered(cd, frozenset(subs)) == want
    assert covered(cd, iter(subs)) == want


# ----------------------------------------------------------------------
# Named corners
# ----------------------------------------------------------------------


def test_root_subscription_covers_everything():
    ledger = SubscriptionLedger()
    ledger.note("h", 0.0, ["/"])
    for text in NAMES:
        cd = Name.parse(text)
        assert ledger.covered_in_window("h", cd, 0.0, 1.0)
        assert ledger.stable_through("h", cd, 0.0, 1.0)
    assert ledger.candidates(Name.parse("/1/2/4")) == ["h"]


def test_note_invalidates_candidate_index():
    # The harness notes moves mid-run while the monitor queries: a
    # candidate list cached before a note must not survive it.
    ledger = SubscriptionLedger()
    cd = Name.parse("/2/1")
    ledger.note("a", 0.0, ["/1"])
    publishes = [(0, 20.0, cd, "pub")]
    assert expected_deliveries(ledger, publishes, 5.0, 100.0) == []
    ledger.note("b", 0.0, [Name.parse("/2")])
    assert ledger.candidates(cd) == ["b"]
    assert expected_deliveries(ledger, publishes, 5.0, 100.0) == [(0, 20.0, "b")]


def test_window_edges():
    ledger = SubscriptionLedger()
    cd = Name.parse("/1/2")
    ledger.note("h", 10.0, ["/1"])
    ledger.note("h", 10.0, ["/1/2"])  # duplicate time: the later epoch wins
    # A window opening before the first epoch is never stable.
    assert not ledger.stable_through("h", cd, 5.0, 20.0)
    assert ledger.covered_in_window("h", cd, 5.0, 20.0)
    # Inverted windows: one ending before the first epoch sees nothing;
    # one inside the last epoch still sees that epoch.
    assert ledger.epochs_overlapping("h", 8.0, 5.0) == []
    assert [t for t, _, _ in ledger.epochs_overlapping("h", 12.0, 11.0)] == [10.0]
    assert ledger.stable_through("h", cd, 12.0, 11.0)
    assert ledger.epochs_overlapping("ghost", 0.0, 50.0) == []
    assert not ledger.covered_in_window("ghost", cd, 0.0, 50.0)
    assert ledger.uncovered_since("ghost", cd) is None
