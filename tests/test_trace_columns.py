"""Columnar MissTrace view: lazy materialisation + binary round-trip."""

from repro.proc.hierarchy import MissEvent, MissTrace
from repro.utils.rng import DeterministicRng


def make_trace(events: int = 500, seed: int = 3) -> MissTrace:
    rng = DeterministicRng(seed)
    trace = MissTrace(
        name="cols", instructions=1000, mem_refs=400, l1_hits=300, l2_hits=50
    )
    trace.events = [
        MissEvent(rng.randrange(1 << 30), rng.random() < 0.4)
        for _ in range(events)
    ]
    return trace


class TestColumns:
    def test_columns_match_events(self):
        trace = make_trace()
        line_addrs, is_write = trace.columns()
        assert list(line_addrs) == [e.line_addr for e in trace.events]
        assert [bool(w) for w in is_write] == [e.is_write for e in trace.events]

    def test_columns_cached(self):
        trace = make_trace()
        first = trace.columns()
        assert trace.columns()[0] is first[0]

    def test_append_invalidates_cache(self):
        trace = make_trace(events=10)
        trace.columns()
        trace.events.append(MissEvent(7, True))
        line_addrs, is_write = trace.columns()
        assert len(line_addrs) == 11
        assert list(line_addrs)[-1] == 7 and bool(list(is_write)[-1])

    def test_rebinding_events_invalidates_cache(self):
        trace = make_trace(events=4)
        trace.columns()
        trace.events = [MissEvent(1, False), MissEvent(2, True)]
        line_addrs, _ = trace.columns()
        assert list(line_addrs) == [1, 2]

    def test_empty_trace(self):
        trace = MissTrace(name="empty")
        line_addrs, is_write = trace.columns()
        assert len(line_addrs) == 0 and len(is_write) == 0

    def test_columns_cache_excluded_from_equality(self):
        a, b = make_trace(), make_trace()
        a.columns()
        assert a == b  # one has a materialised view, one does not


class TestRoundTrip:
    def test_binary_round_trip_preserves_events_and_columns(self):
        trace = make_trace()
        loaded = MissTrace.from_bytes(trace.to_bytes())
        assert loaded == trace
        line_addrs, is_write = loaded.columns()
        assert list(line_addrs) == [e.line_addr for e in trace.events]
        assert [bool(w) for w in is_write] == [e.is_write for e in trace.events]

    def test_round_trip_uncompressed(self):
        trace = make_trace(events=64)
        assert MissTrace.from_bytes(trace.to_bytes(compress=False)) == trace

    def test_serialisation_is_stable_under_column_materialisation(self):
        """to_bytes is byte-identical whether or not columns were built."""
        cold, warm = make_trace(), make_trace()
        warm.columns()
        assert cold.to_bytes() == warm.to_bytes()
        assert cold.to_bytes(compress=False) == warm.to_bytes(compress=False)

    def test_loaded_trace_replays_identically(self):
        """Cache-loaded traces feed the fast replay loop bit-identically."""
        from repro.presets import build_frontend
        from repro.sim.system import replay_trace
        from repro.sim.timing import OramTimingModel

        trace = make_trace(events=200, seed=9)
        # Rescale addresses into the frontend's space.
        trace.events = [
            MissEvent(e.line_addr % (1 << 10), e.is_write) for e in trace.events
        ]
        loaded = MissTrace.from_bytes(trace.to_bytes())
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        results = []
        for source in (trace, loaded):
            frontend = build_frontend(
                "PC_X32", num_blocks=2**10, rng=DeterministicRng(7)
            )
            results.append(replay_trace(frontend, source, timing))
        assert results[0] == results[1]


class TestCacheAliasing:
    def test_rebind_to_recycled_list_object_invalidates(self):
        """CPython's list free-list can hand a new list the old list's
        address; the cache must key on the reference, not id()."""
        trace = MissTrace(name="alias")
        trace.events = [MissEvent(1, False), MissEvent(2, False)]
        trace.columns()
        trace.events = []  # old list freed -> address reusable
        trace.events = [MissEvent(7, True), MissEvent(8, True)]
        line_addrs, is_write = trace.columns()
        assert list(line_addrs) == [7, 8]
        assert [bool(w) for w in is_write] == [True, True]
