"""Columnar MissTrace view: lazy materialisation + binary round-trip."""

import pytest

from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.native import load_native_core
from repro.utils.rng import DeterministicRng
from repro.workloads.spec import SPEC_BENCHMARKS

# Stand-ins whose interpreted synthesis is seconds of warm-up (one C
# call each with the extension).
from test_trace_synthesis import HEAVY


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


class TestLlcMisses:
    """``llc_misses`` answers from the columnar view when it is current
    and from the event list otherwise: the same count either way."""

    @staticmethod
    def by_events(trace):
        return sum(1 for e in trace.events if not e.is_write)

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param(
                name,
                marks=[pytest.mark.slow]
                if name in HEAVY and load_native_core() is None else [],
            )
            for name in SPEC_BENCHMARKS
        ],
    )
    def test_every_registered_benchmark_trace(self, name):
        from repro.sim.runner import SimulationRunner

        trace = SimulationRunner(misses_per_benchmark=150, seed=2015).trace(name)
        expected = self.by_events(trace)
        assert expected >= 150
        assert trace.llc_misses == expected
        trace._columns = None  # no view: the generator path
        assert trace.llc_misses == expected
        trace.columns()
        assert trace.llc_misses == expected
        assert trace.mpki == 1000.0 * expected / trace.instructions

    def test_a_stale_view_is_not_consulted(self):
        trace = make_trace(events=50)
        trace.columns()
        before = trace.llc_misses
        trace.events.append(MissEvent(9, False))
        assert trace.llc_misses == before + 1 == self.by_events(trace)
        trace.columns()
        trace.events = [MissEvent(1, True), MissEvent(2, False)]
        assert trace.llc_misses == 1

    def test_empty_trace(self):
        trace = MissTrace(name="empty")
        trace.columns()
        assert trace.llc_misses == 0 and trace.mpki == 0.0


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
