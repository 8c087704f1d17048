"""A MissTrace is its two columns: the events view + binary round-trip.

Every trace holds its stream as an address column and a write column.
One built from events (``events=``, ``trace.events = [...]``) copies them
into new columns; one that arrives as columns (a decoded cache image,
the synthesis kernel's output) keeps them. Either way ``events`` is a
read-only tuple built from the columns on first read, and the two must
be the same trace in every observable way.
"""

from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.native import load_native_core, unavailable_reason
from repro.utils.rng import DeterministicRng
from repro.workloads.spec import SPEC_BENCHMARKS

# Stand-ins whose interpreted synthesis is seconds of warm-up (one C
# call each with the extension).
from helpers import HEAVY, counting_events


COUNTERS = (1000, 400, 300, 50)


def make_trace(events: int = 500, seed: int = 3, born: str = "events") -> MissTrace:
    rng = DeterministicRng(seed)
    pairs = [(rng.randrange(1 << 30), rng.random() < 0.4) for _ in range(events)]
    return twin(pairs, born, name="cols")


def twin(pairs, born: str, name: str = "prop") -> MissTrace:
    """The trace of ``(line_addr, is_write)`` pairs, built from events or
    arriving as columns."""
    if born == "columns":
        return MissTrace.from_columns(
            name, COUNTERS,
            array("q", [addr for addr, _w in pairs]),
            array("b", [1 if w else 0 for _addr, w in pairs]),
        )
    return MissTrace(name, *COUNTERS, events=[MissEvent(a, w) for a, w in pairs])


BORN = pytest.mark.parametrize("born", ["events", "columns"])


class TestColumns:
    def test_columns_match_events(self):
        trace = make_trace()
        line_addrs, is_write = trace.columns()
        assert list(line_addrs) == [e.line_addr for e in trace.events]
        assert [bool(w) for w in is_write] == [e.is_write for e in trace.events]

    @pytest.mark.parametrize(
        "source", ["events", "columns", "decoded", "hierarchy", "synthesised"]
    )
    def test_every_producer_gives_stdlib_array_columns(self, source):
        from repro.proc.hierarchy import CacheHierarchy
        from repro.sim.runner import SimulationRunner

        if source == "decoded":
            trace = MissTrace.from_bytes(make_trace(events=50).to_bytes())
        elif source == "hierarchy":
            refs = [(0, i % 3 == 0, 64 * 4099 * i) for i in range(4000)]
            trace = CacheHierarchy().run(refs)
        elif source == "synthesised":
            trace = SimulationRunner(misses_per_benchmark=50, seed=1).trace("gob")
        else:
            trace = make_trace(events=50, born=source)
        line_addrs, is_write = trace.columns()
        assert (type(line_addrs), line_addrs.typecode) == (array, "q")
        assert (type(is_write), is_write.typecode) == (array, "b")
        assert trace.num_events > 0 and set(is_write) <= {0, 1}

    def test_columns_cached(self):
        trace = make_trace()
        first = trace.columns()
        assert trace.columns()[0] is first[0]

    @BORN
    def test_events_are_read_only(self, born):
        trace = make_trace(events=10, born=born)
        with pytest.raises(AttributeError):
            trace.events.append(MissEvent(7, True))
        assert trace.num_events == len(trace.events) == 10

    @BORN
    def test_rebinding_events_invalidates_cache(self, born):
        trace = make_trace(events=4, born=born)
        old_addrs, old_writes = trace.columns()
        trace.events = [MissEvent(1, False), MissEvent(2, True)]
        line_addrs, is_write = trace.columns()
        assert line_addrs is not old_addrs and is_write is not old_writes
        assert list(line_addrs) == [1, 2]
        assert [bool(w) for w in is_write] == [False, True]
        assert trace.events == (MissEvent(1, False), MissEvent(2, True))
        assert trace.num_events == 2 and trace.llc_misses == 1

    def test_the_callers_list_is_copied(self):
        events = [MissEvent(1, False), MissEvent(2, True), MissEvent(3, False)]
        trace = MissTrace("x", *COUNTERS, events=events)
        twin_trace = MissTrace("x", *COUNTERS, events=list(events))
        columns = [list(column) for column in trace.columns()]
        before = (trace.events, columns, trace.num_events, trace.llc_misses)
        events[0] = MissEvent(9, True)
        events.append(MissEvent(4, True))
        after = (
            trace.events,
            [list(column) for column in trace.columns()],
            trace.num_events,
            trace.llc_misses,
        )
        assert after == before
        assert before[0][0] == MissEvent(1, False) and before[2:] == (3, 2)
        assert trace == twin_trace

    def test_empty_trace(self):
        trace = MissTrace(name="empty")
        line_addrs, is_write = trace.columns()
        assert len(line_addrs) == 0 and len(is_write) == 0

    @BORN
    def test_repr_shows_the_count_not_the_events(self, born):
        trace = make_trace(events=2000, born=born)
        with counting_events() as made:
            text = repr(trace)
        assert made == []
        assert text == (
            "MissTrace(name='cols', instructions=1000, mem_refs=400, "
            "l1_hits=300, l2_hits=50, events=<2000 events>)"
        )

    def test_columns_cache_excluded_from_equality(self):
        a, b = make_trace(), make_trace()
        a.columns()
        assert a == b  # one has a materialised view, one does not


class TestLlcMisses:
    """``llc_misses`` counts the write column: the demand misses among
    the events."""

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
        assert trace.mpki == 1000.0 * expected / trace.instructions

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
    @BORN
    def test_rebind_to_recycled_list_object_invalidates(self, born):
        """Each rebind replaces the columns, even when CPython's list
        free-list hands the new list the old list's address."""
        trace = twin([(1, False), (2, False)], born, name="alias")
        trace.columns()
        trace.events = []  # old list freed -> address reusable
        trace.events = [MissEvent(7, True), MissEvent(8, True)]
        line_addrs, is_write = trace.columns()
        assert list(line_addrs) == [7, 8]
        assert [bool(w) for w in is_write] == [True, True]


# (line_addr, is_write) pairs over the whole address range the container
# carries (one 64-bit word of ``line_addr << 1 | is_write``).
PAIRS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**63 - 1), st.booleans()),
    max_size=60,
)
EDGE_CASES = [[], [(5, True)] * 9, [(5, False)] * 9, [(2**63 - 1, True), (0, False)]]


def with_edge_cases(test):
    for pairs in EDGE_CASES:
        test = example(pairs=pairs)(test)
    return test


class TestColumnBornEqualsEventBuilt:
    """Property: a column-born trace and its event-built twin are the same
    trace, and comparing or serialising the column-born one builds no
    :class:`MissEvent`."""

    @settings(max_examples=60, deadline=None)
    @given(pairs=PAIRS)
    @with_edge_cases
    def test_same_trace(self, pairs):
        built = twin(pairs, "events")
        with counting_events() as made:
            born = twin(pairs, "columns")
            assert born == built and built == born
            assert born.to_bytes() == built.to_bytes()
            assert born.to_bytes(compress=False) == built.to_bytes(compress=False)
            assert born.num_events == built.num_events == len(pairs)
            assert born.llc_misses == built.llc_misses
            assert born.llc_misses == sum(1 for _a, w in pairs if not w)
            assert born.mpki == built.mpki
            for trace in (born, built):
                assert MissTrace.from_bytes(trace.to_bytes()) == trace
            assert repr(born) == repr(built)
        assert made == []
        assert born.events == built.events

    @settings(max_examples=30, deadline=None)
    @given(pairs=PAIRS, field=st.sampled_from(["name", "l2_hits", "write", "length"]))
    def test_a_difference_is_seen(self, pairs, field):
        born = twin(pairs, "columns")
        other = list(pairs)
        if field == "write" and other:
            addr, w = other[-1]
            other[-1] = (addr, not w)
        elif field in ("write", "length"):
            other.append((0, False))
        for changed in (twin(other, "columns"), twin(other, "events")):
            if field == "name":
                changed.name += "x"
            elif field == "l2_hits":
                changed.l2_hits += 1
            assert born != changed and changed != born

    @pytest.mark.parametrize("mode", [
        "scalar",
        pytest.param("compiled", marks=pytest.mark.skipif(
            load_native_core() is None,
            reason=unavailable_reason(),
        )),
    ])
    @settings(max_examples=10, deadline=None)
    @given(pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**10 - 1), st.booleans()),
        max_size=40,
    ))
    @example(pairs=[])
    @example(pairs=[(5, True)] * 9)
    @example(pairs=[(5, False)] * 9)
    def test_same_replay(self, mode, pairs):
        from repro.presets import build_frontend
        from repro.sim.system import replay_trace
        from repro.sim.timing import OramTimingModel
        from lockstep import frontend_digests

        timing = OramTimingModel(tree_latency_cycles=1000.0)
        outcomes = []
        for born in ("events", "columns"):
            trace = twin(pairs, born)
            frontend = build_frontend(
                "PC_X32", num_blocks=2**10, rng=DeterministicRng(7)
            )
            with counting_events() as made:
                result = replay_trace(frontend, trace, timing, mode=mode)
            if mode == "compiled":
                assert made == []  # the fast tier reads the columns
            outcomes.append((result, frontend_digests(frontend)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].oram_accesses == len(pairs)
