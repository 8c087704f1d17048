"""A replay slice is one C call: ``run_access_loop`` over a trace's columns.

On the fast tier ``ReplayEngine.run_trace`` and ``run_batch`` are each
one call of the core's ``run_access_loop``. It takes the trace's own
``array('q')`` line column and ``array('b')`` write column, translates
each line to its block, makes the request, looks the latency up by
tree-access count in the timing model's ``latency_table`` and folds it
onto the running cycles. This file pins that entry point against the
reference tier's interpreted loop:

- its boundary: the columns' types and item formats, the table, the
  output list and ``lines_per_block``;
- its semantics: ``zip`` over the two columns, floor translation as
  ``translate_block_addrs`` does it, a tree-access count past the table
  (computed once), the fold's operands (a float or ``int`` start, float
  latencies, an empty slice) and its refusals (a latency that is not a
  float);
- an access that raises mid-slice leaves ``cycles``, ``events`` and
  every ledger as the reference tier leaves them;
- any split of a trace into slices is one call (a Hypothesis property),
  on both tiers and through a wrapped ``access``;
- a slice allocates a constant amount, whatever its length.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.ops import Op
from repro.config import FrontendTimings
from repro.frontend.base import AccessResult
from repro.presets import build_frontend
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.replay import translate_block_addrs
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.utils.rng import DeterministicRng

from lockstep import (
    frontend_digests, frontend_stashes, ledger_image, make_trace, twin,
)

BLOCKS = 2**10

CORE = load_native_core()
pytestmark = pytest.mark.skipif(CORE is None, reason=unavailable_reason())

PROPERTY = settings(max_examples=60, deadline=None)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class Recorder:
    """A generic ``access`` (no kernel behind it): records every request
    and answers the next of ``counts`` (cycling) as its tree accesses."""

    def __init__(self, counts=(1,)):
        self.calls = []
        self.counts = list(counts)

    def __call__(self, addr, op, payload=None):
        self.calls.append((addr, op, payload))
        count = self.counts[(len(self.calls) - 1) % len(self.counts)]
        return AccessResult(b"", count)


def run(access, lines, writes, lines_per_block=1, table=None,
        miss_latency=float, cycles=0.0, latencies=None, payload=b"p"):
    """One ``run_access_loop`` call, defaults filled in."""
    return CORE.run_access_loop(
        access, lines, writes, lines_per_block, Op.READ, Op.WRITE, payload,
        [] if table is None else table, miss_latency, cycles, latencies,
    )


def python_fold(start, values):
    total = start
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# the boundary
# ---------------------------------------------------------------------------


class TestColumns:
    @pytest.mark.parametrize(
        "lines",
        [None, 5, [1, 2], (1, 2), b"\x01\x02", array("i", [1, 2]),
         array("Q", [1, 2]), array("d", [1.0, 2.0])],
        ids=repr,
    )
    def test_a_line_column_that_is_not_int64_runs_nothing(self, lines):
        access = Recorder()
        with pytest.raises(TypeError):
            run(access, lines, array("b", [0, 1]))
        assert access.calls == []

    @pytest.mark.parametrize(
        "writes",
        [None, 5, [True, False], (0, 1), array("h", [0, 1]),
         array("q", [0, 1]), array("d", [0.0, 1.0])],
        ids=repr,
    )
    def test_a_write_column_that_is_not_int8_runs_nothing(self, writes):
        access = Recorder()
        with pytest.raises(TypeError):
            run(access, array("q", [1, 2]), writes)
        assert access.calls == []

    @pytest.mark.parametrize(
        "lines, writes",
        [
            (array("q", [3, 4]), array("B", [1, 0])),
            (memoryview(array("q", [3, 4])), b"\x01\x00"),
            (array("l", [3, 4]), bytearray([1, 0])),
        ],
        ids=["B", "bytes", "l"],
    )
    def test_every_64_bit_and_8_bit_integer_format_is_a_column(self, lines, writes):
        access = Recorder()
        run(access, lines, writes)
        assert access.calls == [(3, Op.WRITE, b"p"), (4, Op.READ, None)]

    @pytest.mark.parametrize(
        "index, value, error",
        [
            (7, (1.0,), TypeError),  # the table
            (7, None, TypeError),
            (10, (), TypeError),  # the latencies kept
            (3, "4", TypeError),  # lines_per_block
            (3, 0, ValueError),
            (3, -4, ValueError),
        ],
    )
    def test_the_other_arguments_are_checked_before_any_request(
        self, index, value, error
    ):
        access = Recorder()
        args = [
            access, array("q", [1]), array("b", [0]), 1, Op.READ, Op.WRITE,
            b"", [], float, 0.0, None,
        ]
        args[index] = value
        with pytest.raises(error):
            CORE.run_access_loop(*args)
        assert access.calls == []

    def test_the_lines_per_block_message_is_the_translations(self):
        with pytest.raises(ValueError) as c_err:
            run(Recorder(), array("q", [1]), array("b", [0]), lines_per_block=0)
        with pytest.raises(ValueError) as py_err:
            translate_block_addrs([1], 0)
        assert str(c_err.value) == str(py_err.value)

    def test_eleven_arguments_and_no_other_count(self):
        with pytest.raises(TypeError, match="11 positional arguments"):
            CORE.run_access_loop(Recorder(), array("q"), array("b"))


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------


class TestSemantics:
    def test_a_short_write_column_ends_the_slice(self):
        """``zip`` semantics: the shorter column decides, on both tiers."""
        access = Recorder()
        latencies = []
        run(access, array("q", [5, 6, 7, 8]), array("b", [1, 0]),
            latencies=latencies)
        assert access.calls == [(5, Op.WRITE, b"p"), (6, Op.READ, None)]
        assert latencies == [1.0, 1.0]
        timing = OramTimingModel(1000.0)
        engines = [
            ReplayEngine.for_mode(frontend, timing, mode)
            for frontend, mode in zip(twin("PIC_X32", num_blocks=BLOCKS), ("scalar", None))
        ]
        for engine in engines:
            engine.run_batch([1, 2, 3, 4], [True, False])
        assert engines[0].events == engines[1].events == 2
        assert repr(engines[0].cycles) == repr(engines[1].cycles)

    @PROPERTY
    @given(
        lines=st.lists(int64s, max_size=40),
        lines_per_block=st.integers(min_value=1, max_value=12),
    )
    def test_translation_is_floor_division(self, lines, lines_per_block):
        """Any ``lines_per_block``, power of two or not, over negative
        line addresses too: the blocks ``translate_block_addrs`` gives."""
        access = Recorder()
        run(access, array("q", lines), array("b", [0] * len(lines)),
            lines_per_block=lines_per_block)
        assert [call[0] for call in access.calls] == translate_block_addrs(
            lines, lines_per_block
        )

    def test_a_count_past_the_table_is_computed_once_and_kept(self):
        asked = []

        def miss_latency(count):
            asked.append(count)
            return 10.0 * count

        table = [0.5, 1.5]
        latencies = []
        cycles = run(
            Recorder([1, 5, 5, 1, 3]), array("q", range(5)), array("b", [0] * 5),
            table=table, miss_latency=miss_latency, latencies=latencies,
        )
        assert asked == [5, 3]
        assert table == [0.5, 1.5, None, 30.0, None, 50.0]
        assert latencies == [1.5, 50.0, 50.0, 1.5, 30.0]
        assert repr(cycles) == repr(python_fold(0.0, latencies))

    def test_group_remap_relocations_on_both_tiers(self):
        """2-bit counters roll over every fourth touch, so a group remap
        relocates siblings: counts past what a plain access takes, each
        computed once per tier, the tables equal and the replays too."""
        ref, fast = twin(
            "PIC_X32", num_blocks=2**9, onchip_entries=4,
            plb_capacity_bytes=512, compressed_beta=2, compressed_fanout=8,
        )
        trace = make_trace(5, events=600, blocks=2**9)
        timings = [CountingTiming(1000.0), CountingTiming(1000.0)]
        results = [
            replay_trace(frontend, trace, timing, mode=mode)
            for frontend, timing, mode in zip(
                (ref, fast), timings, ("scalar", "compiled")
            )
        ]
        assert results[0] == results[1]
        assert fast.stats.group_relocations > 0
        plain = fast.space_levels  # PosMap levels + the data access
        for timing in timings:
            assert len(timing.asked) == len(set(timing.asked))
            assert max(timing.asked) > plain
            for count, latency in enumerate(timing.latency_table):
                expected = None if count not in timing.asked else (
                    OramTimingModel(1000.0).miss_latency(count)
                )
                assert latency == expected
        assert timings[0].latency_table == timings[1].latency_table
        assert ledger_image(ref) == ledger_image(fast)

    @PROPERTY
    @given(
        start=st.one_of(
            st.floats(allow_nan=False), st.integers(-(2**80), 2**80)
        ),
        values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=6),
        counts=st.lists(st.integers(0, 5), min_size=1, max_size=30),
    )
    def test_the_fold_is_cycles_plus_equals_in_event_order(
        self, start, values, counts
    ):
        """Float latencies from a float or an int start: the float
        ``cycles += latency`` gives, event by event, bit for bit."""
        table = [values[count % len(values)] for count in range(6)]
        got = run(
            Recorder(counts), array("q", range(len(counts))),
            array("b", [0] * len(counts)), table=table, cycles=start,
        )
        expected = python_fold(start, [table[count] for count in counts])
        assert type(got) is float and repr(got) == repr(expected)

    def test_an_int_start_is_rounded_as_int_plus_float(self):
        got = run(Recorder([2]), array("q", [1, 2]), array("b", [0, 0]),
                  table=[0.0, 0.0, 0.25], cycles=10**20 + 1)
        assert type(got) is float
        assert got == python_fold(10**20 + 1, [0.25, 0.25])

    @pytest.mark.parametrize("start", [10**400, None, "0"])
    def test_a_start_python_cannot_add_a_float_to_runs_nothing(self, start):
        """The start is read before the first request, and refused as
        ``start + 0.5`` refuses it."""
        with pytest.raises((OverflowError, TypeError)) as py_err:
            start + 0.5
        access = Recorder()
        with pytest.raises(py_err.type):
            run(access, array("q", [1]), array("b", [0]), table=[0.5, 0.5],
                cycles=start)
        assert access.calls == []

    @pytest.mark.parametrize("cycles", [10**30, 2.5e300, 7])
    def test_an_empty_slice_returns_cycles_itself(self, cycles):
        access = Recorder()
        assert run(access, array("q"), array("b"), cycles=cycles) is cycles
        assert run(access, array("q", [1]), array("b"), cycles=cycles) is cycles
        assert access.calls == []

    def test_an_engines_int_cycles_on_both_tiers(self):
        """``base_cycles`` of a trace is an ``int``: the first event's add
        makes it a float on both tiers, and an empty trace leaves it the
        same object."""
        empty = MissTrace(name="empty", instructions=12_345)
        trace = make_trace(3, events=40)
        seen = []
        for frontend, mode in zip(twin("P_X16", num_blocks=BLOCKS), ("scalar", None)):
            engine = ReplayEngine.for_mode(frontend, OramTimingModel(1000.0), mode)
            start = engine.cycles = 10**19 + 1
            engine.run_trace(empty)
            assert engine.cycles is start
            engine.run_trace(trace)
            seen.append(engine.cycles)
        assert type(seen[1]) is float and repr(seen[0]) == repr(seen[1])


# ---------------------------------------------------------------------------
# simulated time is floats
# ---------------------------------------------------------------------------


class Cycles(float):
    """A float subclass: not a float as the fold reads one."""


class IntTiming(OramTimingModel):
    """A timing model that prices every count as an ``int``."""

    def miss_latency(self, tree_accesses):
        return int(super().miss_latency(tree_accesses))


class TestTimeIsFloats:
    """A latency that is not a float is a ``TypeError`` on the fast tier,
    which leaves ``cycles``, ``events``, the latencies kept and the table
    as they were; ``OramTimingModel`` prices every count as a float."""

    @pytest.mark.parametrize("latency", [7, True, Cycles(2.0)], ids=repr)
    def test_a_table_entry_that_is_not_a_float(self, latency):
        table = [0.5, 1.5, latency]
        latencies = [9.0]
        access = Recorder([1, 1, 2, 1])
        with pytest.raises(
            TypeError, match="latency of 2 tree accesses must be a float"
        ):
            run(access, array("q", range(4)), array("b", [0] * 4),
                table=table, latencies=latencies, cycles=3.0)
        assert len(access.calls) == 3  # the refused event's request ran
        assert latencies == [9.0]
        assert table == [0.5, 1.5, latency]

    @pytest.mark.parametrize("miss_latency", [int, Cycles, lambda n: None])
    def test_a_miss_latency_result_that_is_not_a_float(self, miss_latency):
        table = [None, 0.5]
        latencies = []
        with pytest.raises(TypeError, match="must be a float, not"):
            run(Recorder([1, 3]), array("q", range(2)), array("b", [0, 0]),
                table=table, miss_latency=miss_latency, latencies=latencies)
        assert latencies == [] and table == [None, 0.5]

    def test_an_engine_pricing_in_ints_keeps_its_totals_on_both_tiers(self):
        """``run_trace`` and ``run_batch``: the refusal, with one message
        on both tiers, leaves ``cycles``, ``events`` and the table as they
        were."""
        messages = []
        for frontend, mode in zip(twin("PIC_X32", num_blocks=BLOCKS), ("scalar", "compiled")):
            engine = ReplayEngine.for_mode(frontend, IntTiming(1000.0), mode)
            engine.cycles = 5
            with pytest.raises(TypeError, match="must be a float, not int") as err:
                engine.run_trace(make_trace(2, events=10))
            messages.append(str(err.value))
            engine.timing.latency_table[:] = [None, 7]  # an int entry
            with pytest.raises(TypeError, match="must be a float, not int") as err:
                engine.run_batch([1, 2], [False, True])
            messages.append(str(err.value))
            assert (engine.cycles, engine.events) == (5, 0)
            assert engine.timing.latency_table == [None, 7]
        assert messages[:2] == messages[2:]

    def test_a_timing_model_of_ints_prices_in_floats_on_both_tiers(self):
        """Int fields, with and without PMMAC: every latency is the float
        of the int expression, and a replay's cycles are bit for bit those
        of the same model in floats, on either tier."""
        trace = make_trace(6, events=200)
        for pmmac in (False, True):
            ints = OramTimingModel(
                1000, FrontendTimings(aes_latency=21, sha3_latency=18,
                                      frontend_latency=20, backend_latency=30),
                pmmac=pmmac,
            )
            floats = OramTimingModel(
                1000.0, FrontendTimings(aes_latency=21.0, sha3_latency=18.0,
                                        frontend_latency=20.0,
                                        backend_latency=30.0),
                pmmac=pmmac,
            )
            for count in range(8):
                latency = ints.miss_latency(count)
                assert type(latency) is float
                assert repr(latency) == repr(floats.miss_latency(count))
            results = []
            for timing in (ints, floats):
                ref, fast = twin("PIC_X32", num_blocks=BLOCKS)
                results += [
                    replay_trace(ref, trace, timing, mode="scalar"),
                    replay_trace(fast, trace, timing, mode="compiled"),
                ]
            assert all(type(result.cycles) is float for result in results)
            assert len({repr(result.cycles) for result in results}) == 1
            assert all(result == results[0] for result in results)
            assert all(type(n) is float for n in ints.latency_table if n is not None)


# ---------------------------------------------------------------------------
# an access that raises mid-slice
# ---------------------------------------------------------------------------


class TestFailureMidSlice:
    @pytest.mark.parametrize("scheme", ["PIC_X32", "R_X8"])
    def test_an_out_of_range_block_stops_the_slice_on_both_tiers(self, scheme):
        """The fifth event names a block past the tree: the four before it
        happened, the slice added nothing to ``cycles`` or ``events``, and
        every ledger reads as the reference tier left it."""
        engines = [
            ReplayEngine.for_mode(frontend, OramTimingModel(1000.0), mode)
            for frontend, mode in zip(twin(scheme, num_blocks=BLOCKS), ("scalar", None))
        ]
        first = make_trace(9, events=30)
        bad = make_trace(10, events=9)
        events = list(bad.events)
        events[4] = MissEvent(2**40, False)
        bad.events = events
        for engine in engines:
            engine.cycles = 1000
            engine.run_trace(first)
            before = (engine.cycles, engine.events)
            with pytest.raises(ValueError, match="out of range"):
                engine.run_trace(bad)
            assert (engine.cycles, engine.events) == before
            with pytest.raises(ValueError, match="out of range"):
                engine.run_batch([1, BLOCKS], [False, True])
            assert (engine.cycles, engine.events) == before
        ref, fast = (engine.frontend for engine in engines)
        assert repr(engines[0].cycles) == repr(engines[1].cycles)
        assert ledger_image(ref) == ledger_image(fast)
        assert frontend_digests(ref) == frontend_digests(fast)
        assert frontend_stashes(ref) == frontend_stashes(fast)

    def test_a_wrapped_access_that_raises(self):
        """The generic path: a wrapper raising on its third call."""
        engines = []
        for frontend, mode in zip(twin("PC_X32", num_blocks=BLOCKS), ("scalar", None)):
            engine = ReplayEngine.for_mode(frontend, OramTimingModel(1000.0), mode)
            frontend.access = raising_after(frontend.access, 2)
            engines.append(engine)
            with pytest.raises(RuntimeError, match="third call"):
                engine.run_trace(make_trace(4, events=10))
            assert (engine.cycles, engine.events) == (0.0, 0)
        assert ledger_image(engines[0].frontend) == ledger_image(engines[1].frontend)


# ---------------------------------------------------------------------------
# any split is one call
# ---------------------------------------------------------------------------


class TestSplits:
    @settings(max_examples=40, deadline=None)
    @given(
        scheme=st.sampled_from(["PIC_X32", "P_X16", "R_X8"]),
        tier=st.sampled_from(["reference", "fast", "wrapped"]),
        cuts=st.lists(st.integers(0, 120), max_size=5),
        seed=st.integers(0, 2**16),
    )
    def test_a_split_trace_is_one_call(self, scheme, tier, cuts, seed):
        """Slices through ``run_trace`` and ``run_batch`` in turn give the
        cycles (bit for bit), events, ledgers, stashes and tree digests
        of the whole trace in one ``run_trace``."""
        trace = make_trace(seed, events=120)
        edges = sorted({0, 120, *cuts})
        engines = [split_engine(scheme, tier) for _ in range(2)]
        for engine in engines:
            engine.cycles = 777
        whole, split = engines
        whole.run_trace(trace)
        line_addrs, is_write = trace.columns()
        for index, (start, end) in enumerate(zip(edges, edges[1:])):
            if index % 2:
                split.run_batch(
                    split.translate(line_addrs[start:end]),
                    [bool(w) for w in is_write[start:end]],
                )
            else:
                chunk = MissTrace(name="chunk")
                chunk.events = trace.events[start:end]
                split.run_trace(chunk)
        assert repr(whole.cycles) == repr(split.cycles)
        assert whole.events == split.events == 120
        for probe in (ledger_image, frontend_digests, frontend_stashes):
            assert probe(whole.frontend) == probe(split.frontend)


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------


class TestAllocation:
    #: Bytes a slice may have allocated at its peak, and pymalloc blocks
    #: it may leave behind: the new cycles float, the bound ``access`` and
    #: ``miss_latency``. The list-based loop this entry point replaced (a
    #: block list, a count list, a latency list) peaked at 6 288 B over
    #: 100 events and 225 392 B over 4 000.
    PEAK_BYTES = 1024
    BLOCKS_LEFT = 16

    def test_a_slice_allocates_a_constant_whatever_its_length(self):
        """PC_X32 over blocks already written (no leaf draw, no MAC, no
        arena growth): 100 events and 4 000 allocate alike."""
        frontend = build_frontend(
            "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(7)
        )
        engine = ReplayEngine.for_mode(frontend, OramTimingModel(1000.0), "compiled")
        engine.lines_per_block = 1
        warm = MissTrace(name="warm")
        warm.events = [MissEvent(addr, True) for addr in range(BLOCKS)]
        engine.run_trace(warm)
        engine.run_trace(make_trace(1, events=3000))
        assert frontend._kernel is not None
        for events in (100, 4000):
            trace = make_trace(events, events=events)
            gc.collect()
            blocks = sys.getallocatedblocks()
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                engine.run_trace(trace)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            left = sys.getallocatedblocks() - blocks
            assert peak - start <= self.PEAK_BYTES, events
            assert left <= self.BLOCKS_LEFT, events
        assert engine.events == BLOCKS + 3000 + 4100


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class CountingTiming(OramTimingModel):
    """A timing model that records every count it is asked to price."""

    def __init__(self, tree_latency_cycles):
        super().__init__(tree_latency_cycles)
        self.asked = []

    def miss_latency(self, tree_accesses):
        self.asked.append(tree_accesses)
        return super().miss_latency(tree_accesses)


def raising_after(access, calls):
    """``access``, raising on the call after the first ``calls``."""
    made = []

    def wrapped(*args):
        if len(made) == calls:
            raise RuntimeError("third call")
        made.append(args)
        return access(*args)

    return wrapped


def split_engine(scheme, tier):
    """A fresh engine of ``tier``: the reference, the fast tier, or the
    fast tier with its frontend's ``access`` wrapped (the C loop's
    generic calls, as under the perf harness's tracer)."""
    reference, fast = twin(scheme, num_blocks=BLOCKS)
    if tier == "reference":
        return ReplayEngine.for_mode(reference, OramTimingModel(1000.0), "scalar")
    engine = ReplayEngine.for_mode(fast, OramTimingModel(1000.0))
    if tier == "wrapped":
        inner = fast.access
        fast.access = lambda *args: inner(*args)
    return engine
