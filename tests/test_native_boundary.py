"""The C boundary under hostile input: errors, never crashes.

Every entry point ``repro.sim.native._replay_core`` exports — the
functions (the trace-synthesis kernel, whose input is a pattern table,
weights, MT19937 state blocks and a cache geometry, among them), the
``AccessKernel`` handle and the two frontend handles, ``FrontendKernel``
and ``RecursiveKernel`` — is fed what a corrupted storage or a confused
caller could hand it. All state the handles work on is typed columns,
so what can be wrong is what a typed column can hold.

For the tree: a column of the wrong item size, length or writability; a
bucket count past Z; a slot id that is negative, past the arena, held by
two buckets or by a bucket and the stash; a stash or free-stack length
beyond its column; a free-stack entry that still holds a block; a column
cut short between two calls, or by an update callback inside one.

For the frontends: the PLB's five columns — the wrong length, item size
or writability, a tag
held twice by one set, a negative tag, a counter past 96 bits, a
``last_use`` beyond the clock, any of them (the payload included)
resized under a handle; the on-chip column shorter than ``entries`` or
holding a label no tree has or a counter about to wrap; first-touch
bitmaps of the wrong kind or length; and the per-level tuple of tree
handles.

For serve's control plane (``ServeKernel`` / ``serve_fold``): stream,
log, ledger and directory columns of the wrong item type, length or
writability, a route outside the pool, an address outside the
directory, an offer past the end of its stream, a cursor outside it, a
log without room for the epoch, a column resized or a ledger replaced
between two epochs, a clock or an access that raises or calls back into
the kernel, latencies, clock readings, walls and totals that are not
floats, rows that are not finite, and ends, latencies and walls that
disagree with the log they describe.

For the list adapters (``drain_scalar`` / ``place_greedy``) it is still
slot ids that are not ints at all, buckets that are not lists and stash
dicts with non-int keys. The contract is the same everywhere: raise
``TypeError``/``IndexError``/``ValueError`` (``BufferError`` where
CPython itself refuses to resize an exported column), and leave every
column — for a handle the stash snapshot, the tree digest and, when the
corruption is met in the PLB lookup loop or before, the PLB — as it was
when it is met before a tree access commits; no handle is left busy.
The CI sanitizer lane runs this file under ASan/UBSan, where an
out-of-bounds read that happens not to crash here fails loudly.
"""

import gc
import re
import sys
from array import array

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.adversary.tamper import StorageTamperer  # noqa: E402
from repro.backend.columnar import ColumnarPathOramBackend  # noqa: E402
from repro.backend.ops import Op  # noqa: E402
from repro.config import OramConfig, ProcessorConfig  # noqa: E402
from repro.errors import (  # noqa: E402
    BlockNotFoundError,
    ConfigurationError,
    IntegrityViolationError,
    StashOverflowError,
)
from repro.frontend.base import AccessResult  # noqa: E402
from repro.frontend.recursive import RecursiveFrontend  # noqa: E402
from repro.frontend.unified import PlbFrontend  # noqa: E402
from repro.presets import build_frontend  # noqa: E402
from repro.proc.hierarchy import CacheHierarchy  # noqa: E402
from repro.sim.native import load_native_core, unavailable_reason  # noqa: E402
from repro.storage.block import Block  # noqa: E402
from repro.storage.columnar import CHUNK_SLOTS, ColumnarTreeStorage  # noqa: E402
from repro.storage.snapshot import tree_digest  # noqa: E402
from repro.utils.rng import DeterministicRng  # noqa: E402
from repro.workloads.spec import SpecStandIn  # noqa: E402
from repro.workloads.synthetic import Pattern  # noqa: E402

from lockstep import geometry, lockstep, pair, slice_counts  # noqa: E402

CORE = load_native_core()
pytestmark = pytest.mark.skipif(
    CORE is None,
    reason=unavailable_reason(),
)

REJECTED = (TypeError, IndexError, ValueError)
LEVELS = 3
CONFIG = OramConfig(num_blocks=64, block_bytes=8, blocks_per_bucket=2)
PROPERTY = settings(max_examples=80, deadline=None)

#: Values no slot list, stash or free list may legally hold.
hostile_slots = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=CHUNK_SLOTS * 4),
    st.just(2**70),
    st.sampled_from([None, 1.5, "7", b"7", (1,)]),
)
#: Every array typecode that is not a signed 64-bit integer.
wrong_typecodes = st.sampled_from("bBhHiIQfd")
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


# ---------------------------------------------------------------------------
# drain_scalar / place_greedy
# ---------------------------------------------------------------------------


def drain_args(arena=32):
    """A well-formed argument tuple for ``drain_scalar``, as a dict."""
    return {
        "path": [[0, 1], [2], [], [3, 4]],
        "addr_col": array("q", range(100, 100 + arena)),
        "leaf_col": array("q", [s % (1 << LEVELS) for s in range(arena)]),
        "stash": {110: 10, 111: 11},
        "slot": None,
        "addr": 103,
        "leaf": 5,
        "levels": LEVELS,
        "by_depth": [[] for _ in range(LEVELS + 1)],
        "drained_flat": [],
        "resident": [],
    }


def call_drain(args):
    return CORE.drain_scalar(*args.values())


def assert_drain_rejects(args):
    """A rejected drain appends nothing to the caller's scratch lists."""
    with pytest.raises(REJECTED):
        call_drain(args)
    assert args["by_depth"] == [[] for _ in range(LEVELS + 1)]
    assert args["drained_flat"] == [] and args["resident"] == []


class TestDrainScalarBoundary:
    def test_well_formed_baseline(self):
        args = drain_args()
        assert call_drain(args) == 3
        assert args["drained_flat"] == [0, 1, 2, 3, 4]
        assert args["resident"] == [10, 11]

    @PROPERTY
    @given(typecode=wrong_typecodes, which=st.sampled_from(["addr_col", "leaf_col"]))
    def test_wrong_typecode_columns(self, typecode, which):
        args = drain_args()
        args[which] = array(typecode, [1.0 if typecode in "fd" else 1] * 32)
        assert_drain_rejects(args)

    @PROPERTY
    @given(
        short=st.sampled_from(["addr_col", "leaf_col"]),
        keep=st.integers(min_value=0, max_value=31),
        probe=st.integers(min_value=0, max_value=31),
        via_stash=st.booleans(),
    )
    def test_unequal_column_lengths_never_read_past_either(
        self, short, keep, probe, via_stash
    ):
        """A slot is only ever used after a check against *both* columns
        (the parent checked bucket slots against ``addr_col`` alone)."""
        args = drain_args()
        del args[short][keep:]
        args["stash"] = {500: probe} if via_stash else {}
        args["path"] = [[], [], [], []] if via_stash else [[probe], [], [], []]
        if probe >= keep:
            with pytest.raises(IndexError):
                call_drain(args)
        else:
            call_drain(args)

    @PROPERTY
    @given(bad=hostile_slots, level=st.integers(0, LEVELS), via_stash=st.booleans())
    def test_hostile_slot_ids(self, bad, level, via_stash):
        args = drain_args()
        if via_stash:
            args["stash"][999] = bad
        else:
            args["path"][level].append(bad)
        assert_drain_rejects(args)

    @PROPERTY
    @given(
        bucket=st.sampled_from([None, (0, 1), "01", 7, {0: 1}]),
        level=st.integers(0, LEVELS),
    )
    def test_non_list_buckets(self, bucket, level):
        args = drain_args()
        args["path"][level] = bucket
        assert_drain_rejects(args)

    @PROPERTY
    @given(key=st.sampled_from([None, 1.5, "110", (1,)]))
    def test_non_int_stash_keys(self, key):
        args = drain_args()
        args["stash"][key] = 12
        assert_drain_rejects(args)

    @PROPERTY
    @given(leaf=int64s, levels=st.integers(-4, 70))
    def test_any_leaf_and_depth(self, leaf, levels):
        """Leaves outside the tree and level counts outside ``by_depth``
        come back as errors (or a clean result), never a wild index."""
        args = drain_args()
        args["leaf"], args["levels"] = leaf, levels
        try:
            call_drain(args)
        except REJECTED:
            assert args["drained_flat"] == [] and args["resident"] == []

    @PROPERTY
    @given(
        name=st.sampled_from(["path", "stash", "by_depth", "drained_flat", "resident"]),
        junk=st.sampled_from([None, 3, "x", (1, 2)]),
    )
    def test_wrong_container_types(self, name, junk):
        args = drain_args()
        args[name] = junk
        with pytest.raises(REJECTED):
            call_drain(args)

    def test_by_depth_entry_not_a_list(self):
        args = drain_args()
        args["by_depth"] = [None] * (LEVELS + 1)
        with pytest.raises(TypeError):
            call_drain(args)
        assert args["drained_flat"] == [] and args["resident"] == []


class TestPlaceGreedyBoundary:
    @PROPERTY
    @given(
        path_len=st.integers(0, 6),
        depth_len=st.integers(0, 6),
        levels=st.integers(-3, 8),
        cap=st.integers(-2, 5),
    )
    def test_shape_mismatches(self, path_len, depth_len, levels, cap):
        path = [[] for _ in range(path_len)]
        by_depth = [[d] for d in range(depth_len)]
        if levels < 0 or path_len < levels + 1 or depth_len < levels + 1:
            with pytest.raises(REJECTED):
                CORE.place_greedy(path, by_depth, levels, cap)
            assert by_depth == [[d] for d in range(depth_len)]
        else:
            pool = CORE.place_greedy(path, by_depth, levels, cap)
            placed = sum(len(b) for b in path[: levels + 1])
            assert placed + len(pool) == levels + 1
            assert all(len(b) <= max(cap, 0) for b in path)

    @PROPERTY
    @given(
        which=st.sampled_from(["path", "by_depth"]),
        level=st.integers(0, LEVELS),
        junk=st.sampled_from([None, (1,), "ab", 5]),
    )
    def test_non_list_entries(self, which, level, junk):
        path = [[level] for level in range(LEVELS + 1)]
        by_depth = [[10 + level] for level in range(LEVELS + 1)]
        (path if which == "path" else by_depth)[level] = junk
        with pytest.raises(TypeError):
            CORE.place_greedy(path, by_depth, LEVELS, 2)
        # Rejected before anything moved.
        untouched = [[10 + d] for d in range(LEVELS + 1)]
        untouched_path = [[d] for d in range(LEVELS + 1)]
        if which == "path":
            untouched_path[level] = junk
        else:
            untouched[level] = junk
        assert by_depth == untouched and path == untouched_path

    def test_bucket_sizes_outside_a_byte(self):
        """Z < 0 places nothing (every candidate is left over, in the
        object backend's pool order); Z > 255 is refused, as a tree's
        one-byte fill count cannot hold it."""
        path, by_depth = [[5], []], [[1, 2], [3]]
        assert CORE.place_greedy(path, by_depth, 1, -1) == [3, 1, 2]
        assert path == [[], []] and by_depth == [[], []]
        with pytest.raises(ValueError, match="at most 255"):
            CORE.place_greedy([[]], [[1]], 0, 256)

    @PROPERTY
    @given(junk=st.sampled_from([None, 3, "x", (1, 2)]))
    def test_wrong_containers(self, junk):
        with pytest.raises(TypeError):
            CORE.place_greedy(junk, [[]], 0, 1)
        with pytest.raises(TypeError):
            CORE.place_greedy([[]], junk, 0, 1)


# ---------------------------------------------------------------------------
# translate_block_addrs / accumulate / run_access_loop
# ---------------------------------------------------------------------------


class TestStreamingEntryPoints:
    @PROPERTY
    @given(
        typecode=st.sampled_from("bhilq"),
        values=st.lists(st.integers(-100, 100), max_size=20),
        lpb=st.integers(-3, 9),
    )
    def test_translate_any_typecode(self, typecode, values, lpb):
        """An int64 column gives the Python kernel's numbers (or its
        ValueError); every narrower column is a TypeError."""
        column = array(typecode, values)
        if lpb < 1:
            with pytest.raises(ValueError):
                CORE.translate_block_addrs(column, lpb)
        elif column.itemsize == 8:
            assert CORE.translate_block_addrs(column, lpb) == [
                v // lpb for v in values
            ]
        else:
            with pytest.raises(TypeError, match="int64 column"):
                CORE.translate_block_addrs(column, lpb)

    @PROPERTY
    @given(junk=st.sampled_from([None, 5, 2.5, ["a"], [None], array("d", [1.5])]))
    def test_translate_rejects_non_numeric(self, junk):
        with pytest.raises(TypeError):
            CORE.translate_block_addrs(junk, 4)

    @PROPERTY
    @given(
        start=st.one_of(st.floats(allow_nan=False), st.integers(-10, 10)),
        values=st.lists(
            st.one_of(st.floats(allow_nan=False), st.integers(-10, 10)),
            max_size=30,
        ),
    )
    def test_accumulate_is_the_python_fold(self, start, values):
        total = start
        for value in values:
            total += value
        got = CORE.accumulate(start, values)
        assert type(got) is type(total) and repr(got) == repr(total)

    @PROPERTY
    @given(junk=st.sampled_from([None, 5, [None], ["a"], [1.0, None]]))
    def test_accumulate_rejects_junk(self, junk):
        with pytest.raises(TypeError):
            CORE.accumulate(0.0, junk)

    @PROPERTY
    @given(
        addrs=st.sampled_from(
            [None, 5, [1, 2], (1, 2), array("i", [1, 2]), array("q", [1, 2])]
        ),
        writes=st.sampled_from(
            [None, 5, [True, False], array("h", [0, 1]), array("b", [0, 1])]
        ),
    )
    def test_run_access_loop_columns(self, addrs, writes):
        """The slice is an int64 column and an int8 column, or nothing
        runs: a list, a tuple or another item width is a TypeError."""

        class Result:
            tree_accesses = 2

        calls = []

        def access(addr, op, payload=None):
            calls.append(addr)
            return Result()

        ok = (
            isinstance(addrs, array) and addrs.typecode == "q"
            and isinstance(writes, array) and writes.typecode == "b"
        )
        if ok:
            assert slice_counts(access, addrs, writes) == [2, 2]
        else:
            with pytest.raises(TypeError):
                CORE.run_access_loop(
                    access, addrs, writes, 1, Op.READ, Op.WRITE, b"", [],
                    float, 0.0, None,
                )
            assert calls == []

    def test_run_access_loop_result_without_the_attribute(self):
        with pytest.raises(AttributeError):
            slice_counts(lambda addr, op: object(), [1], [False])


# ---------------------------------------------------------------------------
# synthesize_trace / mt_draws
# ---------------------------------------------------------------------------

#: OverflowError is the kernel's "valid, but outside my 32-bit draw
#: range" (the caller then runs the interpreted reference); BufferError
#: is what a non-contiguous exporter answers.
SYNTH_REJECTED = REJECTED + (OverflowError, BufferError)
MT_WORDS = 625
#: Always-missing traffic: 1 024 lines over a hierarchy that holds 24.
BACKGROUND = ("uniform", 1 << 16, 64, 0.9, 0.05, 0.9, 0)


def mt_states(count):
    block = array("I")
    for seed in range(count):
        block.extend(DeterministicRng(seed).mt_state())
    return block


def synth_args(**overrides):
    """A well-formed ``synthesize_trace`` argument list, as a dict: two
    patterns over an L1 of 4 x 2 lines and an L2 of 8 x 2."""
    args = {
        "patterns": [BACKGROUND, ("hot_cold", 4096, 64, 0.9, 0.1, 0.9, 4096)],
        "cum_weights": [0.5, 1.0],
        "write_fraction": 0.3,
        "gap_instructions": 2,
        "states": mt_states(3),
        "geometry": (64, 512, 2, 1024, 2),
        "warmup_refs": 10,
        "max_llc_misses": 20,
    }
    args.update(overrides)
    return args


def call_synth(args):
    return CORE.synthesize_trace(*args.values())


def with_pattern(**fields):
    """``synth_args`` whose second pattern has ``fields`` replaced."""
    row = dict(
        zip(
            ("kind", "wss", "step", "alpha", "hot_fraction", "hot_probability", "offset"),
            ("hot_cold", 4096, 64, 0.9, 0.1, 0.9, 4096),
        )
    )
    row.update(fields)
    return synth_args(patterns=[BACKGROUND, tuple(row.values())])


def assert_well_formed(result, misses):
    line_addrs, is_write, instructions, mem_refs, l1_hits, l2_hits = result
    assert len(line_addrs) == 8 * len(is_write)
    assert set(is_write) <= {0, 1}
    assert len(is_write) - sum(is_write) == misses
    assert 0 < mem_refs <= instructions
    assert l1_hits + l2_hits + misses == mem_refs


class TestSynthesizeTraceBoundary:
    def test_well_formed_call(self):
        assert_well_formed(call_synth(synth_args()), 20)

    @PROPERTY
    @given(words=st.integers(0, 4 * MT_WORDS).filter(lambda n: n != 3 * MT_WORDS))
    def test_state_block_of_the_wrong_length(self, words):
        block = array("I", bytes(4 * words))
        with pytest.raises(ValueError):
            call_synth(synth_args(states=block))

    @PROPERTY
    @given(
        states=st.one_of(
            st.sampled_from("bBhHiqQfd").map(
                lambda code: array(code, bytes(3 * MT_WORDS * 8))
            ),
            st.sampled_from([None, 7, [0] * (3 * MT_WORDS), "x" * 7500]),
            st.just(bytes(3 * MT_WORDS * 4)),
        )
    )
    def test_state_block_of_the_wrong_type(self, states):
        with pytest.raises(TypeError):
            call_synth(synth_args(states=states))

    def test_state_block_not_contiguous(self):
        strided = memoryview(array("I", bytes(6 * MT_WORDS * 4)))[::2]
        with pytest.raises(SYNTH_REJECTED):
            call_synth(synth_args(states=strided))
        matrix = memoryview(bytes(3 * MT_WORDS * 4)).cast("I", (3, MT_WORDS))
        with pytest.raises(SYNTH_REJECTED):
            call_synth(synth_args(states=matrix))

    @PROPERTY
    @given(stream=st.integers(0, 2), index=st.integers(MT_WORDS, 2**32 - 1))
    def test_mt_index_outside_the_state(self, stream, index):
        block = mt_states(3)
        block[stream * MT_WORDS + MT_WORDS - 1] = index
        with pytest.raises(ValueError):
            call_synth(synth_args(states=block))

    @PROPERTY
    @given(stream=st.integers(0, 2), index=st.integers(0, MT_WORDS - 1))
    def test_every_valid_mt_index_is_accepted(self, stream, index):
        block = mt_states(3)
        block[stream * MT_WORDS + MT_WORDS - 1] = index
        assert_well_formed(call_synth(synth_args(states=block)), 20)

    @PROPERTY
    @given(kind=st.text(max_size=12).filter(
        lambda k: k not in {"sequential", "strided", "uniform", "zipf",
                            "pointer_chase", "hot_cold"}
    ))
    def test_unknown_pattern_kind(self, kind):
        with pytest.raises(ValueError):
            call_synth(with_pattern(kind=kind))

    @PROPERTY
    @given(
        kind=st.sampled_from(["sequential", "strided", "uniform", "zipf",
                              "pointer_chase", "hot_cold"]),
        field=st.sampled_from(["wss", "step"]),
        value=st.integers(-(2**63), 0),
    )
    def test_zero_or_negative_size(self, kind, field, value):
        """``wss <= 0``, ``stride == 0``, ``node_bytes == 0``: the
        divisions by zero of the generators' prologues."""
        with pytest.raises(ValueError):
            call_synth(with_pattern(kind=kind, **{field: value}))

    @PROPERTY
    @given(offset=st.integers(-(2**63), -1))
    def test_negative_offset(self, offset):
        with pytest.raises(ValueError):
            call_synth(with_pattern(offset=offset))

    @PROPERTY
    @given(
        field=st.sampled_from(["wss", "step", "offset"]),
        value=st.one_of(st.integers(2**32, 2**63 - 1), st.just(2**70)),
    )
    def test_sizes_beyond_the_draw_range(self, field, value):
        if field == "offset":
            assume(value > 2**62)
        with pytest.raises(OverflowError):
            call_synth(with_pattern(kind="sequential", **{field: value}))

    @PROPERTY
    @given(
        field=st.sampled_from(["alpha", "hot_fraction", "hot_probability"]),
        kind=st.sampled_from(["zipf", "hot_cold"]),
    )
    def test_nan_parameter(self, field, kind):
        with pytest.raises(ValueError):
            call_synth(with_pattern(kind=kind, **{field: float("nan")}))

    @PROPERTY
    @given(
        row=st.one_of(
            st.sampled_from([None, 5, "uniform", ["uniform", 4096, 64, 0.9, 0.1, 0.9, 0]]),
            st.just(("uniform", 4096, 64)),
            st.just(("uniform", 4096.0, 64, 0.9, 0.1, 0.9, 0)),
            st.just(("uniform", 4096, 64, "a", 0.1, 0.9, 0)),
            st.just((b"uniform", 4096, 64, 0.9, 0.1, 0.9, 0)),
        )
    )
    def test_malformed_pattern_row(self, row):
        with pytest.raises(TypeError):
            call_synth(synth_args(patterns=[BACKGROUND, row]))

    @PROPERTY
    @given(
        cum=st.one_of(
            st.just([]),
            st.just([1.0]),
            st.just([0.2, 0.5, 1.0]),
            st.just([0.6, 0.5]),
            st.just([-0.5, 1.0]),
            st.just([float("nan"), 1.0]),
            st.just([0.5, float("nan")]),
        )
    )
    def test_bad_weights(self, cum):
        """Empty, one per pattern or not, non-monotone, negative, NaN."""
        with pytest.raises(ValueError):
            call_synth(synth_args(cum_weights=cum))

    @PROPERTY
    @given(cum=st.sampled_from([None, 5, [None, 1.0], ["a", "b"]]))
    def test_weights_of_the_wrong_type(self, cum):
        with pytest.raises(TypeError):
            call_synth(synth_args(cum_weights=cum))

    def test_no_patterns(self):
        with pytest.raises(ValueError):
            call_synth(synth_args(patterns=[], cum_weights=[], states=mt_states(1)))

    @PROPERTY
    @given(level=st.sampled_from([2, 4]), ways=st.integers(-(2**63), 0))
    def test_zero_ways(self, level, ways):
        geometry = list(synth_args()["geometry"])
        geometry[level] = ways
        with pytest.raises(ValueError):
            call_synth(synth_args(geometry=tuple(geometry)))

    @PROPERTY
    @given(level=st.sampled_from([1, 3]), sets=st.integers(0, 300), ways=st.integers(1, 4))
    def test_set_count_must_be_a_power_of_two(self, level, sets, ways):
        """The same check, and the same words, as ``Cache.__init__``."""
        assume(sets & (sets - 1) or sets == 0)
        geometry = list(synth_args()["geometry"])
        geometry[level], geometry[level + 1] = sets * ways * 64, ways
        with pytest.raises(ValueError, match="set count must be a power of two"):
            call_synth(synth_args(geometry=tuple(geometry)))
        from repro.proc.cache import Cache

        with pytest.raises(ValueError, match="set count must be a power of two"):
            Cache(sets * ways * 64, ways, 64)

    def test_capacity_must_divide_into_ways(self):
        with pytest.raises(ValueError, match="capacity must divide evenly into ways"):
            call_synth(synth_args(geometry=(64, 512, 3, 1024, 2)))

    @PROPERTY
    @given(
        geometry=st.sampled_from(
            [None, 5, (64, 512, 2, 1024), (64, 512, 2, 1024, 2, 2),
             (64.0, 512, 2, 1024, 2), (64, "512", 2, 1024, 2)]
        )
    )
    def test_malformed_geometry(self, geometry):
        with pytest.raises(TypeError):
            call_synth(synth_args(geometry=geometry))

    @PROPERTY
    @given(
        position=st.sampled_from([0, 1, 3]),
        value=st.one_of(st.integers(-(2**63), 0), st.integers(2**40, 2**63 - 1)),
    )
    def test_geometry_out_of_range(self, position, value):
        """Non-positive sizes are errors; a level too large for the
        kernel's flat arrays is the caller's cue to run interpreted."""
        geometry = list(synth_args()["geometry"])
        geometry[position] = value
        with pytest.raises((ValueError, OverflowError)):
            call_synth(synth_args(geometry=tuple(geometry)))

    @pytest.mark.parametrize(
        "args, refusal",
        [
            (lambda: synth_args(geometry=(64, 64 << 25, 2, 1024, 2)), "too large"),
            (lambda: synth_args(geometry=(64, 512, 2, 64 << 25, 2)), "too large"),
            (lambda: with_pattern(hot_fraction=1e12), "hot region"),
            (lambda: with_pattern(hot_fraction=-1e300), "hot region"),
        ],
        ids=["l1-lines", "l2-lines", "hot-region-high", "hot-region-low"],
    )
    def test_fixed_inputs_past_the_draw_range(self, args, refusal):
        """Refusals the properties reach on some draws only, each from a
        fixed input so that every run reaches it: a level of 2^25 lines
        (the kernel's flat arrays hold 2^24) and a hot region outside 32
        bits."""
        with pytest.raises(OverflowError, match=refusal):
            call_synth(args())

    @PROPERTY
    @given(warmup=st.integers(-(2**63), -1))
    def test_negative_warmup(self, warmup):
        with pytest.raises(ValueError):
            call_synth(synth_args(warmup_refs=warmup))

    @PROPERTY
    @given(misses=st.integers(-(2**63), 0))
    def test_unbounded_run_is_refused(self, misses):
        """``CacheHierarchy.run`` never returns from an infinite stream
        without a budget; the kernel refuses instead of spinning."""
        with pytest.raises(ValueError):
            call_synth(synth_args(max_llc_misses=misses))

    @PROPERTY
    @given(
        gap=st.one_of(st.integers(-(2**63), -1), st.integers(2**31, 2**63 - 1)),
    )
    def test_gap_out_of_range(self, gap):
        with pytest.raises((ValueError, OverflowError)):
            call_synth(synth_args(gap_instructions=gap))

    def test_nan_write_fraction(self):
        with pytest.raises(ValueError):
            call_synth(synth_args(write_fraction=float("nan")))

    @PROPERTY
    @given(
        kind=st.sampled_from(["sequential", "strided", "uniform", "zipf",
                              "pointer_chase", "hot_cold"]),
        wss=st.integers(1, 2**32 - 1),
        step=st.integers(1, 2**32 - 1),
        alpha=st.floats(allow_nan=False),
        hot_fraction=st.floats(allow_nan=False),
        hot_probability=st.floats(allow_nan=False),
        offset=st.integers(0, 2**62),
        write_fraction=st.floats(allow_nan=False),
        gap=st.integers(0, 2**31 - 1),
        warmup=st.integers(0, 200),
        misses=st.integers(1, 40),
    )
    def test_any_in_range_table_runs_or_is_refused(
        self, kind, wss, step, alpha, hot_fraction, hot_probability, offset,
        write_fraction, gap, warmup, misses,
    ):
        """Every representable parameter value, extremes included: a
        well-formed trace or a clean refusal (a zipf power that
        overflows, a hot region past 32 bits)."""
        args = with_pattern(
            kind=kind, wss=wss, step=step, alpha=alpha, hot_fraction=hot_fraction,
            hot_probability=hot_probability, offset=offset,
        )
        args.update(
            write_fraction=write_fraction, gap_instructions=gap,
            warmup_refs=warmup, max_llc_misses=misses,
        )
        try:
            result = call_synth(args)
        except OverflowError:
            return
        assert_well_formed(result, misses)

    @pytest.mark.parametrize("alpha", [-1000.0, -1e308])
    @pytest.mark.parametrize("mixed", [False, True], ids=["alone", "mixed"])
    def test_a_zipf_power_out_of_range(self, alpha, mixed):
        """Fixed inputs, not drawn ones, so every run reaches the kernel's
        zipf overflow return and its OverflowError: for these exponents
        ``lines ** (1 - alpha)`` is no float. The interpreted reference,
        the same mixture through ``CacheHierarchy.run``, raises
        OverflowError too."""
        zipf = Pattern("zipf", alpha=alpha)
        patterns = ((0.5, Pattern("uniform")), (0.5, zipf)) if mixed else ((1.0, zipf),)
        spec = SpecStandIn("zipf-overflow", 1 << 16, patterns)
        rows = [
            (p.kind, p.wss(spec.wss_bytes), p.step, p.alpha, p.hot_fraction,
             p.hot_probability, p.offset)
            for _, p in patterns
        ]
        args = synth_args(
            patterns=rows, cum_weights=spec.cumulative_weights(),
            states=mt_states(len(rows) + 1),
        )
        with pytest.raises(OverflowError, match="zipf draw"):
            call_synth(args)
        with pytest.raises(OverflowError):
            CacheHierarchy(ProcessorConfig()).run(
                spec.refs(DeterministicRng(0)), max_llc_misses=20, warmup_refs=10
            )


class TestMtDrawsBoundary:
    @PROPERTY
    @given(words=st.integers(0, 2 * MT_WORDS).filter(lambda n: n != MT_WORDS))
    def test_state_of_the_wrong_length(self, words):
        with pytest.raises(ValueError):
            CORE.mt_draws(array("I", bytes(4 * words)), 3, 5)

    @PROPERTY
    @given(index=st.integers(MT_WORDS, 2**32 - 1))
    def test_index_outside_the_state(self, index):
        state = mt_states(1)
        state[-1] = index
        with pytest.raises(ValueError):
            CORE.mt_draws(state, 3, 5)

    @PROPERTY
    @given(
        n=st.one_of(st.integers(2**32, 2**64 - 1), st.integers(-(2**63), -1)),
    )
    def test_modulus_outside_32_bits(self, n):
        with pytest.raises(SYNTH_REJECTED):
            CORE.mt_draws(mt_states(1), n, 5)

    @PROPERTY
    @given(state=st.sampled_from([None, 5, [0] * MT_WORDS, array("i", bytes(4 * MT_WORDS))]))
    def test_state_of_the_wrong_type(self, state):
        with pytest.raises(TypeError):
            CORE.mt_draws(state, 3, 5)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            CORE.mt_draws(mt_states(1), 3, -1)


# ---------------------------------------------------------------------------
# column: the allocator of the tree's fixed-size columns
# ---------------------------------------------------------------------------


class TestColumn:
    @PROPERTY
    @given(typecode=st.sampled_from("bBhHiIlLqQfd"), zeroed=st.booleans())
    def test_length_zero(self, typecode, zeroed):
        view = memoryview(CORE.column(typecode, 0, zeroed))
        assert (len(view), view.nbytes, view.format) == (0, 0, typecode)
        assert view.tolist() == [] and bytes(view) == b""

    @PROPERTY
    @given(
        typecode=st.sampled_from("bBhHiIlLqQfd"),
        length=st.integers(1, 300),
        zeroed=st.booleans(),
    )
    def test_typed_writable_and_fixed(self, typecode, length, zeroed):
        """Typed like an ``array`` of the same code, writable item by
        item, zeroed on request, and exported without a resize."""
        view = memoryview(CORE.column(typecode, length, zeroed))
        like = memoryview(array(typecode, [0] * length))
        assert (view.format, view.itemsize, view.shape, view.readonly) == (
            like.format, like.itemsize, like.shape, False,
        )
        if zeroed:
            assert bytes(view) == bytes(like)
        one = 1.5 if typecode in "fd" else 1
        view[length - 1] = one
        view[0] = one
        assert view[0] == view[length - 1] == one

    @pytest.mark.parametrize(
        "typecode, length",
        [("B", sys.maxsize + 1), ("i", sys.maxsize // 4 + 1),
         ("q", sys.maxsize // 8 + 1), ("d", 2**200)],
    )
    @pytest.mark.parametrize("zeroed", [True, False])
    def test_byte_size_past_ssize_t_max(self, typecode, length, zeroed):
        with pytest.raises((MemoryError, OverflowError)):
            CORE.column(typecode, length, zeroed)

    @pytest.mark.parametrize("typecode", ["u", "w", "x", "", "ii", "B "])
    def test_unknown_typecode(self, typecode):
        with pytest.raises(ValueError):
            CORE.column(typecode, 4, True)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            CORE.column("i", -1, True)

    def test_a_view_outlives_its_storage(self):
        """The storage's columns are memoryviews that keep their buffer:
        dropping the storage (and collecting) leaves them readable."""
        storage = ColumnarTreeStorage(CONFIG)
        storage.replace_bucket_records(3, [(7, 2, bytes(8), None)])
        slots, fill = storage.bucket_slots, storage.bucket_fill
        slot = storage.bucket(3)
        del storage
        gc.collect()
        assert fill[3] == 1 and fill.tolist().count(0) == CONFIG.num_buckets - 1
        assert slots[3 * CONFIG.blocks_per_bucket] == slot[0]
        orphan = memoryview(CORE.column("q", 5, True))
        gc.collect()
        assert orphan.tolist() == [0] * 5


# ---------------------------------------------------------------------------
# AccessKernel: construction
# ---------------------------------------------------------------------------

#: Slot ids no bucket, stash or free stack may legally hold: what an
#: int32 column *can* hold that is not a slot of a four-chunk arena.
hostile_slot_ids = st.one_of(
    st.integers(min_value=-(2**31), max_value=-1),
    st.integers(min_value=CHUNK_SLOTS * 4, max_value=2**31 - 1),
)
#: Array typecodes that are not a signed 32-bit integer.
not_int32 = st.sampled_from("bBhHIqQfd")
COLUMN_TYPE = type(CORE.column("B", 0, True)) if CORE is not None else None


def array_column(typecode, items):
    return array(typecode, [0] * items)


def core_column(typecode, items):
    """What the storage holds: a memoryview over the core's allocator."""
    return memoryview(CORE.column(typecode, items, True))


#: The two kinds of typed column a kernel may be handed.
column_makers = st.sampled_from([array_column, core_column])


def kernel_args(backend):
    """The positional arguments ``ColumnarPathOramBackend`` builds its
    kernel with, as a dict."""
    storage = backend.storage
    return {
        "backend": backend,
        "storage": storage,
        "addr_col": storage.addr_col,
        "leaf_col": storage.leaf_col,
        "mac_col": storage.mac_col,
        "chunks": storage._chunks,
        "free": storage._free,
        "bucket_slots": storage.bucket_slots,
        "bucket_fill": storage.bucket_fill,
        "stash_col": backend.stash.slots,
        "ledger": backend.ledger,
        "storage_ledger": storage.ledger,
        "occupancy": backend.stash.occupancy_stats.ledger,
        "moments": backend.stash.occupancy_stats.moments,
        "levels": backend.config.levels,
        "cap": backend.config.blocks_per_bucket,
        "block_bytes": backend.config.block_bytes,
        "chunk_slots": CHUNK_SLOTS,
        "stash_limit": backend.stash.limit,
        "allow_missing": True,
        "block": Block,
        "append": Op.APPEND,
        "readrmv": Op.READRMV,
        "not_found": BlockNotFoundError,
        "overflow": StashOverflowError,
    }


def plain_backend():
    return ColumnarPathOramBackend(
        CONFIG, ColumnarTreeStorage(CONFIG), DeterministicRng(3)
    )


class TestKernelConstruction:
    def test_well_formed_baseline(self):
        backend = plain_backend()
        kernel = CORE.AccessKernel(*kernel_args(backend).values())
        kernel.access(Op.READ, 1, 0, 1, None, None)
        occupancy = backend.stash.occupancy_stats
        assert (backend.access_count, occupancy.count, occupancy.max) == (1, 1, 0)

    @PROPERTY
    @given(
        typecode=wrong_typecodes,
        which=st.sampled_from(
            ["addr_col", "leaf_col", "ledger", "storage_ledger", "occupancy",
             "moments"]
        ),
    )
    def test_wrong_typecode_columns(self, typecode, which):
        """The arena's columns and the ledgers are int64, the occupancy
        moments float64: an array of any other item is refused."""
        args = kernel_args(plain_backend())
        assume(not (which == "moments" and typecode == "d"))
        args[which] = array(typecode, [0] * len(args[which]))
        with pytest.raises(TypeError):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        typecode=not_int32,
        which=st.sampled_from(["free", "stash_col", "bucket_slots"]),
        make=column_makers,
    )
    def test_wrong_item_size_slot_columns(self, typecode, which, make):
        """Slot ids are int32 everywhere: the free stack, the stash and
        the bucket column of any other item are refused, whatever their
        length in bytes."""
        args = kernel_args(plain_backend())
        items = len(args[which])
        args[which] = make(typecode, items)
        with pytest.raises(TypeError):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(typecode=st.sampled_from("hHiIqQfd"), make=column_makers)
    def test_wrong_item_size_fill_column(self, typecode, make):
        args = kernel_args(plain_backend())
        args["bucket_fill"] = make(typecode, CONFIG.num_buckets)
        with pytest.raises(TypeError):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        which=st.sampled_from(
            ["addr_col", "leaf_col", "free", "stash_col", "bucket_slots",
             "bucket_fill", "ledger", "storage_ledger", "occupancy",
             "moments"]
        ),
        make=column_makers,
    )
    def test_read_only_column(self, which, make):
        args = kernel_args(plain_backend())
        real = memoryview(args[which])
        args[which] = memoryview(make(real.format, len(real))).toreadonly()
        with pytest.raises((TypeError, BufferError)):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        which=st.sampled_from(
            ["bucket_slots", "bucket_fill", "ledger", "storage_ledger",
             "occupancy", "moments"]
        ),
        delta=st.sampled_from([-CONFIG.num_buckets, -5, -1, 1, 4, 64]),
        make=column_makers,
    )
    def test_tree_columns_of_the_wrong_length(self, which, delta, make):
        """The bucket columns and the ledgers are indexed unchecked, so
        they must be exactly the geometry's (the owner's) size — shorter
        *or* longer is refused."""
        args = kernel_args(plain_backend())
        real = memoryview(args[which])
        args[which] = make(real.format, max(len(real) + delta, 0))
        with pytest.raises(ValueError):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        which=st.sampled_from(["free", "stash_col"]),
        column=st.sampled_from(
            [[], [1], [-1, 0, 0], [3, 0, 0], [2**31 - 1, 0], [-(2**31), 0]]
        ),
    )
    def test_length_prefix_beyond_its_column(self, which, column):
        """Item 0 of the free stack and of the stash column is a length:
        a column too short to have one, or whose length points past its
        end (or before its start), is refused."""
        args = kernel_args(plain_backend())
        args[which] = array("i", column)
        with pytest.raises(ValueError):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        name=st.sampled_from(
            ["mac_col", "chunks", "free", "bucket_slots", "bucket_fill",
             "stash_col"]
        ),
        junk=st.sampled_from([None, (1,), "ab", 5, array("q"), [0] * 8]),
    )
    def test_wrong_containers(self, name, junk):
        args = kernel_args(plain_backend())
        assume(not (name in ("mac_col", "chunks") and isinstance(junk, list)))
        args[name] = junk
        with pytest.raises(TypeError):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        name=st.sampled_from(["levels", "cap", "block_bytes", "chunk_slots"]),
        value=st.sampled_from([-1, 0, 1, 3, 61, 256, 2**40]),
    )
    def test_geometry_out_of_range(self, name, value):
        """``levels`` and ``cap`` also have to be the tree's own: the
        bucket columns are sized by them."""
        args = kernel_args(plain_backend())
        legal = {
            "levels": value == args["levels"],
            "cap": value == args["cap"],
            "block_bytes": value >= 1,
            "chunk_slots": value >= 1 and value & (value - 1) == 0,
        }[name]
        assume(not legal)
        args[name] = value
        with pytest.raises((ValueError, OverflowError)):
            CORE.AccessKernel(*args.values())

    @PROPERTY
    @given(
        name=st.sampled_from(["block", "not_found", "overflow"]),
        junk=st.sampled_from([None, 5, "x", (1, 2)]),
    )
    def test_wrong_classes(self, name, junk):
        args = kernel_args(plain_backend())
        args[name] = junk
        with pytest.raises(TypeError):
            CORE.AccessKernel(*args.values())

    def test_keywords_and_arity(self):
        args = kernel_args(plain_backend())
        with pytest.raises(TypeError):
            CORE.AccessKernel(*list(args.values())[:-1])
        with pytest.raises(TypeError):
            CORE.AccessKernel(*args.values(), extra=1)

    def test_the_bucket_columns_cannot_be_resized_under_a_handle(self):
        """Fixed-size columns stay exported for the life of the handle:
        the tree's are the core's ``column`` buffers, which have no way
        to change size at all, and CPython itself refuses to resize the
        ledgers."""
        backend = plain_backend()
        storage = backend.storage
        for column in (storage.bucket_slots, storage.bucket_fill):
            assert type(column.obj) is COLUMN_TYPE
        occupancy = backend.stash.occupancy_stats
        for column in (
            backend.ledger, storage.ledger, occupancy.ledger, occupancy.moments,
        ):
            with pytest.raises(BufferError):
                del column[1:]
            with pytest.raises(BufferError):
                column.extend(column[:1])
        backend.access(Op.READ, 1, 0, 1)
        assert backend.access_count == occupancy.count == 1


# ---------------------------------------------------------------------------
# AccessKernel: access on a corrupted storage
# ---------------------------------------------------------------------------


def warmed_backend():
    """A kernel-enabled backend with blocks in the tree and the stash,
    plus the position map that finds them again."""
    backend = plain_backend()
    rng = DeterministicRng(21)
    posmap = {}
    for _ in range(60):
        addr = rng.randrange(24)
        new_leaf = rng.random_leaf(CONFIG.levels)
        backend.access(Op.READ, addr, posmap.get(addr, 0), new_leaf)
        posmap[addr] = new_leaf
    for addr in (40, 41):
        backend.access(
            Op.APPEND, addr, append_block=Block(addr, addr % 8, bytes(8), None)
        )
    return backend, posmap


def image(backend):
    return backend.stash_snapshot(), tree_digest(backend.storage)


def path_bucket(leaf, depth):
    return (1 << depth) - 1 + (leaf >> (CONFIG.levels - depth))


def full_path_bucket(storage, leaf):
    """Heap index of a bucket on the path to ``leaf`` that holds Z blocks."""
    for depth in range(CONFIG.levels + 1):
        index = path_bucket(leaf, depth)
        if storage.bucket_fill[index] == CONFIG.blocks_per_bucket:
            return index
    raise AssertionError("the warm-up left no full bucket on this path")


class Scribble:
    """Overwrite items of a typed column; ``undo`` puts them back."""

    def __init__(self, column):
        self.column = column
        self.saved = {}

    def __setitem__(self, index, value):
        self.saved.setdefault(index, self.column[index])
        self.column[index] = value

    def undo(self):
        for index, value in self.saved.items():
            self.column[index] = value


class TestKernelAccessBoundary:
    """What can now be wrong is what a typed column can hold: a count
    past Z, a slot id that is no slot, or one claimed twice."""

    def rejected_and_unchanged(self, backend, before, undo, *access):
        with pytest.raises(REJECTED):
            backend.access(*access)
        undo()
        assert image(backend) == before
        # The handle is not left busy and the backend still works.
        backend.access(Op.READ, 60, 0, 1)

    @PROPERTY
    @given(
        fill=st.integers(CONFIG.blocks_per_bucket + 1, 255),
        depth=st.integers(0, CONFIG.levels),
        op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV]),
    )
    def test_bucket_fill_beyond_z(self, fill, depth, op):
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        counts = Scribble(backend.storage.bucket_fill)
        counts[path_bucket(leaf, depth)] = fill
        self.rejected_and_unchanged(
            backend, before, counts.undo, op, addr, leaf, 2
        )

    @PROPERTY
    @given(
        bad=hostile_slot_ids,
        depth=st.integers(0, CONFIG.levels),
        position=st.integers(0, CONFIG.blocks_per_bucket - 1),
        op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV]),
    )
    def test_hostile_slot_in_a_path_bucket(self, bad, depth, position, op):
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        storage = backend.storage
        index = path_bucket(leaf, depth)
        slots, counts = Scribble(storage.bucket_slots), Scribble(storage.bucket_fill)
        fill = storage.bucket_fill[index]
        # Every position a raised fill exposes is written: what a stale
        # slot holds is no test's input.
        for exposed in range(min(fill, position), position + 1):
            slots[index * CONFIG.blocks_per_bucket + exposed] = bad
        counts[index] = max(fill, position + 1)

        def undo():
            slots.undo()
            counts.undo()

        self.rejected_and_unchanged(backend, before, undo, op, addr, leaf, 2)

    @PROPERTY
    @given(
        depth=st.integers(0, CONFIG.levels),
        via_stash=st.booleans(),
        op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV]),
    )
    def test_slot_claimed_twice(self, depth, via_stash, op):
        """A slot two buckets of one path hold, or a bucket and the
        stash: one block about to be evicted twice (and, as the block of
        interest, freed twice)."""
        backend, posmap = warmed_backend()
        storage, stash = backend.storage, backend.stash
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        donor = (
            stash.slots[1] if via_stash
            else storage.bucket(full_path_bucket(storage, leaf))[0]
        )
        index = path_bucket(leaf, depth)
        assume(donor not in storage.bucket(index))
        slots, counts = Scribble(storage.bucket_slots), Scribble(storage.bucket_fill)
        position = min(storage.bucket_fill[index], CONFIG.blocks_per_bucket - 1)
        slots[index * CONFIG.blocks_per_bucket + position] = donor
        counts[index] = position + 1

        def undo():
            slots.undo()
            counts.undo()

        self.rejected_and_unchanged(backend, before, undo, op, addr, leaf, 2)

    @PROPERTY
    @given(bad=hostile_slot_ids, position=st.integers(1, 2), append=st.booleans())
    def test_hostile_stash_entry(self, bad, position, append):
        """Met by the drain of a tree access and by the duplicate probe
        of an APPEND alike."""
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        residents = Scribble(backend.stash.slots)
        residents[position] = bad
        access = (
            (Op.APPEND, 55, 0, 0, None, Block(55, 1, bytes(8), None))
            if append else (Op.READ, addr, leaf, 2)
        )
        self.rejected_and_unchanged(backend, before, residents.undo, *access)

    @PROPERTY
    @given(
        length=st.one_of(
            st.integers(-(2**31), -1), st.integers(0, 2**31 - 1)
        ),
        column=st.sampled_from(["stash", "free"]),
    )
    def test_length_prefix_beyond_its_column(self, length, column):
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        target = (
            backend.stash.slots if column == "stash" else backend.storage._free
        )
        header = 2 if column == "free" else 1  # the free stack's mark too
        assume(not 0 <= length <= len(target) - header)
        before = image(backend)
        prefix = Scribble(target)
        prefix[0] = length
        self.rejected_and_unchanged(
            backend, before, prefix.undo, Op.READ, addr, leaf, 2
        )

    @PROPERTY
    @given(
        column=st.sampled_from(["stash", "free", "mac_col", "chunks"]),
        keep=st.integers(0, 2),
    )
    def test_column_cut_short_between_calls(self, column, keep):
        """The growing columns are bound as objects and exported afresh
        in every call, so one that shrank since the last call is met by
        that call's checks, not by a stale pointer."""
        backend, posmap = warmed_backend()
        storage = backend.storage
        before = image(backend)
        target = {
            "stash": backend.stash.slots, "free": storage._free,
            "mac_col": storage.mac_col, "chunks": storage._chunks,
        }[column]
        saved = target[:]
        del target[0 if column == "chunks" else keep:]  # the arena is one chunk

        def undo():
            target[:] = saved

        # A first touch: walks the stash, claims a free slot, writes its
        # MAC and payload.
        self.rejected_and_unchanged(backend, before, undo, Op.WRITE, 50, 0, 2)

    @PROPERTY
    @given(which=st.sampled_from(["addr_col", "leaf_col"]), grow=st.booleans())
    def test_unequal_column_lengths(self, which, grow):
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        column = getattr(backend.storage, which)
        last = column[-1]
        if grow:
            column.append(0)
            undo = column.pop
        else:
            column.pop()

            def undo():
                column.append(last)

        self.rejected_and_unchanged(backend, before, undo, Op.READ, addr, leaf, 2)

    @PROPERTY
    @given(bad=hostile_slot_ids)
    def test_hostile_free_stack_entry(self, bad):
        """A first touch meets the corrupt entry on top of the released
        slots; nothing was claimed."""
        backend, _posmap = warmed_backend()
        before = image(backend)
        stack = Scribble(backend.storage._free)
        stack[0] = 1
        stack[2] = bad
        self.rejected_and_unchanged(
            backend, before, stack.undo, Op.WRITE, 50, 0, 2
        )

    @PROPERTY
    @given(
        mark=st.one_of(
            st.integers(-(2**31), -1), st.integers(CHUNK_SLOTS + 1, 2**31 - 1)
        ),
        op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV]),
    )
    def test_high_water_mark_outside_the_arena(self, mark, op):
        """The first slot never handed out lies in the one-chunk arena or
        at its end; any other mark is refused before anything is read."""
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        header = Scribble(backend.storage._free)
        header[1] = mark
        with pytest.raises(ValueError, match="high-water mark .* outside the arena"):
            backend.access(op, addr, leaf, 2)
        header.undo()
        assert image(backend) == before
        backend.access(Op.READ, 60, 0, 1)

    @PROPERTY
    @given(short=st.integers(1, 20))
    def test_high_water_mark_past_the_stacks_capacity(self, short):
        """A free stack cut too short to take back every slot handed out
        is refused, though its depth still fits it."""
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        free = backend.storage._free
        saved = free[:]
        before = image(backend)
        del free[2 + free[1] - short :]

        def undo():
            free[:] = saved

        with pytest.raises(ValueError, match="high-water mark .* capacity"):
            backend.access(Op.READ, addr, leaf, 2)
        undo()
        assert image(backend) == before
        backend.access(Op.READ, 60, 0, 1)

    @PROPERTY
    @given(
        via=st.sampled_from(["stash", "tree"]),
        where=st.sampled_from(["released", "mark"]),
        op=st.sampled_from([Op.WRITE, Op.APPEND]),
    )
    def test_live_slot_on_the_free_stack(self, via, where, op):
        """The next slot to claim — the top released slot, or the
        high-water mark moved back — holds a block (in the tree, or in the
        stash): claiming it would alias two blocks."""
        backend, posmap = warmed_backend()
        storage = backend.storage
        before = image(backend)
        live = (
            backend.stash.slots[1] if via == "stash"
            else storage.bucket(full_path_bucket(storage, posmap[next(iter(posmap))]))[0]
        )
        stack = Scribble(storage._free)
        if where == "released":
            stack[0] = 1
            stack[2] = live
        else:
            stack[0] = 0
            stack[1] = live
        access = (
            (Op.WRITE, 50, 0, 2) if op is Op.WRITE
            else (Op.APPEND, 55, 0, 0, None, Block(55, 1, bytes(8), None))
        )
        with pytest.raises(ValueError, match="holds a live block"):
            backend.access(*access)
        stack.undo()
        assert image(backend) == before
        backend.access(Op.READ, 60, 0, 1)

    @PROPERTY
    @given(
        chunk=st.sampled_from(
            ["released", "read-only", "short", "strided", "bytearray", "none"]
        ),
        op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV, Op.APPEND]),
    )
    def test_a_chunk_that_cannot_be_read_in_place(self, chunk, op):
        """A payload is read through its chunk's memoryview, exporting
        nothing, so every touch checks what an export did — a live,
        writable, C-contiguous memoryview long enough for the slot — and
        refuses in the export's words. The tree, the stash and the claim
        order are left as they were; a refused APPEND, which claimed, puts
        its slot back exactly."""
        backend, posmap = warmed_backend()
        storage = backend.storage
        size = len(storage._chunks[0])
        released = memoryview(bytearray(size))
        released.release()
        bad, error, words = {
            "released": (
                released, ValueError, "forbidden on released memoryview",
            ),
            "read-only": (
                memoryview(bytes(size)), BufferError, "buffer is not writable",
            ),
            "short": (
                memoryview(bytearray(4)), IndexError,
                r"slot \d+ outside the byte arena",
            ),
            "strided": (
                memoryview(bytearray(2 * size))[::2], BufferError,
                "buffer is not C-contiguous",
            ),
            "bytearray": (
                bytearray(size), TypeError, "must be a memoryview, not 'bytearray'",
            ),
            "none": (None, TypeError, "must be a memoryview, not 'NoneType'"),
        }[chunk]
        addr, leaf = next(iter(posmap.items()))
        access = {
            Op.READ: (Op.READ, addr, leaf, 2),
            Op.READRMV: (Op.READRMV, addr, leaf, 2),
            Op.WRITE: (Op.WRITE, 50, 0, 2),  # a first touch: claims, zeroes
            Op.APPEND: (
                Op.APPEND, 55, 0, 0, None, Block(55, 1, bytes(8), None)
            ),
        }[op]
        before = image(backend)
        claims = storage.free_slots()
        header = storage._free[:2]
        saved = storage._chunks[0]
        storage._chunks[0] = bad
        with pytest.raises(error, match=words):
            backend.access(*access)
        storage._chunks[0] = saved
        assert image(backend) == before
        assert storage.free_slots() == claims
        if op is Op.APPEND:
            assert storage._free[:2] == header
        backend.access(Op.READ, 60, 0, 1)

    @pytest.mark.parametrize("op", [Op.READ, Op.WRITE, Op.READRMV, Op.APPEND])
    def test_a_strided_chunk_is_refused_by_its_contiguity_flag(self, op):
        """The payload touch reads the memoryview's own C-contiguity flag
        (what ``memoryview.c_contiguous`` reports), so a strided chunk
        of the right length is refused with the export's BufferError on
        every operation, and nothing moves."""
        backend, posmap = warmed_backend()
        storage = backend.storage
        strided = memoryview(bytearray(2 * len(storage._chunks[0])))[::2]
        assert len(strided) == len(storage._chunks[0])
        assert not strided.c_contiguous and not strided.readonly
        addr, leaf = next(iter(posmap.items()))
        access = {
            Op.READ: (Op.READ, addr, leaf, 2),
            Op.READRMV: (Op.READRMV, addr, leaf, 2),
            Op.WRITE: (Op.WRITE, 50, 0, 2),
            Op.APPEND: (
                Op.APPEND, 55, 0, 0, None, Block(55, 1, bytes(8), None)
            ),
        }[op]
        before = image(backend)
        saved = storage._chunks[0]
        storage._chunks[0] = strided
        with pytest.raises(
            BufferError,
            match="^memoryview: underlying buffer is not C-contiguous$",
        ):
            backend.access(*access)
        storage._chunks[0] = saved
        assert image(backend) == before
        backend.access(Op.READ, 60, 0, 1)

    def test_free_stack_with_no_room_for_a_readrmv(self):
        """READRMV pushes its slot once the eviction is done, so the room
        is checked while the access can still be refused."""
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)
        free = backend.storage._free
        depth = Scribble(free)
        depth[0] = len(free) - 2  # the deepest the header allows
        self.rejected_and_unchanged(
            backend, before, depth.undo, Op.READRMV, addr, leaf, 2
        )

    @PROPERTY
    @given(
        leaf=st.one_of(
            st.integers(max_value=-1),
            st.integers(min_value=CONFIG.num_leaves),
            st.sampled_from([None, 1.5, "3"]),
        ),
        op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV]),
    )
    # Past int64 on every run, not only on the draws that go there.
    @example(leaf=2**64, op=Op.READ)
    @example(leaf=-(2**70), op=Op.WRITE)
    def test_leaf_outside_the_tree(self, leaf, op):
        backend, posmap = warmed_backend()
        addr = next(iter(posmap))
        before = image(backend)
        with pytest.raises((ValueError, TypeError)) as err:
            backend.access(op, addr, leaf, 2)
        if isinstance(leaf, int):
            assert str(err.value) == f"leaf {leaf} out of range"
        assert image(backend) == before

    @PROPERTY
    @given(
        addr=st.one_of(st.just(2**63), st.sampled_from([None, 1.5, "a"])),
        new_leaf=st.one_of(st.just(2**63), st.sampled_from([None, 2.5, 3])),
    )
    def test_unstorable_addr_or_new_leaf(self, addr, new_leaf):
        backend, _posmap = warmed_backend()
        before = image(backend)
        with pytest.raises((TypeError, OverflowError)):
            backend.access(Op.READ, addr, 0, new_leaf)
        assert image(backend) == before

    @PROPERTY
    @given(
        field=st.sampled_from(["addr", "leaf", "data", "mac"]),
        junk=st.sampled_from([None, 1.5, "x", 2**70, b"toolongpayload"]),
    )
    def test_hostile_append_block(self, field, junk):
        backend, _posmap = warmed_backend()
        before = image(backend)
        free_before = backend.storage._free[:2]
        block = Block(55, 1, bytes(8), None)
        setattr(block, field, junk)
        try:
            backend.access(Op.APPEND, 55, append_block=block)
        except (TypeError, ValueError, OverflowError):
            assert image(backend) == before
            assert backend.storage._free[:2] == free_before
        else:
            assert field == "mac"

    @PROPERTY
    @given(
        field=st.sampled_from(["leaf", "data", "mac"]),
        junk=st.sampled_from([None, 1.5, "x", 2**70, b"toolongpayload"]),
    )
    def test_update_leaving_a_hostile_block(self, field, junk):
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)

        def update(block):
            setattr(block, field, junk)

        try:
            backend.access(Op.WRITE, addr, leaf, 2, update=update)
        except (TypeError, ValueError, OverflowError):
            assert image(backend) == before
        else:
            assert field == "mac"

    @PROPERTY
    @given(column=st.sampled_from(["stash", "addr_col", "free"]))
    def test_update_callback_cutting_a_column_short(self, column):
        """No export is live while an update callback runs, so it *can*
        shrink a column; the access looks again afterwards instead of
        writing through what it measured before."""
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        storage = backend.storage
        target = {
            "stash": backend.stash.slots, "addr_col": storage.addr_col,
            "free": storage._free,
        }[column]
        saved = target[:]
        before = image(backend)

        def update(block):
            del target[1:]

        with pytest.raises(REJECTED):
            backend.access(Op.WRITE, addr, leaf, 2, update=update)
        target[:] = saved
        assert image(backend) == before
        backend.access(Op.READ, 60, 0, 1)

    def test_arity_and_scalars(self):
        backend, _posmap = warmed_backend()
        kernel = backend._kernel
        before = image(backend)
        for args in ((), (Op.READ, 1, 0, 0), (Op.READ, 1, 0, 0, None, None, None)):
            with pytest.raises(TypeError):
                kernel.access(*args)
        assert image(backend) == before

    def test_reentrant_access_is_refused(self):
        backend, posmap = warmed_backend()
        addr, leaf = next(iter(posmap.items()))
        before = image(backend)

        def update(block):
            backend.access(Op.READ, addr, leaf, 1)

        with pytest.raises(RuntimeError, match="re-entrant"):
            backend.access(Op.WRITE, addr, leaf, 2, update=update)
        assert image(backend) == before

    def test_kernel_outliving_its_backend(self):
        backend, _posmap = warmed_backend()
        kernel = backend._kernel
        del backend
        with pytest.raises(ReferenceError):
            kernel.access(Op.READ, 1, 0, 0, None, None)


# ---------------------------------------------------------------------------
# FrontendKernel: construction
# ---------------------------------------------------------------------------

FRONTEND_FIELDS = dict(num_blocks=2**9, onchip_entries=4, plb_capacity_bytes=512)

PLB_COLUMNS = ("tags", "leaves", "counters", "last_use", "payload")
#: A fixed-size column of a FrontendKernel: the PLB's five and the four
#: ledgers, as (argument, position).
fixed_columns = st.sampled_from(
    [("plb_columns", i) for i in range(5)] + [("ledgers", i) for i in range(4)]
)


def plain_frontend(scheme="PIC_X32", **fields):
    """A columnar frontend whose backend runs on its ``AccessKernel``."""
    frontend = build_frontend(
        scheme, rng=DeterministicRng(5), storage="columnar",
        **dict(FRONTEND_FIELDS, **fields),
    )
    return frontend


def frontend_kernel_args(frontend):
    """The positional arguments ``PlbFrontend.enable_native_kernel``
    builds, as a dict."""
    plb, posmap, space, fmt = (
        frontend.plb, frontend.posmap, frontend.space, frontend.format
    )
    prf, mac = frontend.crypto.prf, frontend.crypto.mac
    return {
        "frontend": frontend,
        "tree_kernel": frontend.backend._kernel,
        "access": PlbFrontend.access,
        "ledgers": (frontend.stats.ledger, plb.ledger, prf.ledger, mac.ledger),
        "plb_columns": tuple(getattr(plb, name) for name in PLB_COLUMNS),
        "onchip_table": posmap._table,
        "onchip_touched": posmap._touched,
        "touched": frontend._touched,
        "getrandbits": frontend.rng._getrandbits,
        "geometry": (
            frontend.space_levels, space.fanout, space.num_blocks,
            tuple(space.level_blocks(i) for i in range(frontend.space_levels)),
            plb.num_sets, plb.ways, posmap.entries,
        ),
        "format": (
            fmt.kind, getattr(fmt, "leaf_bytes", 0),
            getattr(fmt, "alpha_bits", 0), getattr(fmt, "beta_bits", 0),
            posmap.mode == "counter", frontend.pmmac,
        ),
        "keys": (prf.key, mac.key, mac.tag_bytes),
        "classes": (
            AccessResult, Op.READ, Op.WRITE,
            ConfigurationError, IntegrityViolationError,
        ),
    }


def replaced(values, position, value):
    return values[:position] + (value,) + values[position + 1:]


def frozen(column):
    """A read-only buffer of the column's own format and length."""
    view = memoryview(column)
    return memoryview(bytes(view.nbytes)).cast(view.format)


class TestFrontendKernelConstruction:
    def test_well_formed_baseline(self):
        frontend = plain_frontend()
        kernel = CORE.FrontendKernel(*frontend_kernel_args(frontend).values())
        result = kernel.access(3, Op.READ, None)
        assert result.tree_accesses == frontend.stats.tree_accesses == 3

    def test_onchip_index_out_of_range(self):
        """A handle told of fewer on-chip entries than the chain reaches
        refuses in ``OnChipPosMap.lookup_and_remap``'s words."""
        from repro.frontend.posmap import OnChipPosMap

        frontend = build_frontend(
            "PI_X8", num_blocks=2**12, onchip_entries=8, plb_capacity_bytes=512,
            rng=DeterministicRng(7), storage="columnar",
        )
        args = frontend_kernel_args(frontend)
        top = args["geometry"][3][-1]
        assert top > 1
        args["geometry"] = args["geometry"][:6] + (1,)
        kernel = CORE.FrontendKernel(*args.values())
        messages = []
        for call in (
            lambda: kernel.access(frontend.num_blocks - 1, Op.READ, None),
            lambda: OnChipPosMap(
                entries=1, levels=4, mode="counter", prf=frontend.crypto.prf
            ).lookup_and_remap(top - 1, 0),
        ):
            with pytest.raises(ValueError) as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            f"on-chip PosMap index {top - 1} out of range"
        )

    @PROPERTY
    @given(
        name=st.sampled_from([
            "tree_kernel", "ledgers", "plb_columns", "onchip_table",
            "onchip_touched", "touched", "getrandbits", "access", "geometry",
            "format", "keys", "classes",
        ]),
        junk=st.sampled_from([None, (1,), "ab", 5, {}, [], array("q")]),
    )
    def test_wrong_containers(self, name, junk):
        """A list is neither a bitmap nor a column; a foreign object is
        not the backend's handle."""
        args = frontend_kernel_args(plain_frontend())
        assume(not (name == "touched" and junk == []))
        args[name] = junk
        with pytest.raises((TypeError, ValueError)):
            CORE.FrontendKernel(*args.values())

    @PROPERTY
    @given(
        column=fixed_columns,
        junk=st.sampled_from([None, "ab", 5, [0] * 8, {}, b"\0" * 64]),
    )
    def test_a_column_that_is_no_writable_buffer(self, column, junk):
        group, position = column
        args = frontend_kernel_args(plain_frontend())
        args[group] = replaced(args[group], position, junk)
        with pytest.raises((TypeError, BufferError)):
            CORE.FrontendKernel(*args.values())

    @PROPERTY
    @given(column=fixed_columns, typecode=st.sampled_from("bBhHiIqQfd"))
    def test_column_of_the_wrong_item_size(self, column, typecode):
        """Each column has one item type — the ledgers int64 — and any
        other array is refused whatever its length in bytes, and so is
        the right type read-only."""
        group, position = column
        args = frontend_kernel_args(plain_frontend())
        columns = args[group]
        real = columns[position]
        expected = "B" if isinstance(real, bytearray) else real.typecode
        assume(typecode not in {"B": "bB", "q": "q", "Q": "Q"}[expected])
        args[group] = replaced(
            columns, position, array(typecode, [0] * len(real))
        )
        with pytest.raises(TypeError):
            CORE.FrontendKernel(*args.values())
        args[group] = replaced(columns, position, frozen(real))
        with pytest.raises((TypeError, BufferError)):
            CORE.FrontendKernel(*args.values())

    @PROPERTY
    @given(
        column=fixed_columns,
        delta=st.sampled_from([-8, -1, 1, 2, 64]),
        ways=st.sampled_from([1, 2]),
    )
    def test_plb_column_of_the_wrong_length(self, column, delta, ways):
        """The PLB's columns are indexed by way unchecked, so each must be
        exactly ``num_sets x ways`` items (two words a counter,
        ``block_bytes`` a payload), and a ledger exactly its owner's
        counters — shorter *or* longer is refused."""
        group, position = column
        args = frontend_kernel_args(plain_frontend(plb_ways=ways))
        real = args[group][position]
        resized = real[: max(len(real) + delta, 0)] + real[: max(delta, 0)]
        assert len(resized) != len(real)
        args[group] = replaced(args[group], position, resized)
        with pytest.raises(ValueError):
            CORE.FrontendKernel(*args.values())

    @PROPERTY
    @given(
        position=st.integers(0, 6),
        value=st.sampled_from([-1, 0, 1, 65, 2**40, 2**62]),
    )
    def test_geometry_out_of_range(self, position, value):
        args = frontend_kernel_args(plain_frontend())
        geometry = args["geometry"]
        assume(value != geometry[position])
        if position == 3:
            value = (value,) * len(geometry[3])
            assume(all(v >= 0 for v in value))
        args["geometry"] = replaced(geometry, position, value)
        try:
            kernel = CORE.FrontendKernel(*args.values())
        except (ValueError, OverflowError):
            # Sets x ways has to be the PLB columns' own size, and the
            # on-chip table has to cover its entries.
            return
        assert position not in (4, 5)
        # What the constructor lets through (fewer on-chip entries than
        # the table holds, other level sizes) is still served without
        # leaving the columns.
        try:
            kernel.access(3, Op.READ, None)
        except REJECTED:
            pass

    def test_sets_and_ways_may_be_regrouped_but_not_resized(self):
        """4 x 2 and 2 x 4 index the same eight ways; 8 x 2 does not fit."""
        for sets, ways, fits in (
            (4, 2, True), (2, 4, True), (1, 8, True),
            (8, 2, False), (4, 1, False), (16, 1, False), (3, 3, False),
        ):
            args = frontend_kernel_args(plain_frontend())
            geometry = args["geometry"]
            assert geometry[4:6] == (8, 1)
            args["geometry"] = geometry[:4] + (sets, ways) + geometry[6:]
            if fits:
                CORE.FrontendKernel(*args.values()).access(3, Op.READ, None)
            else:
                with pytest.raises(ValueError):
                    CORE.FrontendKernel(*args.values())

    @PROPERTY
    @given(
        kind=st.sampled_from(["uncompressed", "flat", "compressed", "x"]),
        leaf_bytes=st.sampled_from([-1, 0, 1, 4, 9]),
        alpha=st.sampled_from([-1, 0, 64, 65, 500]),
        beta=st.sampled_from([-1, 0, 14, 33, 500]),
    )
    # A zero-width group counter: get_bits at width 0 on every run.
    @example(kind="compressed", leaf_bytes=4, alpha=0, beta=14)
    def test_format_fields_never_index_past_a_block(
        self, kind, leaf_bytes, alpha, beta
    ):
        args = frontend_kernel_args(plain_frontend())
        args["format"] = (kind, leaf_bytes, alpha, beta) + args["format"][4:]
        try:
            kernel = CORE.FrontendKernel(*args.values())
        except ValueError:
            return
        for addr in range(0, 512, 37):
            kernel.access(addr, Op.READ, None)

    @PROPERTY
    @given(
        position=st.integers(0, 2),
        junk=st.sampled_from([None, "key", 5, b"k" * 65, 0, 65]),
    )
    def test_non_bytes_or_oversized_keys(self, position, junk):
        args = frontend_kernel_args(plain_frontend())
        legal = (
            isinstance(junk, bytes) and len(junk) <= 64
            if position < 2
            else isinstance(junk, int) and 1 <= junk <= 64
        )
        assume(not legal)
        args["keys"] = replaced(args["keys"], position, junk)
        with pytest.raises((TypeError, ValueError)):
            CORE.FrontendKernel(*args.values())

    def test_short_onchip_table_and_bitmap(self):
        """The on-chip column may be longer than ``entries``, never
        shorter."""
        for victim in ("onchip_table", "onchip_touched"):
            frontend = plain_frontend("PI_X8", onchip_entries=8)
            args = frontend_kernel_args(frontend)
            assert frontend.posmap.entries == 8
            del args[victim][1 if victim == "onchip_table" else 0:]
            with pytest.raises(ValueError):
                CORE.FrontendKernel(*args.values())
        args = frontend_kernel_args(plain_frontend("PI_X8", onchip_entries=8))
        args["onchip_table"] = args["onchip_table"] * 2
        CORE.FrontendKernel(*args.values()).access(3, Op.READ, None)

    def test_keywords_and_arity(self):
        args = frontend_kernel_args(plain_frontend())
        with pytest.raises(TypeError):
            CORE.FrontendKernel(*list(args.values())[:-1])
        with pytest.raises(TypeError):
            CORE.FrontendKernel(*args.values(), extra=1)

    def test_the_fixed_columns_cannot_be_resized_under_a_handle(self):
        """The PLB's five columns, the on-chip table and the four ledgers
        stay exported for the life of the handle, so CPython itself
        refuses to resize them — the payload included; their items stay
        writable."""
        frontend = warmed_frontend(plb_ways=2)
        plb, crypto = frontend.plb, frontend.crypto
        before = whole_image(frontend)
        for column in [getattr(plb, name) for name in PLB_COLUMNS] + [
            frontend.posmap._table, frontend.stats.ledger, plb.ledger,
            crypto.prf.ledger, crypto.mac.ledger,
        ]:
            with pytest.raises(BufferError):
                del column[1:]
            with pytest.raises(BufferError):
                column.extend(column[:1])
            column[0] = column[0]
        assert whole_image(frontend) == before
        frontend.read(7)


# ---------------------------------------------------------------------------
# FrontendKernel: access over corrupted frontend state
# ---------------------------------------------------------------------------

#: What a hostile column may make an access raise: the handle's own
#: checks, int.to_bytes' OverflowError for counters, or the library's
#: errors where the interpreted path raises them too.
FRONTEND_REJECTED = REJECTED + (
    OverflowError, KeyError, AttributeError, ConfigurationError,
    IntegrityViolationError,
)


def warmed_frontend(scheme="PIC_X32", accesses=120, **fields):
    frontend = plain_frontend(scheme, **fields)
    frontend.enable_native_kernel(CORE)
    assert isinstance(frontend._kernel, CORE.FrontendKernel)
    rng = DeterministicRng(33)
    for _ in range(accesses):
        frontend.read(rng.randrange(frontend.num_blocks))
    return frontend


def frontend_image(frontend):
    backend = frontend.backend
    return backend.stash_snapshot(), tree_digest(backend.storage)


def whole_image(frontend):
    """Stash, tree and PLB — the last as its five columns, whole."""
    return frontend_image(frontend), [
        bytes(memoryview(getattr(frontend.plb, name))) for name in PLB_COLUMNS
    ]


def resident_parent(frontend):
    """A PLB-resident level-1 entry and a data address it maps."""
    entry = next(
        e for e in frontend.plb.entries() if e.tagged_addr >> 48 == 1
    )
    index = entry.tagged_addr & ((1 << 48) - 1)
    return entry, index * frontend.space.fanout


def still_serves(frontend):
    """The handle was not left busy: a further request is served, or
    refused for what a failed one left half-done (its PosMap entries
    were remapped before it failed, as on the interpreted path) — never
    as re-entrant, which is a ``RuntimeError``."""
    assert frontend._kernel is not None
    try:
        frontend.read(frontend.num_blocks - 1)
    except FRONTEND_REJECTED:
        pass


class TestFrontendKernelAccessBoundary:
    def rejected_and_unchanged(self, frontend, undo, *access, plb=True):
        """The corruption is met before any tree access: nothing moved —
        the PLB's columns included unless it is met past the lookup loop
        (``plb=False``: a hit stamps its way and the parent's entry is
        remapped first, as on the interpreted path)."""
        image = whole_image if plb else frontend_image
        before = image(frontend)
        with pytest.raises(FRONTEND_REJECTED):
            frontend.access(*access)
        undo()
        assert image(frontend) == before
        # The handle is not left busy and the frontend still works.
        frontend.read(1)

    # -- the PLB's columns ------------------------------------------------------

    @PROPERTY
    @given(ways=st.sampled_from([2, 4, 8]))
    def test_duplicate_tag_in_one_set(self, ways):
        frontend = warmed_frontend(plb_ways=ways)
        entry, addr = resident_parent(frontend)
        tags = frontend.plb.tags
        base = entry.way - entry.way % ways
        other = base + (entry.way - base + 1) % ways
        before = whole_image(frontend)
        saved = tags[other]
        tags[other] = entry.tagged_addr
        with pytest.raises(ValueError, match="twice"):
            frontend.read(addr)
        tags[other] = saved
        assert whole_image(frontend) == before
        frontend.read(addr)

    @PROPERTY
    @given(
        high=st.integers(2**32, 2**64 - 1),
        ways=st.sampled_from([1, 2]),
    )
    def test_counter_beyond_96_bits_surfaces_at_eviction(self, high, ways):
        """The counter column's high word holds 32 bits; more is met
        where the interpreted ``int.to_bytes(12)`` meets it, sealing the
        victim — after the refill's tree access, so the request fails
        cleanly and the handle is released."""
        frontend = warmed_frontend(plb_ways=ways)
        counters = frontend.plb.counters
        for way in range(len(frontend.plb.tags)):
            counters[2 * way + 1] = high
        rng = DeterministicRng(4)
        with pytest.raises(OverflowError):
            for _ in range(300):
                frontend.read(rng.randrange(frontend.num_blocks))
        still_serves(frontend)

    @PROPERTY
    @given(
        ahead=st.one_of(st.integers(1, 2**40), st.just(2**62)),
        negative=st.booleans(),
        ways=st.sampled_from([2, 4]),
    )
    def test_last_use_beyond_the_clock(self, ahead, negative, ways):
        """A stamp from the future (or before the clock started) would
        decide a victim; met at victim selection."""
        frontend = warmed_frontend(plb_ways=ways)
        plb = frontend.plb
        stamps = plb.last_use
        saved = stamps[:]
        bad = -ahead if negative else plb._clock + 10_000 + ahead
        stamps[:] = array("q", [bad] * len(stamps))
        rng = DeterministicRng(4)
        with pytest.raises(ValueError, match="last used"):
            for _ in range(300):
                frontend.read(rng.randrange(frontend.num_blocks))
        stamps[:] = saved
        still_serves(frontend)

    @PROPERTY
    @given(tag=st.integers(-(2**63), -2), ways=st.sampled_from([1, 2]))
    def test_negative_tags_never_reach_the_tree(self, tag, ways):
        """Without PMMAC a block whose tag was scribbled over is simply
        fetched again (a zero block); the way that then has to go holds
        no block address the stash could take."""
        frontend = warmed_frontend("P_X16", plb_ways=ways)
        tags = frontend.plb.tags
        tags[:] = array("q", [tag] * len(tags))
        rng = DeterministicRng(4)
        with pytest.raises(ValueError, match="holds tag"):
            for _ in range(300):
                frontend.read(rng.randrange(frontend.num_blocks))
        still_serves(frontend)

    def test_hostile_leaves_are_refused_by_the_tree(self):
        """A resident block's leaf is only ever handed to the tree, whose
        own range check meets it when the block is next fetched."""
        frontend = warmed_frontend()
        leaves = frontend.plb.leaves
        leaves[:] = array("q", [2**40] * len(leaves))
        rng = DeterministicRng(4)
        with pytest.raises(ValueError, match="out of range"):
            for _ in range(300):
                frontend.read(rng.randrange(frontend.num_blocks))

    # -- the on-chip PosMap and the bitmaps -------------------------------------

    @PROPERTY
    @given(
        scheme=st.sampled_from(["P_X16", "PIC_X32"]),
        junk=st.sampled_from([2**64 - 1, 2**63, 2**63 - 1, 2**40]),
    )
    def test_hostile_onchip_entries(self, scheme, junk):
        """An untouched frontend misses all the way to the on-chip
        PosMap, which is read before any tree access: a label no tree
        has, or a counter about to wrap."""
        assume(scheme == "P_X16" or junk == 2**64 - 1)
        frontend = plain_frontend(scheme)
        frontend.enable_native_kernel(CORE)
        posmap = frontend.posmap
        table = posmap._table
        saved = table[:]
        table[:] = array("Q", [junk] * len(table))
        posmap._touched[:] = b"\xff" * len(posmap._touched)

        def undo():
            table[:] = saved

        self.rejected_and_unchanged(frontend, undo, 9)

    @PROPERTY
    @given(which=st.sampled_from(["bitmap", "level_bitmap"]))
    def test_short_bitmaps(self, which):
        if which == "level_bitmap":
            frontend = warmed_frontend("P_X16")
            victim = frontend._touched[0]
            addr = resident_parent(frontend)[1]
        else:
            frontend = plain_frontend("PI_X8", onchip_entries=8)
            frontend.enable_native_kernel(CORE)
            victim = frontend.posmap._touched
            addr = 9
        saved = victim[:]
        del victim[0:]

        def undo():
            victim[:] = saved

        self.rejected_and_unchanged(frontend, undo, addr, plb=False)

    @PROPERTY
    @given(junk=st.sampled_from([None, "b", 5, [0] * 64]))
    def test_hostile_first_touch_bitmap(self, junk):
        frontend = warmed_frontend("P_X16")
        _entry, addr = resident_parent(frontend)
        touched = frontend._touched
        saved = touched[0]
        touched[0] = junk

        def undo():
            touched[0] = saved

        if junk is None:
            frontend.read(addr)  # None means "no override at this level"
        else:
            self.rejected_and_unchanged(frontend, undo, addr, plb=False)

    def test_a_draw_that_scribbles_on_the_parent_payload(self):
        """P_X16 draws the new label between reading and writing the
        parent payload. The payload column cannot move under the handle,
        so a hostile draw can change bytes, never the pointer."""
        frontend = plain_frontend("P_X16")
        real = frontend.rng._getrandbits
        armed = []

        def hostile(bits):
            if armed:
                entry = armed.pop()
                with pytest.raises(BufferError):
                    del frontend.plb.payload[8:]
                entry.data[:] = bytes(64)
            return real(bits)

        frontend.rng._getrandbits = hostile
        frontend.enable_native_kernel(CORE)
        for addr in range(0, 512, 3):
            frontend.read(addr)
        entry, addr = resident_parent(frontend)
        armed.append(entry)
        frontend.read(addr)
        assert not armed

    # -- the request itself --------------------------------------------------------

    @PROPERTY
    @given(
        addr=st.one_of(
            st.integers(max_value=-1), st.integers(min_value=2**9),
            st.sampled_from([None, 1.5, "3", b"3"]),
        ),
        op=st.sampled_from([Op.READ, Op.WRITE]),
    )
    def test_hostile_addresses(self, addr, op):
        frontend = warmed_frontend()
        self.rejected_and_unchanged(
            frontend, lambda: None, addr, op, bytes(64)
        )

    @PROPERTY
    @given(
        data=st.sampled_from([None, 5, "x" * 64, [300] * 64, bytes(63), 1.5]),
        op=st.sampled_from([Op.WRITE, Op.READRMV, Op.APPEND, None, "READ"]),
    )
    def test_hostile_ops_and_payloads(self, data, op):
        """A 64-item list or string passes the length check and is refused
        by ``bytes()`` inside the data access, which the backend then rolls
        back."""
        frontend = warmed_frontend()
        walked = op is Op.WRITE and data in ("x" * 64, [300] * 64)
        # A payload of the right length is refused inside the data
        # access: the PLB lookups before it stand, tree and stash are
        # rolled back.
        self.rejected_and_unchanged(
            frontend, lambda: None, 5, op, data, plb=not walked
        )

    def test_arity(self):
        kernel = warmed_frontend()._kernel
        for args in ((), (1,), (1, Op.READ), (1, Op.READ, None, None)):
            with pytest.raises(TypeError):
                kernel.access(*args)

    def test_reentrant_access_is_refused(self):
        frontend = warmed_frontend()
        storage = frontend.backend.storage

        class Reentrant:
            def __init__(self, call):
                self.call = call

            def on_path_read(self, leaf, indices):
                self.call()

            def on_path_write(self, leaf, indices):
                pass

        for call in (
            lambda: frontend.read(2),
            lambda: frontend.backend.access(Op.READ, 2, 0, 1),
            lambda: slice_counts(frontend.access, [2], [False]),
        ):
            before = frontend_image(frontend)
            storage.observer = Reentrant(call)
            with pytest.raises(RuntimeError, match="re-entrant"):
                frontend.read(1)
            storage.observer = None
            assert frontend_image(frontend) == before
            # Not address 1: its PosMap entry was remapped before the
            # tree access failed, as on the interpreted path.
            frontend.read(400)

    def test_kernel_outliving_its_frontend(self):
        frontend = warmed_frontend()
        kernel = frontend._kernel
        backend = frontend.backend
        del frontend
        with pytest.raises(ReferenceError):
            kernel.access(1, Op.READ, None)
        assert backend.access(Op.READ, 1, 0, 1).addr == 1

    def test_access_loop_on_a_frontend_whose_kernel_is_foreign(self):
        """Anything but a FrontendKernel under ``_kernel`` gets the
        generic calls (the counting wrappers of the lockstep tests)."""
        frontend = warmed_frontend()
        real = frontend._kernel

        class Wrapper:
            entries = 0

            def access(self, *args):
                Wrapper.entries += 1
                return real.access(*args)

        frontend._kernel = Wrapper()
        slice_counts(frontend.access, [1, 2], [False, True], bytes(64))
        assert Wrapper.entries == 2


class TestMacOfAnotherType:
    """A ``mac_col`` entry that is not exact ``bytes`` is compared the
    generic way, as the interpreted ``Mac.verify``'s ``==`` compares it."""

    @pytest.mark.parametrize("flip", [False, True], ids=["equal", "flipped"])
    def test_a_bytearray_tag_verifies_as_the_reference_does(self, flip):
        ref, fast = pair("PIC_X32")
        _blocks, block_bytes = geometry(fast)
        writes = [
            (addr, Op.WRITE, bytes([addr]) * block_bytes) for addr in range(32)
        ]
        assert lockstep(ref, fast, writes) is None
        tamperers = [StorageTamperer(f.backend.storage) for f in (ref, fast)]
        addr = next(
            a for a in range(32) if all(t.find(a) is not None for t in tamperers)
        )

        def as_bytearray(record):
            tag = bytearray(record[3])
            tag[0] ^= flip
            return record[:3] + (tag,)

        for tamperer in tamperers:
            assert tamperer._edit(addr, as_bytearray)
        index, position = tamperers[1].find(addr)
        storage = fast.backend.storage
        assert type(storage.mac_col[storage.bucket(index)[position]]) is bytearray
        outcome = lockstep(ref, fast, [(addr, Op.READ)])
        if flip:
            assert outcome[1][:2] == ("raised", IntegrityViolationError)
        else:
            assert outcome is None
            assert fast.stats.mac_checks == ref.stats.mac_checks > 0


# ---------------------------------------------------------------------------
# RecursiveKernel: construction
# ---------------------------------------------------------------------------


def plain_recursive(**fields):
    """A columnar ``R_X8`` (H = 4, three PosMap trees) whose backends run
    on their ``AccessKernel``s."""
    frontend = build_frontend(
        "R_X8", rng=DeterministicRng(5), storage="columnar",
        **dict(dict(num_blocks=2**9, onchip_entries=4), **fields),
    )
    return frontend


def recursive_kernel_args(frontend):
    """The positional arguments ``RecursiveFrontend.enable_native_kernel``
    builds, as a dict."""
    posmap, space = frontend.posmap, frontend.space
    return {
        "frontend": frontend,
        "access": RecursiveFrontend.access,
        "ledger": frontend.stats.ledger,
        "trees": tuple(b._kernel for b in frontend.backends),
        "onchip_table": posmap._table,
        "onchip_touched": posmap._touched,
        "touched": frontend._touched,
        "getrandbits": frontend.rng._getrandbits,
        "geometry": (
            frontend.num_levels, space.fanout, space.num_blocks,
            posmap.entries, frontend.configs[0].leaf_bytes,
        ),
        "classes": (AccessResult, Op.READ, Op.WRITE, ConfigurationError),
    }


class TestRecursiveKernelConstruction:
    def test_well_formed_baseline(self):
        frontend = plain_recursive()
        kernel = CORE.RecursiveKernel(*recursive_kernel_args(frontend).values())
        result = kernel.access(3, Op.READ, None)
        assert result.tree_accesses == frontend.stats.tree_accesses == 4
        assert result.plb_hit_level == -1

    @PROPERTY
    @given(
        name=st.sampled_from([
            "ledger", "trees", "onchip_table", "onchip_touched", "touched",
            "getrandbits", "access", "geometry", "classes",
        ]),
        junk=st.sampled_from(
            [None, (1,), "ab", 5, {}, [], (), array("q"), b"\0" * 8,
             array("i", [0] * 11)]
        ),
    )
    def test_wrong_containers(self, name, junk):
        """A list, an int64 array or read-only bytes is not the on-chip
        column, bytes not its bitmap, an int32 or short array not the
        statistics' ledger; a tuple of anything else is not the tree
        handles."""
        args = recursive_kernel_args(plain_recursive())
        args[name] = junk
        with pytest.raises((TypeError, ValueError, BufferError)):
            CORE.RecursiveKernel(*args.values())

    @PROPERTY
    @given(
        position=st.integers(0, 4),
        value=st.sampled_from([-1, 0, 1, 2, 3, 5, 9, 65, 2**40, 2**62]),
    )
    def test_geometry_out_of_range(self, position, value):
        """A level count that disagrees with the tree tuple, a fan-out a
        PosMap block cannot hold and ``leaf_bytes`` of 0 or 9 are
        refused; what gets through is served without leaving the
        containers."""
        frontend = plain_recursive()
        args = recursive_kernel_args(frontend)
        geometry = args["geometry"]
        assume(value != geometry[position])
        args["geometry"] = replaced(geometry, position, value)
        try:
            kernel = CORE.RecursiveKernel(*args.values())
        except (ValueError, OverflowError):
            assert not (position == 2 and value > 0)
            return
        assert position in (1, 2, 4) or (position == 3 and value == 1)
        for addr in (3, 511, 2**20):
            try:
                kernel.access(addr, Op.READ, None)
            except REJECTED:
                pass

    @PROPERTY
    @given(
        levels=st.integers(0, 6),
        junk=st.sampled_from([None, "tree", 7]),
        position=st.integers(0, 3),
    )
    def test_tree_tuple_of_the_wrong_shape(self, levels, junk, position):
        args = recursive_kernel_args(plain_recursive())
        trees = args["trees"]
        assume(levels != len(trees))
        args["trees"] = (trees * 2)[:levels]
        with pytest.raises(ValueError):
            CORE.RecursiveKernel(*args.values())
        args["trees"] = replaced(trees, position, junk)
        with pytest.raises(TypeError):
            CORE.RecursiveKernel(*args.values())

    def test_short_onchip_table_bitmap_and_bitmap_list(self):
        for victim in ("onchip_table", "onchip_touched", "touched", "ledger"):
            args = recursive_kernel_args(plain_recursive(onchip_entries=16))
            del args[victim][1 if victim == "touched" else 0:]
            with pytest.raises(ValueError):
                CORE.RecursiveKernel(*args.values())

    def test_keywords_and_arity(self):
        args = recursive_kernel_args(plain_recursive())
        with pytest.raises(TypeError):
            CORE.RecursiveKernel(*list(args.values())[:-1])
        with pytest.raises(TypeError):
            CORE.RecursiveKernel(*args.values(), extra=1)


# ---------------------------------------------------------------------------
# RecursiveKernel: access over corrupted frontend state
# ---------------------------------------------------------------------------


def warmed_recursive(accesses=120, **fields):
    frontend = plain_recursive(**fields)
    frontend.enable_native_kernel(CORE)
    assert isinstance(frontend._kernel, CORE.RecursiveKernel)
    rng = DeterministicRng(33)
    for _ in range(accesses):
        frontend.read(rng.randrange(frontend.space.num_blocks))
    return frontend


def recursive_image(frontend):
    return [
        (b.stash_snapshot(), tree_digest(b.storage)) for b in frontend.backends
    ]


class TestRecursiveKernelAccessBoundary:
    def rejected(self, frontend, undo, *access, unchanged=True):
        """A Python exception, the handle not left busy, and — when the
        corruption is met before any tree access — nothing moved."""
        before = recursive_image(frontend)
        with pytest.raises(FRONTEND_REJECTED):
            frontend.access(*access)
        undo()
        if unchanged:
            assert recursive_image(frontend) == before
        frontend.read(1)

    @PROPERTY
    @given(junk=st.sampled_from([2**64 - 1, 2**63, 2**63 - 1, 2**40, 2**31]))
    def test_hostile_onchip_entries(self, junk):
        """Read before any tree access; what a uint64 column can hold
        that is no label of the top tree is refused by the handle (past
        int64) or by that tree's own range check."""
        frontend = warmed_recursive()
        posmap = frontend.posmap
        table = posmap._table
        saved = table[:]
        table[:] = array("Q", [junk] * len(table))
        posmap._touched[:] = b"\xff" * len(posmap._touched)

        def undo():
            table[:] = saved

        self.rejected(frontend, undo, 9)

    def test_short_onchip_bitmap_and_unresizable_table(self):
        """The bitmap is looked at per request; the table and the
        statistics' ledger are fixed-size columns exported for the life
        of the handle, so CPython itself refuses to resize them."""
        frontend = warmed_recursive()
        table, bitmap = frontend.posmap._table, frontend.posmap._touched
        for column in (table, frontend.stats.ledger):
            with pytest.raises(BufferError):
                del column[0:]
            with pytest.raises(BufferError):
                column.append(0)
        saved = bitmap[:]
        del bitmap[0:]

        def undo():
            bitmap[:] = saved

        self.rejected(frontend, undo, 9)

    @PROPERTY
    @given(
        level=st.integers(0, 2),
        junk=st.sampled_from(
            [None, "b", 5, [0] * 64, b"\xff" * 64, bytearray()]
        ),
    )
    def test_hostile_first_touch_bitmaps(self, level, junk):
        """Wrong kind or wrong length, at any level: met after the trees
        above that level were walked, as on the interpreted path."""
        frontend = warmed_recursive()
        touched = frontend._touched
        saved = touched[level]
        touched[level] = junk

        def undo():
            touched[level] = saved

        self.rejected(frontend, undo, 500, unchanged=level == 2)

    @PROPERTY
    @given(keep=st.integers(0, 2))
    def test_shortened_bitmap_list(self, keep):
        frontend = warmed_recursive()
        touched = frontend._touched
        saved = touched[:]
        del touched[keep:]

        def undo():
            touched[:] = saved

        self.rejected(frontend, undo, 500)

    @PROPERTY
    @given(level=st.integers(1, 3), fill=st.sampled_from([0xFF, 0x80, 0x7F]))
    def test_hostile_labels_inside_posmap_blocks(self, level, fill):
        """Every PosMap block of one tree overwritten: the labels read
        out of them address no leaf of the tree below, whose range check
        refuses them."""
        frontend = warmed_recursive()
        storage = frontend.backends[level].storage
        for chunk in storage._chunks:
            chunk[:] = bytes([fill]) * len(chunk)
        rng = DeterministicRng(4)
        for _ in range(40):
            try:
                frontend.read(rng.randrange(frontend.space.num_blocks))
            except FRONTEND_REJECTED:
                pass

    @PROPERTY
    @given(
        addr=st.one_of(
            st.integers(max_value=-1), st.integers(min_value=2**9),
            st.sampled_from([None, 1.5, "3", b"3"]),
        ),
        op=st.sampled_from([Op.READ, Op.WRITE]),
    )
    def test_hostile_addresses(self, addr, op):
        frontend = warmed_recursive()
        self.rejected(frontend, lambda: None, addr, op, bytes(64))

    @PROPERTY
    @given(
        data=st.sampled_from([None, 5, "x" * 64, bytes(63), 1.5, [300] * 64]),
        op=st.sampled_from([Op.WRITE, Op.READRMV, Op.APPEND, None, "READ"]),
    )
    def test_hostile_ops_and_payloads(self, data, op):
        """A 64-character string passes the length check and is refused
        by ``bytes()`` inside the data access, after the PosMap walk."""
        frontend = warmed_recursive()
        walked = op is Op.WRITE and data in ("x" * 64, [300] * 64)
        self.rejected(frontend, lambda: None, 5, op, data, unchanged=not walked)

    def test_arity(self):
        kernel = warmed_recursive()._kernel
        for args in ((), (1,), (1, Op.READ), (1, Op.READ, None, None)):
            with pytest.raises(TypeError):
                kernel.access(*args)

    def test_reentrant_access_is_refused(self):
        frontend = warmed_recursive()

        class Reentrant:
            def __init__(self, call):
                self.call = call

            def on_path_read(self, leaf, indices):
                self.call()

            def on_path_write(self, leaf, indices):
                pass

        for level, call in (
            (3, lambda: frontend.read(2)),
            (1, lambda: frontend.backends[0].access(Op.READ, 2, 0, 1)),
            (0, lambda: slice_counts(frontend.access, [2], [False])),
        ):
            storage = frontend.backends[level].storage
            storage.observer = Reentrant(call)
            with pytest.raises(RuntimeError, match="re-entrant"):
                frontend.read(1)
            storage.observer = None
            frontend.read(400)

    def test_kernel_outliving_its_frontend_or_a_backend(self):
        frontend = warmed_recursive()
        kernel = frontend._kernel
        backends = list(frontend.backends)
        del frontend
        with pytest.raises(ReferenceError):
            kernel.access(1, Op.READ, None)
        assert backends[0].access(Op.READ, 1, 0, 1).addr == 1

        frontend = warmed_recursive()
        kernel = frontend._kernel
        frontend.backends[2] = None
        with pytest.raises(ReferenceError):
            kernel.access(1, Op.READ, None)

    def test_access_loop_on_a_frontend_whose_kernel_is_foreign(self):
        """Anything but a frontend handle under ``_kernel`` — here a
        wrapper, then another frontend's handle — gets the generic
        calls."""
        frontend = warmed_recursive()
        real = frontend._kernel

        class Wrapper:
            entries = 0

            def access(self, *args):
                Wrapper.entries += 1
                return real.access(*args)

        frontend._kernel = Wrapper()
        slice_counts(frontend.access, [1, 2], [False, True], bytes(64))
        assert Wrapper.entries == 2

        other = warmed_recursive()
        before = other.stats.accesses
        frontend._kernel = other._kernel
        slice_counts(frontend.access, [1, 2], [False, False])
        assert other.stats.accesses == before + 2


# -- serve's control plane ----------------------------------------------------


class _Engine:
    """What a ``ServeKernel`` moves of an engine: its two totals."""

    def __init__(self):
        self.cycles = 0.0
        self.events = 0


class _Result:
    tree_accesses = 1


def _access(addr, op, data=None):
    """A frontend whose every request takes one tree access."""
    return _Result


def _clock():
    return 1.0


#: The directory's addresses: the streams' are 100 * t + row.
DIRECTORY = 1024


def serve_args(shards=2, tenants=2, rows=8, room=32):
    """Valid ``ServeKernel`` arguments: ``tenants`` streams of ``rows``
    requests routed round-robin over ``shards`` empty logs of ``room``
    rows, a queue capacity of 8, batches of 4, engines whose requests each
    take one tree access of 10 cycles, and a directory (None for one
    shard)."""
    streams = [
        (
            array("q", range(100 * t, 100 * t + rows)),
            array("b", [row % 2 for row in range(rows)]),
            array("q", [row % shards for row in range(rows)]),
            array("q", [0, 0, 0]),
        )
        for t in range(tenants)
    ]
    logs = [
        (
            array("q", bytes(8 * room)),
            array("q", bytes(8 * room)),
            array("b", bytes(room)),
            [],
            [],
            array("q", [0] * 8),
        )
        for _ in range(shards)
    ]
    engines = [
        (_Engine(), _access, [0.0, 10.0], float, bytes(8)) for _ in range(shards)
    ]
    directory = array("i", [-1] * DIRECTORY) if shards > 1 else None
    return [
        streams, logs, engines, [], directory, 8, False, 4, _clock, Op.READ,
        Op.WRITE,
    ]


def kernel_image(args):
    """Every value a ``ServeKernel`` may move."""
    streams, logs, engines, ends, directory = args[:5]
    return (
        [tuple(column.tolist() for column in stream) for stream in streams],
        [
            tuple(column.tolist() for column in log[:3])
            + (list(log[3]), list(log[4]), log[5].tolist())
            for log in logs
        ],
        [(engine[0].cycles, engine[0].events) for engine in engines],
        list(ends),
        None if directory is None else directory.tolist(),
    )


def assert_build_rejects(args, errors=REJECTED, match=None):
    """The constructor refuses, and nothing moved."""
    before = kernel_image(args)
    with pytest.raises(errors, match=match):
        CORE.ServeKernel(*args)
    assert kernel_image(args) == before


def assert_admit_rejects(args, burst, errors=REJECTED, match=None):
    """An epoch's admission raises, and nothing moved: every check
    precedes the first row."""
    kernel = CORE.ServeKernel(*args)
    before = kernel_image(args)
    with pytest.raises(errors, match=match):
        kernel.epoch(burst)
    assert kernel_image(args) == before


def with_stream(args, tenant, position, column):
    stream = list(args[0][tenant])
    stream[position] = column
    args[0][tenant] = tuple(stream)
    return args


def with_kernel_log(args, shard, position, column):
    log = list(args[1][shard])
    log[position] = column
    args[1][shard] = tuple(log)
    return args


def with_engine(args, shard, position, value):
    engine = list(args[2][shard])
    engine[position] = value
    args[2][shard] = tuple(engine)
    return args


class TestServeKernelConstruction:
    @pytest.mark.parametrize("position, typecode", [
        (0, "i"), (1, "q"), (2, "i"), (3, "i"), (3, "d"),
    ])
    def test_wrong_stream_typecodes(self, position, typecode):
        args = serve_args()
        column = array(typecode, [0] * len(args[0][0][position]))
        assert_build_rejects(with_stream(args, 0, position, column), TypeError)

    @pytest.mark.parametrize("position, typecode", [
        (0, "i"), (1, "d"), (2, "q"), (5, "i"),
    ])
    def test_wrong_log_typecodes(self, position, typecode):
        args = serve_args()
        column = array(typecode, [0] * len(args[1][0][position]))
        assert_build_rejects(with_kernel_log(args, 1, position, column), TypeError)

    @pytest.mark.parametrize("typecode", ["q", "h", "I"])
    def test_a_directory_of_the_wrong_typecode(self, typecode):
        args = serve_args()
        args[4] = array(typecode, [-1] * DIRECTORY if typecode != "I" else [0] * DIRECTORY)
        assert_build_rejects(args, TypeError, "directory")

    def test_read_only_log_ledgers_and_directory(self):
        for position in (0, 1, 2, 5):
            args = serve_args()
            frozen_column = bytes(args[1][0][position])
            if position == 2:
                frozen_column = memoryview(frozen_column)
            else:
                frozen_column = memoryview(frozen_column).cast("q")
            assert_build_rejects(
                with_kernel_log(args, 0, position, frozen_column),
                (BufferError,) + REJECTED,
            )
        args = serve_args()
        ledger = memoryview(bytes(args[0][1][3])).cast("q")
        assert_build_rejects(with_stream(args, 1, 3, ledger), (BufferError,) + REJECTED)
        args = serve_args()
        args[4] = memoryview(bytes(args[4])).cast("i")
        assert_build_rejects(args, (BufferError,) + REJECTED)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_stream_columns_of_unequal_length(self, position):
        args = serve_args()
        column = args[0][1][position]
        cut = array(column.typecode, column[:-1])
        assert_build_rejects(
            with_stream(args, 1, position, cut), ValueError, "differ in length"
        )

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_log_columns_of_unequal_length(self, position):
        args = serve_args()
        column = args[1][0][position]
        cut = array(column.typecode, column[:-1])
        assert_build_rejects(
            with_kernel_log(args, 0, position, cut), ValueError, "differ in length"
        )

    def test_ledgers_of_the_wrong_length(self):
        args = serve_args()
        assert_build_rejects(with_stream(args, 0, 3, array("q", [0, 0])), ValueError)
        args = serve_args()
        assert_build_rejects(with_kernel_log(args, 0, 5, array("q", [0] * 9)), ValueError)

    def test_malformed_containers(self):
        for index, junk in [(0, (1,)), (1, "x"), (2, ()), (3, None)]:
            args = serve_args()
            args[index] = junk
            with pytest.raises(TypeError):
                CORE.ServeKernel(*args)
        for index in (0, 1, 2):
            args = serve_args()
            args[index][0] = args[index][0][:-1]
            with pytest.raises(TypeError, match="must be a tuple"):
                CORE.ServeKernel(*args)
        for position in (3, 4):  # latencies and walls are lists
            args = serve_args()
            assert_build_rejects(with_kernel_log(args, 0, position, ()), TypeError, "lists")
        args = serve_args()
        assert_build_rejects(with_engine(args, 1, 2, (0.0, 10.0)), TypeError, "table")
        args = serve_args()
        args[8] = 7
        assert_build_rejects(args, TypeError, "clock")

    def test_no_shards_and_no_capacity(self):
        args = serve_args()
        args[1] = []
        assert_build_rejects(args, ValueError)
        args = serve_args()
        args[2] = args[2][:1]
        assert_build_rejects(args, ValueError, "one engine per shard")
        for index in (5, 7):  # the queue capacity, max_batch
            args = serve_args()
            args[index] = 0
            assert_build_rejects(args, ValueError, ">= 1")

    def test_argument_count(self):
        with pytest.raises(TypeError):
            CORE.ServeKernel(*serve_args()[:10])
        with pytest.raises(TypeError, match="positional"):
            CORE.ServeKernel(*serve_args()[:10], write_op=Op.WRITE)


class TestServeKernelAdmit:
    """Admission, as ``epoch(burst)`` runs it before any batch: each tenant
    offers up to ``burst`` rows from its cursor."""

    def test_a_valid_admission(self):
        args = serve_args()
        assert CORE.ServeKernel(*args).epoch(4) == 8
        streams, logs, ends, directory = args[0], args[1], args[3], args[4]
        assert ends == [4, 4]
        assert [tuple(s[3]) for s in streams] == [(4, 0, 0)] * 2
        assert logs[0][0][:4].tolist() == [0, 0, 1, 1]
        assert logs[0][1][:4].tolist() == [0, 1, 2, 3]
        assert [directory[a] for a in (0, 2, 100, 102)] == [0, 1, 2, 3]
        assert logs[0][5].tolist() == [0, 0, 1, 4, 4, 1, 1, 4]  # mapped 4

    @pytest.mark.parametrize("route", [2, 3, -1, 2**62])
    def test_a_route_outside_the_pool(self, route):
        args = serve_args()
        args[0][1][2][1] = route
        assert_admit_rejects(args, 4, ValueError, "routes to shard")

    def test_a_route_outside_the_pool_beyond_the_burst_is_not_read(self):
        args = serve_args()
        args[0][1][2][7] = 9  # past this epoch's window
        assert CORE.ServeKernel(*args).epoch(4) == 8

    def test_a_log_column_that_is_also_the_routes(self):
        """Rows written by admission can be rows it reads: a route the
        epoch itself overwrote is checked again where it is used."""
        args = serve_args(tenants=1, rows=8, room=8)
        routes = array("q", [0] * 8)
        with_stream(args, 0, 2, routes)
        with_kernel_log(args, 0, 1, routes)  # shard 0's addresses are the routes
        args[4][0] = 99  # address 0 is shard 0's block 99
        args[3] = [1, 0]
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(ValueError, match="route changed"):
            kernel.epoch(4)

    def test_a_log_column_that_is_also_the_addresses(self):
        """An address the epoch itself overwrote is checked against the
        directory again where it is used."""
        args = serve_args(tenants=1, rows=8, room=8)
        addrs = array("q", [0] * 8)
        with_stream(args, 0, 0, addrs)
        with_kernel_log(args, 0, 1, addrs)  # shard 0's local addresses are the stream's
        args[4][0] = 5000  # outside the directory once written back
        args[3] = [1, 0]
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(ValueError, match="address changed"):
            kernel.epoch(4)

    def test_a_negative_address(self):
        args = serve_args()
        args[0][0][0][3] = -1
        assert_admit_rejects(args, 4, ValueError, "address -1")

    def test_an_address_outside_the_directory(self):
        args = serve_args()
        args[0][0][0][2] = DIRECTORY
        assert_admit_rejects(args, 4, ValueError, f"address {DIRECTORY} outside")
        # Without a directory (the identity map) only negatives are refused.
        args = serve_args(shards=1)
        args[0][0][0][2] = 2**40
        assert CORE.ServeKernel(*args).epoch(4) == 8
        assert args[1][0][1][2] == 2**40

    @pytest.mark.parametrize("mapped", [-1, 2**31])
    def test_a_mapped_count_outside_int32(self, mapped):
        args = serve_args()
        args[1][0][5][7] = mapped
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(ValueError, match="mapped"):
            kernel.epoch(4)

    def test_a_burst_past_the_end_of_a_moved_cursor_takes_what_is_left(self):
        args = serve_args()
        args[0][0][3][0] = 6  # two rows left
        assert CORE.ServeKernel(*args).epoch(4) == 6
        assert [s[3][0] for s in args[0]] == [8, 4]

    @pytest.mark.parametrize("cursor", [9, -1])
    def test_a_cursor_outside_the_stream(self, cursor):
        args = serve_args()
        args[0][0][3][0] = cursor
        assert_admit_rejects(args, 4, ValueError, "cursor")

    @pytest.mark.parametrize("ends", [[3], [40, 0], [-1, 0], [0, "x"]])
    def test_ends_that_do_not_fit_the_logs(self, ends):
        args = serve_args()
        args[3] = ends
        assert_admit_rejects(args, 4)

    def test_a_log_without_room_for_the_epoch(self):
        args = serve_args(room=32)
        args[3] = [0, 30]  # shard 1 may take 4 more rows, and has room for 2
        assert_admit_rejects(args, 4, ValueError, "room")

    def test_room_for_exactly_the_epoch(self):
        args = serve_args(room=32)
        args[3] = [0, 28]  # shard 1 takes 4 rows: exactly its room
        assert CORE.ServeKernel(*args).epoch(4) == 8
        assert args[3][-2:] == [4, 32]
        args = serve_args(room=32)
        args[3] = [0, 29]
        assert_admit_rejects(args, 4, ValueError, "room for 3 more rows")

    def test_room_is_for_what_the_queue_can_take(self):
        args = serve_args(room=32)
        args[3] = [0, 30]
        args[5] = 2  # a queue of 2 fits
        assert CORE.ServeKernel(*args).epoch(4) == 4  # tenant 1 defers its first
        assert args[3][-2:] == [2, 32]

    @PROPERTY
    @given(
        cursor=st.integers(-2, 10),
        burst=st.integers(1, 10),
        route=st.integers(-2, 3),
        address=st.integers(-2, 2) | st.sampled_from([DIRECTORY - 1, DIRECTORY]),
        fill=st.integers(-2, 34),
    )
    def test_any_window_is_admitted_or_refused_whole(
        self, cursor, burst, route, address, fill
    ):
        """Whatever tenant 0's cursor, the burst, the route and address of
        its first offered row and shard 0's fill, an epoch either admits or
        raises having moved nothing, and it admits exactly when all of them
        are valid. Tenant 1 offers its first ``burst`` rows, every other
        one routed to shard 0."""
        args = serve_args(room=32)
        stream = args[0][0]
        stream[3][0] = cursor
        stream[2][min(max(cursor, 0), 7)] = route
        stream[0][min(max(cursor, 0), 7)] = address
        args[3] = [fill, 0]
        offer = min(burst, 8 - cursor)
        window = list(stream[2][cursor:cursor + offer]) if 0 <= cursor <= 8 else []
        theirs = -(-min(burst, 8) // 2)
        valid = (
            0 <= cursor <= 8 and 0 <= fill <= 32
            and (offer == 0 or (0 <= route < 2 and 0 <= address < DIRECTORY))
            and fill + min(8, window.count(0) + theirs) <= 32
        )
        kernel = CORE.ServeKernel(*args)
        before = kernel_image(args)
        try:
            kernel.epoch(burst)
        except REJECTED:
            assert kernel_image(args) == before
            assert not valid
        else:
            assert valid
            assert stream[3][0] == cursor + offer


class TestServeKernelEpoch:
    def test_a_valid_epoch(self):
        args = serve_args()
        kernel = CORE.ServeKernel(*args)
        assert kernel.unserved == 16
        assert kernel.epoch(4) == 8
        assert kernel.unserved == 8
        logs, engines = args[1], args[2]
        for log, engine in zip(logs, engines):
            assert log[3] == [10.0] * 4  # latencies
            assert log[4] == [0.0]  # one batch of 4 rows, one wall
            assert log[5].tolist()[5:7] == [1, 1]  # batches, epochs_busy
            assert (engine[0].cycles, engine[0].events) == (40.0, 4)

    @pytest.mark.parametrize("burst", [0, -1, 2.5, None])
    def test_a_burst_that_is_not_a_positive_int(self, burst):
        args = serve_args()
        kernel = CORE.ServeKernel(*args)
        before = kernel_image(args)
        with pytest.raises(REJECTED):
            kernel.epoch(burst)
        assert kernel_image(args) == before

    def test_a_column_resized_between_two_epochs(self):
        """Every column stays exported while the kernel lives: CPython
        refuses to resize it, and the next epoch runs on what it held."""
        args = serve_args()
        kernel = CORE.ServeKernel(*args)
        assert kernel.epoch(2) == 4
        for column in (args[0][0][0], args[1][1][1], args[1][0][5], args[4]):
            with pytest.raises(BufferError):
                column.append(0)
            with pytest.raises(BufferError):
                del column[-1]
        assert kernel.epoch(2) == 4
        assert args[3] == [2, 2, 4, 4]

    def test_a_ledger_replaced_between_two_epochs(self):
        """The kernel counts in the ledgers it was built over: a ledger
        replaced in its tuple is not seen, and the held one moves on."""
        args = serve_args()
        kernel = CORE.ServeKernel(*args)
        assert kernel.epoch(2) == 4
        held = args[0][0][3]
        with_stream(args, 0, 3, array("q", [8, 0, 0]))  # "stream drained"
        with_kernel_log(args, 0, 5, array("q", [0] * 8))
        gc.collect()
        assert kernel.epoch(2) == 4
        assert held.tolist() == [4, 0, 0]
        assert args[0][0][3].tolist() == [8, 0, 0]
        assert kernel.unserved == 8

    def test_a_clock_that_raises_or_calls_back(self):
        args = serve_args()
        calls = []

        def clock():
            calls.append(1)
            if len(calls) == 1:
                raise ZeroDivisionError("clock")
            with pytest.raises(RuntimeError, match="re-entrant"):
                kernel.epoch(1)
            return 2.0

        args[8] = clock
        kernel = CORE.ServeKernel(*args)
        before = kernel_image(args)
        with pytest.raises(ZeroDivisionError):
            kernel.epoch(4)  # the stamp: nothing moves
        assert kernel_image(args) == before
        assert kernel.epoch(4) == 8
        assert [log[4] for log in args[1]] == [[0.0], [0.0]]

    def test_an_access_that_raises_mid_batch(self):
        """The batch's latencies go and the engine's totals stay; the
        shards before it keep what they ran."""
        args = serve_args()
        seen = []

        def access(addr, op, data=None):
            seen.append(addr)
            if len(seen) == 3:  # shard 1's first batch
                raise KeyError("boom")
            return _Result

        with_engine(args, 1, 1, access)
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(KeyError):
            kernel.epoch(4)
        logs, engines = args[1], args[2]
        assert logs[0][3] == [10.0] * 4 and logs[0][4] == [0.0]
        assert logs[0][5].tolist()[5:7] == [1, 1]
        assert logs[1][3] == [] and logs[1][4] == []
        assert logs[1][5].tolist()[5:7] == [0, 0]
        assert (engines[1][0].cycles, engines[1][0].events) == (0.0, 0)
        assert args[3] == [4, 4]  # admission is done

    @pytest.mark.parametrize(
        "table, miss_latency", [([0, 10], float), ([], int)],
        ids=["table", "miss_latency"],
    )
    def test_latencies_that_are_not_floats_are_refused(self, table, miss_latency):
        """A table entry or a ``miss_latency`` result that is an ``int``:
        shard 0's first batch raises, its engine's totals, log and table
        stay as they were, and admission is done."""
        args = serve_args()
        with_engine(args, 0, 2, table)
        with_engine(args, 0, 3, miss_latency)
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(TypeError, match="must be a float, not int"):
            kernel.epoch(4)
        logs, engines = args[1], args[2]
        assert logs[0][3] == [] and logs[0][4] == [] and logs[1][3] == []
        assert (engines[0][0].cycles, engines[0][0].events) == (0.0, 0)
        assert engines[0][2] == table
        assert args[3] == [4, 4]

    def test_an_int_start_folds_as_int_plus_float(self):
        args = serve_args()
        args[2][0][0].cycles = 5
        kernel = CORE.ServeKernel(*args)
        assert kernel.epoch(4) == 8
        assert type(args[2][0][0].cycles) is float
        assert args[2][0][0].cycles == 5 + 10.0 + 10.0 + 10.0 + 10.0

    def test_a_clock_that_does_not_return_floats_is_refused(self):
        """An ``int`` stamp moves nothing; an ``int`` reading at a batch's
        end leaves the batch run and its wall unwritten, where a clock
        that raises there leaves it."""
        args = serve_args()
        args[8] = lambda: 3
        kernel = CORE.ServeKernel(*args)
        before = kernel_image(args)
        with pytest.raises(TypeError, match="clock must return a float, not int"):
            kernel.epoch(4)
        assert kernel_image(args) == before
        readings = iter([1.0, 2])
        args = serve_args()
        args[8] = lambda: next(readings)
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(TypeError, match="clock must return a float, not int"):
            kernel.epoch(4)
        logs, engines = args[1], args[2]
        assert logs[0][3] == [10.0] * 4 and logs[0][4] == []
        assert (engines[0][0].cycles, engines[0][0].events) == (40.0, 4)

    def test_an_engine_without_totals(self):
        args = serve_args()
        with_engine(args, 1, 0, object())
        kernel = CORE.ServeKernel(*args)
        with pytest.raises(AttributeError):
            kernel.epoch(4)
        assert args[1][1][3] == []


class TestRouteColumnBoundary:
    def test_routes_are_written_in_place(self):
        addrs = array("q", [0, 1, -1, 2**63 - 1])
        routes = array("q", [7] * 4)
        assert CORE.route_column(addrs, routes, 3) is None
        assert routes.tolist() == [1, 1, 1, 2]
        CORE.route_column(addrs, addrs, 4)  # aliased: each read before written
        assert addrs.tolist() == [1, 3, 0, 0]

    @pytest.mark.parametrize("shards", [0, -1])
    def test_no_shards(self, shards):
        routes = array("q", [7])
        with pytest.raises(ValueError, match="shards"):
            CORE.route_column(array("q", [1]), routes, shards)
        assert routes.tolist() == [7]

    def test_columns_of_the_wrong_kind(self):
        addrs, routes = array("q", [1, 2]), array("q", [7, 7])
        for args in (
            (array("i", [1, 2]), routes), (addrs, array("i", [7, 7])),
            (addrs, bytes(16)), (addrs, array("q", [7])), ([1, 2], routes),
        ):
            with pytest.raises((BufferError,) + REJECTED):
                CORE.route_column(*args, 2)
        assert routes.tolist() == [7, 7]


def fold_args(shards=2, tenants=2, rows=6, room=16, max_batch=4):
    """Valid ``serve_fold`` arguments: one logged epoch of ``rows`` rows
    per shard, tenants round-robin, float latencies and walls."""
    logs = [
        (
            array("q", [row % tenants for row in range(rows)] + [0] * (room - rows)),
            array("q", range(room)),
            array("b", [row % 2 for row in range(room)]),
            [float(row + 1) for row in range(rows)],
            [10.0] * -(-rows // max_batch),
        )
        for _ in range(shards)
    ]
    return [logs, [rows] * shards, max_batch, [0.0] * shards, [0.0] * 3 * tenants]


def fold_image(args):
    logs = args[0]
    return (
        [
            tuple(column.tolist() for column in log[:3]) + (list(log[3]), list(log[4]))
            for log in logs
        ],
        list(args[1]), list(args[3]), list(args[4]),
    )


def assert_fold_rejects(args, errors=REJECTED, match=None):
    before = fold_image(args)
    with pytest.raises(errors, match=match):
        CORE.serve_fold(*args)
    assert fold_image(args) == before


def with_fold_value(args, where, value):
    """``args`` with one latency, wall, busy total or histogram total
    replaced by ``value``."""
    if where == "latency":
        args[0][1][3][2] = value
    elif where == "wall":
        args[0][0][4][1] = value
    elif where == "busy":
        args[3][1] = value
    else:
        args[4][4] = value
    return args


class FloatSub(float):
    """A float subclass: not a float as the kernels read one."""


INF, NAN = float("inf"), float("nan")


def with_log(args, shard, position, column):
    log = list(args[0][shard])
    log[position] = column
    args[0][shard] = tuple(log)
    return args


class TestServeFoldBoundary:
    def test_a_valid_fold_changes_nothing_it_reads(self):
        args = fold_args()
        before = fold_image(args)
        packed, busy, summaries = CORE.serve_fold(*args)
        assert fold_image(args) == before
        assert [len(rows) for rows in packed] == [17 * 6] * 2
        assert busy == [21.0, 21.0]
        assert len(summaries) == 6
        count, total, low, high, buckets = summaries[0]  # tenant 0's service
        assert (count, total, low, high) == (6, 18.0, 1.0, 5.0)
        assert buckets == {1: 2, 2: 2, 3: 2}

    @pytest.mark.parametrize("position, typecode", [(0, "i"), (1, "d"), (2, "q")])
    def test_wrong_typecodes(self, position, typecode):
        args = fold_args()
        column = array(typecode, [0] * 16)
        assert_fold_rejects(with_log(args, 0, position, column), TypeError)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_columns_of_unequal_length(self, position):
        args = fold_args()
        column = args[0][1][position]
        cut = array(column.typecode, column[:-1])
        assert_fold_rejects(with_log(args, 1, position, cut), ValueError, "differ")

    @pytest.mark.parametrize("tenant", [2, -1, 2**40])
    def test_a_tenant_outside_the_roster(self, tenant):
        args = fold_args()
        args[0][1][0][3] = tenant
        assert_fold_rejects(args, ValueError, "tenant")

    def test_a_negative_write_flag(self):
        args = fold_args()
        args[0][0][2][2] = -1
        assert_fold_rejects(args, ValueError, "write flag")

    @pytest.mark.parametrize("ends", [[6], [6, 17], [-1, 6], [6, 6, 4, 6], [6, None]])
    def test_ends_that_do_not_fit_the_logs(self, ends):
        args = fold_args()
        args[1] = ends
        assert_fold_rejects(args)

    def test_latencies_and_walls_that_disagree_with_the_log(self):
        args = fold_args()
        args[0][0][3].pop()
        assert_fold_rejects(args, ValueError, "latencies")
        args = fold_args()
        args[0][1][4].append(1.0)
        assert_fold_rejects(args, ValueError, "walls")
        args = fold_args()
        assert_fold_rejects(with_log(args, 0, 3, tuple(args[0][0][3])), TypeError)

    def test_malformed_scalars_and_containers(self):
        for index, junk in [(0, ()), (1, (6, 6)), (3, [0.0]), (4, [0.0] * 5)]:
            args = fold_args()
            args[index] = junk
            assert_fold_rejects(args)
        args = fold_args()
        args[2] = 0
        assert_fold_rejects(args, ValueError, "max_batch")
        with pytest.raises(TypeError, match="5 positional"):
            CORE.serve_fold(*fold_args()[:4])

    @pytest.mark.parametrize("where", ["latency", "wall", "busy", "total"])
    @pytest.mark.parametrize("value", [7, True, None, FloatSub(1.0)], ids=repr)
    def test_a_value_that_is_not_a_float_is_refused(self, where, value):
        args = with_fold_value(fold_args(), where, value)
        assert_fold_rejects(args, TypeError, "must be a float, not")

    @pytest.mark.parametrize("where", ["latency", "wall"])
    @pytest.mark.parametrize("value", [INF, -INF, NAN])
    def test_a_row_that_is_not_finite_raises_what_int_raises(self, where, value):
        with pytest.raises((OverflowError, ValueError)) as py_err:
            int(value)
        args = with_fold_value(fold_args(), where, value)
        assert_fold_rejects(args, py_err.type, re.escape(str(py_err.value)))

    def test_a_running_sum_that_overflows(self):
        """Two finite latencies whose running sum in one queue is inf."""
        args = fold_args()
        args[0][0][3][:2] = [1.5e308, 1.5e308]
        assert_fold_rejects(args, OverflowError, "infinity")

    @pytest.mark.parametrize("where", ["busy", "total"])
    @pytest.mark.parametrize("value", [INF, NAN])
    def test_a_total_that_is_not_finite_folds_on(self, where, value):
        """``int()`` reads rows, not totals: a start of any float sums."""
        args = with_fold_value(fold_args(), where, value)
        before = fold_image(args)
        _packed, busy, summaries = CORE.serve_fold(*args)
        assert fold_image(args) == before
        total = busy[1] if where == "busy" else summaries[4][1]
        assert repr(total) == repr(value)

    def test_an_empty_log(self):
        args = fold_args(rows=0)
        packed, busy, summaries = CORE.serve_fold(*args)
        assert packed == [b"", b""] and busy == [0.0, 0.0]
        assert summaries == [(0, 0.0, None, None, {})] * 6
