"""Differential harness: object vs columnar backend replayed in lockstep.

The columnar block store rewrites the most correctness-critical layer of
the simulator, so its acceptance bar is *bit-identity*, not "tests pass":
randomized access sequences are replayed against the object and columnar
backends in lockstep, and after **every** access the harness compares

- the stash contents (values *and* insertion order),
- the just-evicted path's bucket contents (slot order included),
- the returned block of interest,
- every counter and the stash-occupancy fold,

plus full-tree content digests at trace end. Traces are generated from a
seed, every random draw (operation mix, addresses, leaf labels, payloads)
is pre-materialised into the trace, and a failing trace is **shrunk** —
greedy chunk removal that preserves the divergence and trace validity —
so the assertion message carries a minimal deterministic reproducer.

The columnar side is the fast tier's backend, whose access is the
native ``AccessKernel``: every case here needs the extension built and
skips without it (the acceptance sweep and the scheme-level lockstep
through the ``fast_tier`` fixture). A Z=1 tree whose stash never
empties keeps the ordered stash-column rebuild busy for hundreds of
consecutive accesses.
Scheme-level lockstep replays (PLB frontends with compressed and uncompressed PosMaps, PMMAC on and
off, the recursive baseline, stash-pressure Z=2/Z=3 variants) ride on
the same comparisons through the public Frontend API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.config import OramConfig
from repro.errors import BlockNotFoundError, IntegrityViolationError
from repro.storage.block import Block
from repro.storage.columnar import ColumnarTreeStorage
from repro.storage.snapshot import path_records, tree_digest, tree_records
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng

from test_native_replay import needs_core

pytestmark = needs_core

# ---------------------------------------------------------------------------
# Trace model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One pre-materialised backend operation (all randomness inlined)."""

    kind: str  # "read" | "write" | "readrmv" | "append"
    addr: int
    new_leaf: int
    payload_byte: int = 0
    set_mac: bool = False


def generate_trace(
    seed: int,
    steps: int,
    num_addrs: int,
    levels: int,
    with_removal: bool = False,
    mac_fraction: float = 0.0,
) -> List[Step]:
    """Seeded random trace, valid by construction.

    ``with_removal`` mixes in READRMV/APPEND pairs (an address is only
    re-appended after it was removed, mirroring the PLB's usage).
    """
    rng = DeterministicRng(seed)
    removed: set = set()
    out: List[Step] = []
    for _ in range(steps):
        roll = rng.random()
        if with_removal and removed and roll < 0.2:
            addr = sorted(removed)[rng.randrange(len(removed))]
            removed.discard(addr)
            out.append(Step("append", addr, 0))
            continue
        addr = rng.randrange(num_addrs)
        while addr in removed:
            addr = rng.randrange(num_addrs)
        new_leaf = rng.random_leaf(levels)
        if with_removal and roll > 0.85:
            removed.add(addr)
            out.append(Step("readrmv", addr, new_leaf))
        elif roll < 0.5:
            out.append(
                Step(
                    "write",
                    addr,
                    new_leaf,
                    payload_byte=rng.randrange(256),
                    set_mac=rng.random() < mac_fraction,
                )
            )
        else:
            out.append(Step("read", addr, new_leaf))
    return out


def is_valid(trace: List[Step]) -> bool:
    """READRMV only for live addresses, APPEND only for removed ones."""
    removed: set = set()
    for step in trace:
        if step.kind == "append":
            if step.addr not in removed:
                return False
            removed.discard(step.addr)
        else:
            if step.addr in removed:
                return False
            if step.kind == "readrmv":
                removed.add(step.addr)
    return True


# ---------------------------------------------------------------------------
# Lockstep driver
# ---------------------------------------------------------------------------


def build_pair(
    config: OramConfig, seed: int = 7
) -> Tuple[PathOramBackend, ColumnarPathOramBackend]:
    """Object and columnar backends over identical configs and RNG seeds."""
    obj = PathOramBackend(config, TreeStorage(config), DeterministicRng(seed))
    col = ColumnarPathOramBackend(
        config, ColumnarTreeStorage(config), DeterministicRng(seed)
    )
    return obj, col


class Divergence(Exception):
    """Raised by the driver at the first observable mismatch."""

    def __init__(self, step_index: int, what: str):
        super().__init__(f"step {step_index}: {what} diverged")
        self.step_index = step_index
        self.what = what


def _block_image(block: Optional[Block]):
    if block is None:
        return None
    return (block.addr, block.leaf, block.data, block.mac)


def counters(backend):
    """Every counter an access moves, and the occupancy fold."""
    stats = backend.stash.occupancy_stats
    return (
        backend.access_count, backend.tree_access_count, backend.append_count,
        backend.storage.buckets_read, backend.storage.buckets_written,
        stats.count, repr(stats.mean), repr(stats.variance), stats.max, stats.min,
    )


def run_lockstep(
    config: OramConfig,
    trace: List[Step],
    seed: int = 7,
    compare_paths: bool = True,
) -> int:
    """Replay a trace against both backends; raise Divergence on mismatch.

    The model PosMap (addr -> current leaf) is shared, so both backends
    receive byte-identical operation streams; removed blocks are held per
    backend and re-appended through each backend's own returned Block,
    exactly as the PLB does. Returns the longest run of consecutive
    accesses that each left the stash non-empty.
    """
    obj, col = build_pair(config, seed=seed)
    posmap: Dict[int, int] = {}
    removed_obj: Dict[int, Block] = {}
    removed_col: Dict[int, Block] = {}
    block_bytes = config.block_bytes
    longest = busy = 0
    for index, step in enumerate(trace):
        if step.kind == "append":
            block_obj = removed_obj.pop(step.addr)
            obj.access(Op.APPEND, step.addr, append_block=block_obj)
            col.access(Op.APPEND, step.addr, append_block=removed_col.pop(step.addr))
            # The PosMap still maps the address to the leaf assigned at
            # removal time (exactly the PLB's bookkeeping).
            posmap[step.addr] = block_obj.leaf
        else:
            leaf = posmap.get(step.addr, 0)
            update = None
            if step.kind == "write":
                payload = bytes([step.payload_byte]) * block_bytes
                mac = bytes([step.payload_byte ^ 0x5A]) * 4 if step.set_mac else None

                def update(block, payload=payload, mac=mac):
                    block.data = payload
                    if mac is not None:
                        block.mac = mac

            op = {"read": Op.READ, "write": Op.WRITE, "readrmv": Op.READRMV}[
                step.kind
            ]
            got_obj = obj.access(op, step.addr, leaf, step.new_leaf, update=update)
            got_col = col.access(op, step.addr, leaf, step.new_leaf, update=update)
            posmap[step.addr] = step.new_leaf
            if _block_image(got_obj) != _block_image(got_col):
                raise Divergence(index, "returned block")
            if step.kind == "readrmv":
                posmap.pop(step.addr, None)
                removed_obj[step.addr] = got_obj
                removed_col[step.addr] = got_col
            if compare_paths and path_records(obj.storage, leaf) != path_records(
                col.storage, leaf
            ):
                raise Divergence(index, "evicted path")
        if obj.stash_snapshot() != col.stash_snapshot():
            raise Divergence(index, "stash")
        if counters(obj) != counters(col):
            raise Divergence(index, "counters")
        busy = busy + 1 if col.stash_occupancy() else 0
        longest = max(longest, busy)
    if tree_records(obj.storage) != tree_records(col.storage):
        raise Divergence(len(trace), "final tree")
    return longest


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def divergence_of(config: OramConfig, trace: List[Step], **kwargs) -> Optional[str]:
    """The divergence signature of a trace, or None if it passes."""
    try:
        run_lockstep(config, trace, **kwargs)
    except Divergence as exc:
        return exc.what
    return None


def shrink_trace(
    config: OramConfig, trace: List[Step], **kwargs
) -> List[Step]:
    """Greedy chunk removal preserving both validity and the divergence.

    Classic ddmin-style: try dropping chunks of halving sizes; keep any
    candidate that is still a valid trace and still diverges. Terminates
    at chunk size 1, yielding a locally-minimal deterministic reproducer.
    """
    current = list(trace)
    chunk = max(len(current) // 2, 1)
    while chunk >= 1:
        index = 0
        progressed = False
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            if candidate and is_valid(candidate) and divergence_of(
                config, candidate, **kwargs
            ):
                current = candidate
                progressed = True
            else:
                index += chunk
        if chunk == 1 and not progressed:
            break
        chunk = chunk // 2 if chunk > 1 else (1 if progressed else 0)
    return current


def assert_lockstep(config: OramConfig, trace: List[Step], seed_label, **kwargs):
    """run_lockstep + automatic shrinking into the failure message."""
    try:
        return run_lockstep(config, trace, **kwargs)
    except Divergence as exc:
        minimal = shrink_trace(config, trace, **kwargs)
        pytest.fail(
            f"object/columnar divergence ({exc}) for {seed_label}; "
            f"minimal reproducer ({len(minimal)} steps): {minimal!r}"
        )


# ---------------------------------------------------------------------------
# The differential suite
# ---------------------------------------------------------------------------

TINY = OramConfig(num_blocks=64, block_bytes=16)
SMALL = OramConfig(num_blocks=256, block_bytes=32)
PRESSURE_Z2 = OramConfig(num_blocks=256, block_bytes=16, blocks_per_bucket=2)
WIDE_Z16 = OramConfig(num_blocks=512, block_bytes=16, blocks_per_bucket=16)
CROWDED_Z1 = OramConfig(num_blocks=256, block_bytes=16, blocks_per_bucket=1)


class TestRandomizedDifferential:
    def test_200_randomized_trace_replays(self, fast_tier):
        """The acceptance sweep: >= 200 seeded lockstep trace replays.

        Seeds rotate over four geometries (incl. a Z=2 stash-pressure
        tree that exercises the slow-path stash rebuild) and over plain
        and removal-heavy operation mixes, with stash and evicted-path
        comparison after every single access.
        """
        configs = (TINY, SMALL, PRESSURE_Z2, WIDE_Z16)
        for seed in range(200):
            config = configs[seed % len(configs)]
            trace = generate_trace(
                seed=1000 + seed,
                steps=40,
                num_addrs=config.num_blocks // 2,
                levels=config.levels,
                with_removal=(seed % 3 == 0),
                mac_fraction=0.3 if seed % 5 == 0 else 0.0,
            )
            assert_lockstep(config, trace, f"seed {1000 + seed}")

    def test_stash_pressure_exercises_slow_path(self):
        """Z=2 long runs must hit leftovers (the wholesale stash rebuild)."""
        trace = generate_trace(
            seed=42, steps=600, num_addrs=128, levels=PRESSURE_Z2.levels
        )
        obj, col = build_pair(PRESSURE_Z2)
        posmap: Dict[int, int] = {}
        for index, step in enumerate(trace):
            leaf = posmap.get(step.addr, 0)
            obj.access(Op.READ, step.addr, leaf, step.new_leaf)
            col.access(Op.READ, step.addr, leaf, step.new_leaf)
            posmap[step.addr] = step.new_leaf
            assert obj.stash_snapshot() == col.stash_snapshot(), f"step {index}"
        # The run only proves something if the stash actually pressured.
        assert obj.stash.occupancy_stats.max > 0
        assert tree_digest(obj.storage) == tree_digest(col.storage)

    def test_stash_that_never_empties(self, fast_tier):
        """Z=1 over a quarter-full tree: placement leaves leftovers on
        nearly every access, so for hundreds of accesses in a row the
        stash column is rebuilt, in merge order, from a non-empty stash —
        compared (contents, order, counters, occupancy fold, the evicted
        path) after every one, and whole trees at the end."""
        trace = generate_trace(
            seed=11, steps=500, num_addrs=64, levels=CROWDED_Z1.levels,
            with_removal=True,
        )
        # The run only proves something if the stash really stayed busy.
        assert assert_lockstep(CROWDED_Z1, trace, "Z=1 seed 11") >= 100

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypothesis_lockstep(self, data):
        """Hypothesis-driven mix (its shrinker complements ours)."""
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["read", "write"]),
                    st.integers(min_value=0, max_value=31),
                    st.integers(min_value=0, max_value=TINY.num_leaves - 1),
                    st.integers(min_value=0, max_value=255),
                ),
                min_size=1,
                max_size=40,
            )
        )
        trace = [
            Step(kind, addr, leaf, payload_byte=byte)
            for kind, addr, leaf, byte in ops
        ]
        run_lockstep(TINY, trace)


class TestErrorPathEquivalence:
    def test_failing_update_restores_identically(self):
        """A mid-access update exception must leave equal, usable state."""
        obj, col = build_pair(SMALL)
        posmap: Dict[int, int] = {}
        trace = generate_trace(seed=5, steps=60, num_addrs=64, levels=SMALL.levels)
        for step in trace[:40]:
            leaf = posmap.get(step.addr, 0)
            obj.access(Op.READ, step.addr, leaf, step.new_leaf)
            col.access(Op.READ, step.addr, leaf, step.new_leaf)
            posmap[step.addr] = step.new_leaf

        def failing(block):
            block.data = b"\xEE" * SMALL.block_bytes  # partial mutation...
            raise IntegrityViolationError("injected")  # ...then failure

        addr = trace[0].addr
        leaf = posmap.get(addr, 0)
        for backend in (obj, col):
            with pytest.raises(IntegrityViolationError):
                backend.access(Op.WRITE, addr, leaf, 3, update=failing)
        # Both backends roll the partial mutation back to the pre-access
        # state identically and stay usable.
        assert obj.stash_snapshot() == col.stash_snapshot()
        assert tree_records(obj.storage) == tree_records(col.storage)
        for step in trace[40:]:
            current = posmap.get(step.addr, 0)
            a = obj.access(Op.READ, step.addr, current, step.new_leaf)
            b = col.access(Op.READ, step.addr, current, step.new_leaf)
            posmap[step.addr] = step.new_leaf
            assert _block_image(a) == _block_image(b)
        assert tree_digest(obj.storage) == tree_digest(col.storage)

    def test_missing_block_strict_raises_identically(self):
        config = SMALL
        obj = PathOramBackend(
            config, TreeStorage(config), DeterministicRng(1), allow_missing=False
        )
        col = ColumnarPathOramBackend(
            config,
            ColumnarTreeStorage(config),
            DeterministicRng(1),
            allow_missing=False,
        )
        for backend in (obj, col):
            with pytest.raises(BlockNotFoundError):
                backend.access(Op.READ, 9, 0, 1)
        assert obj.stash_snapshot() == col.stash_snapshot() == ()
        assert tree_records(obj.storage) == tree_records(col.storage)

    def test_duplicate_append_raises_identically(self):
        obj, col = build_pair(SMALL)
        block = Block(5, 1, bytes(SMALL.block_bytes), None)
        for backend in (obj, col):
            backend.access(Op.APPEND, 5, append_block=Block(5, 1, bytes(32), None))
            with pytest.raises(ValueError, match="duplicate block"):
                backend.access(Op.APPEND, 5, append_block=block.copy())
        assert obj.stash_snapshot() == col.stash_snapshot()

    def test_out_of_range_leaf_raises_identically(self):
        """A corrupt leaf label fails the same way on both backends."""
        obj, col = build_pair(SMALL)
        for backend in (obj, col):
            backend.access(
                Op.APPEND,
                3,
                append_block=Block(3, SMALL.num_leaves * 2, bytes(32), None),
            )
            with pytest.raises(ValueError, match="out of range"):
                backend.access(Op.READ, 8, 0, 1)
        assert obj.stash_snapshot() == col.stash_snapshot()
        assert tree_records(obj.storage) == tree_records(col.storage)


class TestShrinker:
    """The harness's own reducer must produce minimal reproducers."""

    class _SabotagedBackend(ColumnarPathOramBackend):
        """Diverges once a marked address has been written."""

        POISON = 13

        def access(self, op, addr, leaf=0, new_leaf=0, update=None, append_block=None):
            result = super().access(
                op, addr, leaf, new_leaf, update=update, append_block=append_block
            )
            if op is Op.WRITE and addr == self.POISON and result is not None:
                result.data = b"\x00" * len(result.data)  # corrupt the echo
            return result

    def test_shrinker_isolates_the_poisoned_step(self):
        # Build a trace where exactly one WRITE hits the poisoned address.
        trace = generate_trace(seed=3, steps=50, num_addrs=32, levels=TINY.levels)
        trace = [s for s in trace if s.addr != self._SabotagedBackend.POISON]
        trace.insert(
            25, Step("write", self._SabotagedBackend.POISON, 1, payload_byte=7)
        )

        def run_sabotaged(config, candidate, **kwargs):
            obj = PathOramBackend(
                config, TreeStorage(config), DeterministicRng(7)
            )
            bad = self._SabotagedBackend(
                config, ColumnarTreeStorage(config), DeterministicRng(7)
            )
            posmap: Dict[int, int] = {}
            for index, step in enumerate(candidate):
                leaf = posmap.get(step.addr, 0)
                update = None
                if step.kind == "write":
                    payload = bytes([step.payload_byte]) * config.block_bytes

                    def update(block, payload=payload):
                        block.data = payload

                op = {"read": Op.READ, "write": Op.WRITE}[step.kind]
                a = obj.access(op, step.addr, leaf, step.new_leaf, update=update)
                b = bad.access(op, step.addr, leaf, step.new_leaf, update=update)
                posmap[step.addr] = step.new_leaf
                if _block_image(a) != _block_image(b):
                    return index
            return None

        assert run_sabotaged(TINY, trace) is not None

        # Shrink with the sabotaged runner plugged into the reducer loop.
        current = list(trace)
        chunk = max(len(current) // 2, 1)
        while chunk >= 1:
            index = 0
            while index < len(current):
                candidate = current[:index] + current[index + chunk :]
                if candidate and is_valid(candidate) and run_sabotaged(
                    TINY, candidate
                ) is not None:
                    current = candidate
                else:
                    index += chunk
            if chunk == 1:
                break
            chunk //= 2
        assert len(current) == 1
        assert current[0].addr == self._SabotagedBackend.POISON


# ---------------------------------------------------------------------------
# Scheme-level lockstep (through the public Frontend API)
# ---------------------------------------------------------------------------


SCHEME_MATRIX = [
    ("P_X16", {}),
    ("PC_X32", {}),
    ("PI_X8", {}),
    ("PIC_X32", {}),
    ("PC_X32", {"blocks_per_bucket": 3}),  # stash-pressure variant
    ("PIC_X32", {"plb_capacity_bytes": 1024}),  # eviction-heavy PLB
    ("R_X8", {}),
    ("phantom_4kb", {"num_blocks": 2**6, "block_bytes": 512}),
]


class TestSchemeLockstep:
    @pytest.mark.parametrize("scheme,overrides", SCHEME_MATRIX)
    def test_frontend_access_stream_identical(self, scheme, overrides, fast_tier):
        from repro.presets import build_frontend
        from repro.sim.engine import ReplayEngine
        from repro.sim.timing import OramTimingModel

        rng = DeterministicRng(31)
        kwargs = dict(num_blocks=2**10)
        kwargs.update(overrides)
        object_frontend = build_frontend(
            scheme, rng=DeterministicRng(7), storage="object", **kwargs
        )
        columnar_frontend = build_frontend(
            scheme, rng=DeterministicRng(7), **kwargs
        )
        # Resolving the tier is what engages the kernels (when built).
        ReplayEngine.for_mode(columnar_frontend, OramTimingModel(1000.0))
        num_addrs = kwargs["num_blocks"]
        block_bytes = kwargs.get("block_bytes", 64)
        for step in range(250):
            addr = rng.randrange(num_addrs)
            if rng.random() < 0.3:
                payload = bytes([step % 256]) * block_bytes
                a = object_frontend.write(addr, payload)
                b = columnar_frontend.write(addr, payload)
            else:
                a = object_frontend.read(addr)
                b = columnar_frontend.read(addr)
                assert a == b, f"step {step}: data diverged"
        object_backends = getattr(
            object_frontend, "backends", None
        ) or [object_frontend.backend]
        columnar_backends = getattr(
            columnar_frontend, "backends", None
        ) or [columnar_frontend.backend]
        for ob, cb in zip(object_backends, columnar_backends):
            assert isinstance(cb, ColumnarPathOramBackend)
            assert cb._kernel is not None
            assert ob.stash_snapshot() == cb.stash_snapshot()
            assert tree_digest(ob.storage) == tree_digest(cb.storage)
            assert ob.stash.occupancy_stats.max == cb.stash.occupancy_stats.max
