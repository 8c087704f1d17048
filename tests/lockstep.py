"""One lockstep harness for the two tiers.

The reference tier is a frontend on object storage with no kernel
anywhere under it: the interpreted ``access`` of every layer, the
paper's design as Python.  The fast tier is the same spec and seed on
columnar storage with ``enable_native_kernel(CORE)`` called: a
``FrontendKernel`` for a PLB frontend, a ``RecursiveKernel`` for
``R_X8`` and, for the flat-PosMap ``linear`` frontend, only the tree's
``AccessKernel``.  Every figure this repository reproduces runs on the
fast tier, so this file is the evidence that the fast tier is the
design:

- :func:`twin` builds the pair and asserts which kernel engaged;
- :func:`state` is one image of everything an access can move — every
  ledger of every owner, the PLB's columns, the on-chip table, the
  first-touch bitmaps, the RNG, and per tree the digest, the stash
  snapshot, the backend and storage counters and the occupancy summary
  (the observer's event log too, where one is recorded);
- :func:`step` is one request's outcome: ``("ok", result)`` or
  ``("raised", type, message)``;
- :func:`lockstep` steps both tiers through a request list and compares
  the outcome and the state after every access, returning the first
  failure;
- :func:`replay_lockstep` is the slice-level form: ``replay_trace`` on
  ``mode="scalar"`` and ``mode="compiled"``, chunk by chunk;
- :func:`backend_twin` and :class:`BackendDriver` are the same below
  the frontend: an object ``PathOramBackend`` and a columnar backend on
  its ``AccessKernel``, driven by pre-materialised :class:`Step` lists
  with the PosMap and the removed blocks a PLB would keep.

Nothing here is a test; ``tests/test_lockstep.py`` runs it over the
scheme registry, and the special cases live beside the code they pin.
``tests/mutants.py`` measures what it catches.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.adversary.observer import TraceObserver
from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.frontend import FrontendStats
from repro.presets import build_frontend
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.spec import spec_names
from repro.storage.columnar import ColumnarTreeStorage
from repro.frontend.plb import PlbWay
from repro.storage.snapshot import path_records, tree_digest, tree_records
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng
from repro.utils.stats import LEDGERS

CORE = load_native_core()
needs_core = pytest.mark.skipif(CORE is None, reason=unavailable_reason())

TIMING = OramTimingModel(tree_latency_cycles=1000.0)

#: frontend class -> the kernel ``enable_native_kernel`` must leave (the
#: flat-PosMap frontend has none of its own: only its tree's).
KERNELS = {
    "PlbFrontend": "FrontendKernel",
    "RecursiveFrontend": "RecursiveKernel",
    "LinearFrontend": None,
}


# ---------------------------------------------------------------------------
# Building the pair
# ---------------------------------------------------------------------------


def build(scheme, storage, seed=7, **fields):
    """One frontend of ``scheme`` on ``storage``, seeded, nothing engaged."""
    return build_frontend(
        scheme, rng=DeterministicRng(seed), storage=storage, **fields
    )


def engage(frontend):
    """Switch the frontend's kernel on, as ``ReplayEngine.enable_native``
    does, and assert the one its kind gets."""
    for backend in frontend_backends(frontend):
        assert type(backend._kernel) is CORE.AccessKernel
    kernel = KERNELS[type(frontend).__name__]
    if kernel is None:
        assert getattr(frontend, "_kernel", None) is None
        return frontend
    frontend.enable_native_kernel(CORE)
    assert type(frontend._kernel) is getattr(CORE, kernel), frontend
    return frontend


def twin(scheme, seed=7, **fields):
    """(reference, fast): one spec and seed on both tiers."""
    return (
        build(scheme, "object", seed, **fields),
        engage(build(scheme, "columnar", seed, **fields)),
    )


#: Small enough that the PLB evicts, the recursion is three or four deep
#: and a whole state image after every access stays cheap.
SMALL = dict(num_blocks=2**9, onchip_entries=4, plb_capacity_bytes=512)

#: 2-bit individual counters roll over on every fourth touch; fan-out 8
#: keeps the recursion four deep, so rolled-over groups have siblings in
#: the PLB, in the tree and (at level 0) among the data blocks.
ROLLOVER = dict(SMALL, compressed_beta=2, compressed_fanout=8)

#: name -> (scheme, spec fields): the registry at small geometry (4 KB
#: blocks shrunk to 512 B and 2^6 of them; ``R_X8`` four trees deep),
#: then the variants.
VARIANTS = {
    **{
        name: (name, dict(num_blocks=2**6, block_bytes=512)
               if name == "phantom_4kb" else SMALL)
        for name in spec_names()
    },
    "PIC_X32/2-way": ("PIC_X32", dict(SMALL, plb_ways=2)),
    "PIC_X32/full": ("PIC_X32", dict(SMALL, plb_ways=8)),
    "PIC_X32/beta=2": ("PIC_X32", ROLLOVER),
    "PC_X32/beta=2": ("PC_X32", ROLLOVER),
    "PC_X32/Z=3": ("PC_X32", dict(SMALL, blocks_per_bucket=3)),
    "PC_X32/Z=6": ("PC_X32", dict(SMALL, blocks_per_bucket=6)),
    "PI_X8/H=1": ("PI_X8", dict(SMALL, num_blocks=64, onchip_entries=64)),
    "R_X8/H=1": ("R_X8", dict(num_blocks=64, onchip_entries=64)),
    "R_X8/H=2": ("R_X8", dict(num_blocks=2**9, onchip_entries=64)),
    "R_X8/H=3": ("R_X8", dict(num_blocks=2**9, onchip_entries=8)),
    "R_X8/H=5": ("R_X8", dict(num_blocks=2**12, onchip_entries=2)),
}


def pair(name, **fields):
    """``twin`` of a named variant, ``fields`` overriding its own."""
    scheme, base = VARIANTS[name]
    return twin(scheme, **dict(base, **fields))


# ---------------------------------------------------------------------------
# The state image
# ---------------------------------------------------------------------------


def frontend_backends(frontend):
    """A frontend's backend(s): one per level for the recursive scheme."""
    backends = getattr(frontend, "backends", None)
    return backends if backends is not None else [frontend.backend]


def frontend_digests(frontend):
    """Tree digest(s) of a frontend's backend storage (all trees)."""
    return [tree_digest(b.storage) for b in frontend_backends(frontend)]


def frontend_stashes(frontend):
    """Stash snapshot(s) of a frontend's backend(s), order included."""
    return [b.stash_snapshot() for b in frontend_backends(frontend)]


def stats_image(frontend):
    return {
        name: getattr(frontend.stats, name) for name in FrontendStats.COUNTERS
    }


def ledger_owners(frontend):
    """Every owner of a ledger in ``LEDGERS`` a frontend has, by ledger:
    its statistics, the PLB's, the PRF's and the MAC's, and per tree the
    backend, the storage and the stash's occupancy summary (on object
    storage a ``RunningStats``, the reference that ``OccupancyStats``
    keeps the same names as)."""
    backends = frontend_backends(frontend)
    owners = {"frontend": [frontend.stats]}
    plb = getattr(frontend, "plb", None)
    if plb is not None:
        owners["plb"] = [plb]
    crypto = getattr(frontend, "crypto", None)
    if crypto is not None:
        owners.update(prf=[crypto.prf], mac=[crypto.mac])
    occupancy = [backend.stash.occupancy_stats for backend in backends]
    owners.update(
        backend=backends, storage=[backend.storage for backend in backends],
        occupancy=occupancy, moments=occupancy,
    )
    return owners


def ledger_image(frontend):
    """Every counter the kernels move, read through its owner's names in
    the table's order: what both tiers must leave alike."""
    return {
        name: [
            tuple(getattr(owner, slot) for slot in LEDGERS[name].slots)
            for owner in owners
        ]
        for name, owners in ledger_owners(frontend).items()
    }


def frontend_columns(frontend):
    """The frontend state that lives in typed columns: the on-chip column
    and the first-touch bitmaps, and for a PLB frontend the PLB's five
    columns whole (set by set, way order and what an empty way was left
    holding included) plus the same through ``entries()``, and every
    counter beside them."""
    posmap = frontend.posmap
    image = {
        "onchip": (posmap._table.tolist(), bytes(posmap._touched)),
        "touched": [
            None if bitmap is None else bytes(bitmap)
            for bitmap in getattr(frontend, "_touched", ())
        ],
    }
    plb = getattr(frontend, "plb", None)
    if plb is not None:
        prf, mac = frontend.crypto.prf, frontend.crypto.mac
        image.update(
            plb=(
                plb.tags.tolist(), plb.leaves.tolist(), plb.counters.tolist(),
                plb.last_use.tolist(), bytes(plb.payload),
            ),
            plb_entries=[
                (way.tagged_addr, bytes(way.data), way.leaf, way.counter,
                 way.last_use)
                for way in map(PlbWay.detach, plb.entries())
            ],
            plb_counters=(plb._clock, plb.hits, plb.misses),
            prf=prf.call_count,
            mac=(mac.call_count, mac.bytes_hashed),
        )
    return image


#: Past this many buckets a whole-tree image per access costs more than
#: the access (its blocks, not its buckets: the image walks the occupied
#: buckets only): the image holds the path the access read and wrote
#: back, and the whole tree is compared where a run ends.
WHOLE_TREE_BUCKETS = 1 << 12


def tree_image(backend, leaf=None):
    """One tree: its contents (every occupied bucket's index and records,
    which its digest hashes, or only the path to ``leaf`` on a tree too
    big to image per access), the stash, every counter and the occupancy
    summary, the ledgers as columns, and the observer's event log where
    the pair records one."""
    storage, occupancy = backend.storage, backend.stash.occupancy_stats
    whole = leaf is None or storage.config.num_buckets <= WHOLE_TREE_BUCKETS
    return {
        "tree": tree_records(storage) if whole else path_records(storage, leaf),
        "stash": backend.stash_snapshot(),
        "counters": (
            backend.access_count, backend.tree_access_count,
            backend.append_count, storage.buckets_read,
            storage.buckets_written,
        ),
        "occupancy": (
            occupancy.count, repr(occupancy.mean), repr(occupancy.variance),
            occupancy.max, occupancy.min,
        ),
        "ledgers": (backend.ledger.tolist(), storage.ledger.tolist()),
        "events": list(getattr(backend, "events", ())),
    }


def state(target, leaf=None):
    """The image both tiers must leave alike, of a frontend or a backend."""
    if isinstance(target, (PathOramBackend, ColumnarPathOramBackend)):
        return tree_image(target, leaf)
    return {
        "stats": stats_image(target),
        "ledgers": ledger_image(target),
        "rng": target.rng._rng.getstate(),
        **frontend_columns(target),
        "trees": [tree_image(b) for b in frontend_backends(target)],
    }


def assert_same_state(ref, fast, context, leaf=None):
    ref_state, fast_state = state(ref, leaf), state(fast, leaf)
    for key in ref_state:
        assert ref_state[key] == fast_state[key], (context, key)


# ---------------------------------------------------------------------------
# Stepping both tiers
# ---------------------------------------------------------------------------


def step(target, args):
    """One request: its result, or the exception it raised."""
    try:
        return ("ok", target.access(*args))
    except Exception as exc:  # noqa: BLE001 - compared across tiers
        return ("raised", type(exc), str(exc))


def lockstep(ref, fast, requests, context=""):
    """Both tiers through ``requests`` (``access`` argument tuples): the
    outcome and the whole state equal after each.  Returns the index and
    outcome of the first request that raised, or None."""
    for index, args in enumerate(requests):
        outcome = step(ref, args)
        assert outcome == step(fast, args), (context, index)
        assert_same_state(ref, fast, (context, index))
        if outcome[0] == "raised":
            return index, outcome
    return None


def replay_lockstep(ref, fast, trace, batch=None, scheme="oram"):
    """``replay_trace`` on ``mode="scalar"`` for ``ref`` and
    ``mode="compiled"`` for ``fast``, ``batch`` events at a time (the
    whole trace in one slice when None): the ``SimResult``, its cycles'
    bits and the whole state equal after every slice."""
    for index, chunk in enumerate(chunked(trace, batch or len(trace.events))):
        expected = replay_trace(ref, chunk, TIMING, scheme=scheme, mode="scalar")
        got = replay_trace(fast, chunk, TIMING, scheme=scheme, mode="compiled")
        context = (trace.name, scheme, index)
        assert expected == got, context
        assert repr(expected.cycles) == repr(got.cycles), context
        assert_same_state(ref, fast, context)


# ---------------------------------------------------------------------------
# Traces and request patterns
# ---------------------------------------------------------------------------


def make_trace(seed: int, events: int, blocks: int = 2**10) -> MissTrace:
    rng = DeterministicRng(seed)
    trace = MissTrace(
        name=f"diff-{seed}", instructions=50_000, mem_refs=20_000,
        l1_hits=15_000, l2_hits=3_000,
    )
    trace.events = [
        MissEvent(rng.randrange(blocks), rng.random() < 0.3)
        for _ in range(events)
    ]
    return trace


def chunked(trace: MissTrace, batch: int):
    """Sub-traces of ``batch`` events each (scalar counters repeated)."""
    for start in range(0, len(trace.events), batch):
        chunk = MissTrace(
            name=trace.name,
            instructions=trace.instructions,
            mem_refs=trace.mem_refs,
            l1_hits=trace.l1_hits,
            l2_hits=trace.l2_hits,
        )
        chunk.events = trace.events[start : start + batch]
        yield chunk


#: How a WRITE hands over its block: only exact bytes are sealed in the
#: remap's lanes, the others through a call of their own.
WRAPS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(bytearray(data)),
}


def geometry(frontend):
    """(data blocks, block bytes) of any frontend."""
    config = frontend_backends(frontend)[0].config
    space = getattr(frontend, "space", None)
    return (space or config).num_blocks, config.block_bytes


def mixed(frontend, seed, steps, hot=64, write_share=0.3, wraps=("bytes",)):
    """Hot/cold traffic: 40 % of the requests in a hot set, the rest over
    the whole space, ``write_share`` of them WRITEs whose payload is
    handed over as one of ``wraps``."""
    blocks, block_bytes = geometry(frontend)
    rng = DeterministicRng(seed)
    out = []
    for _ in range(steps):
        addr = rng.randrange(min(hot, blocks) if rng.random() < 0.4 else blocks)
        if rng.random() < write_share:
            wrap = WRAPS[wraps[rng.randrange(len(wraps))]]
            payload = bytes([rng.randrange(256)]) * block_bytes
            out.append((addr, Op.WRITE, wrap(payload)))
        else:
            out.append((addr, Op.READ))
    return out


def repeated(frontend, seed, steps):
    """One address, READ and WRITE alternating: the PLB always hits and
    every remap moves the same counters."""
    blocks, block_bytes = geometry(frontend)
    addr = DeterministicRng(seed).randrange(blocks)
    return [
        (addr, Op.WRITE, bytes([index % 256]) * block_bytes) if index % 2
        else (addr, Op.READ)
        for index in range(steps)
    ]


def aliasing(frontend, seed, steps):
    """A stride that sends every request's first PosMap block to one PLB
    set (fan-out x sets; one data block per PosMap block where there is
    no PLB): every lookup evicts what the last one refilled."""
    blocks, _ = geometry(frontend)
    space, plb = getattr(frontend, "space", None), getattr(frontend, "plb", None)
    stride = (space.fanout if space else 1) * (plb.num_sets if plb else 1)
    start = DeterministicRng(seed).randrange(blocks)
    lanes = max(blocks // stride, 1)
    return [
        ((start + (index % lanes) * stride) % blocks, Op.READ)
        for index in range(steps)
    ]


def scan(frontend, seed, steps):
    """A sequential write scan over 32 blocks from a seeded start, pass
    after pass: each PosMap block's counters bumped fan-out times in a
    row, and every one again each pass — group remaps and counter
    rollover where beta is small."""
    blocks, block_bytes = geometry(frontend)
    start = DeterministicRng(seed).randrange(blocks)
    return [
        ((start + index % 32) % blocks, Op.WRITE,
         bytes([index % 256]) * block_bytes)
        for index in range(steps)
    ]


PATTERNS = {
    "mixed": mixed, "repeated": repeated, "aliasing": aliasing, "scan": scan,
}


# ---------------------------------------------------------------------------
# Below the frontend: two backends
# ---------------------------------------------------------------------------


class CountingKernel:
    """Wraps an ``AccessKernel``, counting the calls that enter C."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.entries = 0

    def access(self, *args):
        self.entries += 1
        return self.kernel.access(*args)


def backend_twin(config, seed=7, allow_missing=True):
    """The object reference and a columnar backend (its access the
    kernel's, counted), same seeds, each with an observer recording its
    path reads and writes into ``events``."""
    ref_events, fast_events = TraceObserver(), TraceObserver()
    ref = PathOramBackend(
        config, TreeStorage(config, observer=ref_events.for_tree(0)),
        DeterministicRng(seed), allow_missing,
    )
    fast = ColumnarPathOramBackend(
        config, ColumnarTreeStorage(config, observer=fast_events.for_tree(0)),
        DeterministicRng(seed), allow_missing,
    )
    fast._kernel = CountingKernel(fast._kernel)
    ref.events, fast.events = ref_events.events, fast_events.events
    return ref, fast


@dataclass(frozen=True)
class Step:
    """One pre-materialised backend operation (all randomness inlined)."""

    kind: str  # "read" | "write" | "readrmv" | "append"
    addr: int
    new_leaf: int
    payload_byte: int = 0
    set_mac: bool = False


def generate_steps(seed, steps, num_addrs, levels, with_removal=False,
                   mac_fraction=0.0) -> List[Step]:
    """Seeded random backend steps, valid by construction: an address is
    re-appended only after it was removed (``with_removal`` mixes
    READRMV/APPEND pairs in), as a PLB does."""
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
            out.append(Step(
                "write", addr, new_leaf, payload_byte=rng.randrange(256),
                set_mac=rng.random() < mac_fraction,
            ))
        else:
            out.append(Step("read", addr, new_leaf))
    return out


def is_valid(steps: List[Step]) -> bool:
    """READRMV only for live addresses, APPEND only for removed ones."""
    removed: set = set()
    for s in steps:
        if s.kind == "append":
            if s.addr not in removed:
                return False
            removed.discard(s.addr)
        else:
            if s.addr in removed:
                return False
            if s.kind == "readrmv":
                removed.add(s.addr)
    return True


OPS = {"read": Op.READ, "write": Op.WRITE, "readrmv": Op.READRMV}


class BackendDriver:
    """Two backends (``backend_twin``'s) driven by :class:`Step` lists
    with the bookkeeping a PLB does: one model PosMap (address -> current
    leaf) shared by both, so both receive byte-identical operation
    streams, and each side's removed blocks re-appended through that
    side's own returned ``Block``."""

    def __init__(self, ref, fast):
        self.ref, self.fast = ref, fast
        self.posmap: Dict[int, int] = {}
        self.removed = ({}, {})

    def args(self, side, s):
        if s.kind == "append":
            return (Op.APPEND, s.addr, 0, 0, None, self.removed[side][s.addr])
        update = None
        if s.kind == "write":
            block_bytes = self.ref.config.block_bytes
            payload = bytes([s.payload_byte]) * block_bytes
            mac = bytes([s.payload_byte ^ 0x5A]) * 4 if s.set_mac else None

            def update(block, payload=payload, mac=mac):
                block.data = payload
                if mac is not None:
                    block.mac = mac

        leaf = self.posmap.get(s.addr, 0)
        return (OPS[s.kind], s.addr, leaf, s.new_leaf, update)

    def run(self, steps, context="", after=None):
        """Every step on both: the returned block, then the state (the
        touched path on a big tree), after each, and one C call per
        access; ``after()`` is called after each step that did not raise.
        Returns the index and outcome of the first step that raised, or
        None; the whole trees are compared at the end."""
        ref, fast = self.ref, self.fast
        for index, s in enumerate(steps):
            leaf = self.posmap.get(s.addr, 0)
            entries = fast._kernel.entries
            outcome = step(ref, self.args(0, s))
            fast_outcome = step(fast, self.args(1, s))
            assert outcome == fast_outcome, (context, index, s)
            assert fast._kernel.entries == entries + 1, (context, index)
            assert_same_state(ref, fast, (context, index), leaf=leaf)
            if outcome[0] == "raised":
                return index, outcome
            if s.kind == "append":
                self.posmap[s.addr] = self.removed[0].pop(s.addr).leaf
                self.removed[1].pop(s.addr)
            elif s.kind == "readrmv":
                self.posmap.pop(s.addr, None)
                self.removed[0][s.addr] = outcome[1]
                self.removed[1][s.addr] = fast_outcome[1]
            else:
                self.posmap[s.addr] = s.new_leaf
            if after is not None:
                after()
        assert_same_state(ref, fast, (context, "end"))
        return None


# ---------------------------------------------------------------------------
# Structural probes
# ---------------------------------------------------------------------------


def slice_counts(access, addrs, writes, payload=b""):
    """``run_access_loop`` over plain lists of block addresses and write
    flags, read back as the per-event tree-access counts: the latency
    table is the identity (``miss_latency`` is ``float``), so each event's
    latency is its count."""
    latencies = []
    CORE.run_access_loop(
        access, array("q", addrs), array("b", writes), 1, Op.READ, Op.WRITE,
        payload, [], float, 0.0, latencies,
    )
    return [int(latency) for latency in latencies]


def python_frames_during(call):
    """Names of the library's Python functions entered while ``call``
    runs (frames from outside ``repro``, like a gc callback, ignored)."""
    entered = []

    def profiler(frame, event, _arg):
        if event == "call" and "repro" in frame.f_code.co_filename:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, entered

