"""ORAM-as-a-service: N simulated tenants over M sharded ORAM instances.

The service multiplexes tenant request streams over a pool of
independently-built ORAM shards, each driven by the *same*
:class:`~repro.sim.engine.ReplayEngine` core the offline replay kernel
uses — serving is not a fork of replay, it is replay fed by an admission
queue. That shared core is what makes the headline property possible:
a single-tenant, single-shard serve of a benchmark trace is
**bit-identical** to :func:`~repro.sim.system.replay_trace` on the same
trace (see :func:`serve_replay_equivalent` and
``tests/test_serve_lockstep.py``).

Scheduling is epoch-based, and every simulated outcome is decided by
three shared, deterministic steps over request *columns* — no object is
built per request. A tenant's stream is three typed columns made once
at construction (global block address and shard route, ``array('q')``;
write flag, ``array('b')``). A shard's accounting log
(:class:`_ShardLog`) is three fixed-size typed columns — tenant,
shard-local address, write flag — that admission fills from row 0 after
each fold, one **epoch queue** (a run of rows) after another, plus the
``latencies`` and ``walls`` execution appends. Each step has two tiers,
chosen once per service by the same switch as the engines
(:func:`~repro.sim.replay.resolve_tier`). On the fast tier *admit +
execute* is one call of the compiled core per epoch,
``ServeKernel.epoch``, over a kernel :meth:`OramService._epochs` builds
when a run starts, holding every stream, log, ledger and engine; an
epoch then costs a constant few Python calls, whatever its requests and
shards.

1. **Admission** — FIFO in tenant order: each tenant offers up to
   ``burst`` requests from its cursor, routed to shards by an address
   hash and appended to the routed shard's log, its address mapped
   through the pool's shard directory (one dense ``array('i')`` over the
   service address space; a first touch takes the shard's next local
   address). Per-shard epoch queues are bounded by ``queue_capacity``;
   an arrival at a full queue is either **shed** (dropped permanently,
   counted, cursor advances) or **deferred** (the tenant stops issuing
   for this epoch and retries the same request next epoch) per the
   configured backpressure policy. Reference tier:
   :meth:`OramService._admit_rows`.
2. **Execution** — each shard drains its epoch queue in admission
   (ticket) order, ``max_batch`` rows at a time through the replay loop
   ``run_access_loop`` runs, appending the latencies that come back and
   one wall reading per batch. Shards are mutually independent, so they
   may run in any interleaving. Reference tier:
   :meth:`OramShard.execute`, one ``ReplayEngine.run_batch`` per batch
   on memoryview slices of the log's columns. While an engine's
   ``run_batch`` is wrapped on the instance, as a tracer does, the fast
   tier runs steps 1 and 2 as the reference tier does
   (:meth:`OramService._admit_rows`, then :meth:`OramShard.execute`),
   with the engines still on their kernels.
3. **Accounting** (:meth:`OramService._account`) — after the epoch
   barrier the epoch's rows count into the log. Simulated queue wait is
   the prefix sum of service latencies ahead of a request in its
   shard's epoch queue, so the running sum of a queue's latencies *is*
   its ``wait + latency`` column. The log is folded past
   :data:`LOG_FOLD_LENGTH` rows, at the end of ``run`` and before any
   read, into each shard's digest and busy cycles and each tenant's
   histograms, epoch by epoch and shard by shard — memory stays bounded
   and a reader never sees a stale record. Fast tier: one ``serve_fold``
   call per fold (its packed digest rows go into each shard's hash in
   one ``update``, its per-histogram summaries into
   :meth:`~repro.serve.stats.LatencyHistogram.merge`); reference tier:
   :meth:`OramService._fold_rows`
   (:meth:`~repro.serve.stats.LatencyHistogram.record_many`). The two
   tiers agree row for row (``tests/test_serve_columns.py``). Time is
   floats on the fast tier: a latency, wall or total of another type is
   a ``TypeError`` there, and a row that is not finite raises what
   ``int()`` of it raises in ``record_many``.

Wall time is observational and read per epoch and per batch, not per
request: once per epoch when admission starts and once per batch when
it completes, and the log keeps one wall value per batch, so a
request's ``wall_us`` runs from the admission stamp of the epoch that
admitted it to the completion of its batch.

There is one epoch loop: admit, execute each shard, account, check
progress. :meth:`OramService.run` drives it to completion;
:meth:`OramService.serve` is the same loop as a coroutine that yields
to the event loop once per epoch, so an embedding application can await
a whole service without being blocked by it (``run("async")`` is
``serve()`` on a fresh event loop). How the loop is driven never
changes a simulated number, only the wall-clock observations.
"""

from __future__ import annotations

import time
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence

from repro.backend.ops import Op
from repro.errors import ConfigurationError, ReproError
from repro.proc.hierarchy import MissTrace
from repro.sim.engine import ReplayEngine
from repro.sim.metrics import SimResult
from repro.sim.replay import line_block_ratio, resolve_tier
from repro.sim.runner import SimulationRunner
from repro.sim.system import base_cycles
from repro.serve.stats import ShardStats, TenantStats
from repro.serve.workload import (
    TenantSpec,
    tenant_region_blocks,
    tenant_requests,
)
from repro.utils.bitops import next_pow2
from repro.utils.rng import DeterministicRng
from repro.utils.stats import LEDGERS

#: Backpressure policies for a full shard queue: ``defer`` retries the
#: arrival next epoch, ``shed`` drops it.
POLICIES = ("defer", "shed")

#: Fallback sizing benchmark when every tenant uses an explicit event
#: stream (only the platform's ``block_bytes``/``onchip_entries`` sizing is
#: taken from it; ``num_blocks`` is always overridden with the pool capacity).
_SIZING_FALLBACK = "mcf"

#: Rows the accounting log may hold before it is folded into the
#: per-tenant histograms (a few epochs' worth at any realistic shape).
LOG_FOLD_LENGTH = 4096

#: The tenant ledger's slot that is the stream cursor.
_ISSUED = LEDGERS["tenant"].slots.index("issued")


def _route_column(global_addrs: Sequence[int], shards: int) -> List[int]:
    """The shard of every global block address, the one definition of a
    route: the CRC-32 of its 8 little-endian bytes (two's complement),
    mod ``shards`` (the reference tier's; the fast tier's is one
    ``route_column`` call of the compiled core)."""
    if shards == 1:
        return [0] * len(global_addrs)
    crc32 = zlib.crc32
    return [
        crc32(addr.to_bytes(8, "little", signed=True)) % shards
        for addr in global_addrs
    ]


def _routes(addrs: array, shards: int, core) -> array:
    """A stream's route column on the service's tier."""
    if core is None or shards == 1:
        return array("q", _route_column(addrs, shards))
    routes = array("q", bytes(8 * len(addrs)))
    core.route_column(addrs, routes, shards)
    return routes


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving scenario (the seed lives on the runner)."""

    scheme: str = "PC_X32"
    shards: int = 1
    burst: int = 4
    max_batch: int = 32
    queue_capacity: int = 64
    policy: str = "defer"
    shard_blocks: Optional[int] = None
    record_accesses: bool = False

    def __post_init__(self):
        for field in ("shards", "burst", "max_batch", "queue_capacity"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"serve config: {field} must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"serve config: unknown policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )
        if self.shard_blocks is not None and self.shard_blocks < 2:
            raise ConfigurationError("serve config: shard_blocks must be >= 2")

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "shards": self.shards,
            "burst": self.burst,
            "max_batch": self.max_batch,
            "queue_capacity": self.queue_capacity,
            "policy": self.policy,
            "shard_blocks": self.shard_blocks,
        }


class _ShardLog:
    """One shard's rows since the last fold, as typed columns.

    Admission fills ``tenants`` (tenant index), ``addrs`` (shard-local
    address) and ``writes`` (write flag) from row 0 after each fold, one
    epoch queue after another; they are allocated once with ``room``
    rows, the most a shard can log between folds, and never resized, so
    ``addr_view`` / ``write_view`` slice them without copying. Execution
    appends ``latencies`` (one simulated service time per row) and
    ``walls`` (one per ``run_batch``: microseconds from the epoch's
    admission stamp to the batch's completion).
    """

    __slots__ = (
        "tenants", "addrs", "writes", "latencies", "walls",
        "addr_view", "write_view",
    )

    def __init__(self, room: int) -> None:
        self.tenants = array("q", bytes(8 * room))
        self.addrs = array("q", bytes(8 * room))
        self.writes = array("b", bytes(room))
        self.latencies: List[float] = []
        self.walls: List[float] = []
        self.addr_view = memoryview(self.addrs)
        self.write_view = memoryview(self.writes)


class OramShard:
    """One ORAM instance in the pool: frontend + engine + address directory.

    With a single shard the service address space maps onto the ORAM
    identically (no renumbering — the lockstep guarantee depends on it),
    and ``directory`` is ``None``. With multiple shards, each shard
    assigns dense local addresses to the global addresses hashed onto it
    in first-touch order, which is deterministic because admission is:
    ``directory`` is the pool's one ``array('i')`` over the service
    address space (an address routes to one shard), each entry the
    address's local one or -1 before its first touch, and the shard
    ledger's ``mapped`` is the next local address to hand out.
    """

    def __init__(
        self,
        index: int,
        frontend,
        engine: ReplayEngine,
        capacity: int,
        directory: Optional[array],
        max_batch: int,
        log_rows: int,
        record_accesses: bool = False,
    ):
        self.index = index
        self.frontend = frontend
        self.engine = engine
        self.capacity = capacity
        self.directory = directory
        self.max_batch = max_batch
        self.stats = ShardStats(index)
        self.stats.record_accesses = record_accesses
        self.log = _ShardLog(log_rows)

    def map_addr(self, global_addr: int) -> int:
        """Global service address -> this shard's local block address."""
        if self.directory is None:
            return global_addr
        local = self.directory[global_addr]
        if local < 0:
            local = self.stats.mapped
            if local >= self.capacity:
                raise ReproError(
                    f"shard {self.index} directory overflow: "
                    f"{self.capacity} blocks mapped; raise shard_blocks"
                )
            self.directory[global_addr] = local
            self.stats.mapped = local + 1
        return local

    def execute(self, rows: range, stamp: float) -> None:
        """Drain one epoch queue — ``rows`` of this shard's log — in ticket
        order, one ``run_batch`` per ``max_batch`` rows, each handed the
        log's own columns; ``stamp`` is the epoch's admission stamp. (The
        reference tier's, and the fast tier's while an engine's
        ``run_batch`` is wrapped; ``ServeKernel.epoch`` runs it
        otherwise.)"""
        if not rows:
            return
        log, stop, step = self.log, rows.stop, self.max_batch
        addrs, writes = log.addr_view, log.write_view
        latencies, walls = log.latencies, log.walls
        for first in range(rows.start, stop, step):
            last = first + step if first + step < stop else stop
            # Looked up per call: tracing wraps the engine's attribute.
            latencies += self.engine.run_batch(addrs[first:last], writes[first:last])
            walls.append((time.perf_counter() - stamp) * 1e6)
        stats = self.stats
        stats.batches += -(-len(rows) // step)
        stats.epochs_busy += 1


class _TenantState:
    """Mutable serving state of one tenant: stream, stats, region.

    The stream is three typed columns indexed by stream position:
    ``addrs`` (global block addresses, ``array('q')`` — the region
    ``offset`` already added), ``writes`` (``array('b')``) and ``routes``
    (the shard index each address hashes to, ``array('q')``). The cursor
    is the tenant's ``issued`` count: every request before it was
    admitted or shed.
    """

    __slots__ = ("spec", "addrs", "writes", "routes", "offset", "region_blocks", "stats")

    def __init__(
        self,
        spec: TenantSpec,
        addrs: array,
        writes: Sequence[bool],
        routes: array,
        offset: int,
        region_blocks: int,
    ):
        self.spec = spec
        self.addrs = addrs
        self.writes = array("b", writes)
        self.routes = routes
        self.offset = offset
        self.region_blocks = region_blocks
        self.stats = TenantStats(spec.name, spec.workload_label)

    @property
    def cursor(self) -> int:
        return self.stats.issued


class OramService:
    """The multi-tenant serving layer over a pool of ORAM shards.

    A shard directory too small for the distinct addresses its streams
    route to it is a ConfigurationError at construction, whatever the
    load: under ``shed``, a pool that fits only by dropping is refused."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        runner: Optional[SimulationRunner] = None,
        config: ServeConfig = ServeConfig(),
        observer=None,
    ):
        if not tenants:
            raise ConfigurationError("a serve scenario needs at least one tenant")
        self.runner = runner if runner is not None else SimulationRunner()
        self.config = config
        sizing_bench = next(
            (t.benchmark for t in tenants if t.benchmark is not None),
            _SIZING_FALLBACK,
        )
        probe_spec, self.scheme_label = self.runner.sized_spec(
            config.scheme, sizing_bench
        )
        self.block_bytes = probe_spec.block_bytes
        lines_per_block = line_block_ratio(self.runner.proc.line_bytes, self.block_bytes)
        # One tier for the whole service: the engines' kernels and the
        # control plane's (ServeKernel / serve_fold / route_column on the
        # fast tier, the interpreted _route_column / _admit_rows /
        # OramShard.execute / _fold_rows on the reference one).
        mode, self._core = resolve_tier()
        # Materialise every tenant stream up front (trace-cache backed),
        # laying tenant regions back to back in the service address space.
        self._tenants: List[_TenantState] = []
        offset = 0
        for spec in tenants:
            addrs, writes = tenant_requests(spec, self.runner, lines_per_block)
            region = tenant_region_blocks(spec, self.block_bytes, addrs)
            column = array("q", [offset + addr for addr in addrs] if offset else addrs)
            self._tenants.append(
                _TenantState(
                    spec, column, writes,
                    _routes(column, config.shards, self._core), offset, region,
                )
            )
            offset += region
        total_blocks = next_pow2(max(offset, 2))
        if config.shard_blocks is not None:
            capacity = next_pow2(config.shard_blocks)
        elif config.shards == 1:
            capacity = total_blocks
        else:
            capacity = next_pow2(max(2 * total_blocks // config.shards, 64))
        # Requests not yet admitted or shed, and the streams' total.
        self._unserved = self._requests = sum(len(t.addrs) for t in self._tenants)
        if config.shards > 1 and self._requests > capacity:
            routed: Dict[int, int] = {}
            for state in self._tenants:
                routed.update(zip(state.addrs, state.routes))
            for index, count in sorted(Counter(routed.values()).items()):
                if count > capacity:
                    raise ConfigurationError(
                        f"shard {index} directory overflow: {count} distinct "
                        f"addresses route to it, {capacity} blocks fit; "
                        f"raise shard_blocks"
                    )
        # The accounting log: each shard's log columns hold the most rows
        # it can log between folds (the fold runs once the log holds
        # _fold_length rows, and an epoch adds at most queue_capacity rows
        # to a shard); ``_ends`` is each logged epoch's fill of each shard's
        # log, epoch-major; ``_logged`` is the rows logged; ``_in_flight``
        # is set from an epoch's admission to its account, while its rows
        # have no latencies yet and the log cannot be folded.
        self._fold_length = LOG_FOLD_LENGTH
        log_rows = min(self._fold_length + config.queue_capacity, self._requests)
        self._ends: List[int] = []
        self._logged = 0
        self._in_flight = False
        # The shard directory, one column for the pool (None: one shard,
        # the identity map).
        self._directory = (
            None if config.shards == 1 else array("i", [-1]) * offset
        )
        # The fast tier's kernel over the streams, logs and engines: built
        # when a run starts, so it holds the engines and the clock of that
        # moment.
        self._kernel = None
        self.shards: List[OramShard] = []
        for index in range(config.shards):
            spec, _label = self.runner.sized_spec(
                config.scheme, sizing_bench, num_blocks=capacity
            )
            frontend = spec.build(
                rng=DeterministicRng((self.runner.seed + index) ^ 0xA5A5),
                observer=observer,
            )
            engine = ReplayEngine.for_mode(
                frontend, self.runner.timing_for(frontend), mode,
                proc=self.runner.proc,
            )
            self.shards.append(
                OramShard(
                    index,
                    frontend,
                    engine,
                    capacity=capacity,
                    directory=self._directory,
                    max_batch=config.max_batch,
                    log_rows=log_rows,
                    record_accesses=config.record_accesses,
                )
            )
        self.epochs = 0
        self._wall_elapsed = 0.0
        # What the control plane's kernels read, bound once.
        self._logs = [
            (s.log.tenants, s.log.addrs, s.log.writes, s.log.latencies, s.log.walls)
            for s in self.shards
        ]
        self._histograms = [h for t in self._tenants for h in t.stats.histograms]

    # -- setup helpers ---------------------------------------------------------

    def preload(self, tenant_index: int, addr: int, data: bytes) -> None:
        """Write a block before serving starts, outside all accounting.

        ``data`` shorter than a block is zero-padded; longer is a
        :class:`ConfigurationError`. The touched shard's engine is
        re-created afterwards so its baseline counters (and cycle fold)
        exclude the preload traffic.
        """
        if self.epochs or any(t.cursor for t in self._tenants):
            raise ReproError("preload must happen before serving starts")
        if not 0 <= tenant_index < len(self._tenants):
            raise ConfigurationError(
                f"preload: tenant {tenant_index} is outside "
                f"[0, {len(self._tenants)})"
            )
        tenant = self._tenants[tenant_index]
        if not 0 <= addr < tenant.region_blocks:
            raise ConfigurationError(
                f"preload: block {addr} is outside tenant {tenant_index}'s "
                f"region [0, {tenant.region_blocks})"
            )
        if len(data) > self.block_bytes:
            raise ConfigurationError(
                f"preload: {len(data)} bytes do not fit one "
                f"{self.block_bytes}-byte block"
            )
        global_addr = tenant.offset + addr
        shard = self.shards[_route_column((global_addr,), self.config.shards)[0]]
        payload = bytes(data).ljust(self.block_bytes, b"\0")
        shard.frontend.access(shard.map_addr(global_addr), Op.WRITE, payload)
        shard.engine = ReplayEngine.for_mode(
            shard.frontend, shard.engine.timing, shard.engine.mode,
            proc=self.runner.proc,
        )

    # -- the three deterministic steps -----------------------------------------

    def _serve_kernel(self):
        """A ``ServeKernel`` of the compiled core over the streams, the
        logs, the shard directory and the engines as they are now, with
        ``time.perf_counter`` as its clock."""
        return self._core.ServeKernel(
            [(t.addrs, t.writes, t.routes, t.stats.ledger) for t in self._tenants],
            [log + (s.stats.ledger,) for log, s in zip(self._logs, self.shards)],
            [
                (engine, engine.frontend.access, engine.timing.latency_table,
                 engine.timing.miss_latency, engine.payload)
                for engine in (s.engine for s in self.shards)
            ],
            self._ends, self._directory, self.config.queue_capacity,
            self.config.policy == "shed", self.config.max_batch,
            time.perf_counter, Op.READ, Op.WRITE,
        )

    def _admit(self, offers: Sequence[int]) -> List[range]:
        """Bounded FIFO admission on its own, on either tier:
        :meth:`_admit_rows`, which moves the cursors and the shed/defer
        counters as ``ServeKernel.epoch`` does.

        ``offers[i]`` is how many requests tenant *i* offers, from its
        cursor on; tenants are taken in index order, each one's offers in
        stream order. Returns each shard's epoch queue: the rows of its
        log that admission filled.
        """
        ends, count = self._ends, len(self.shards)
        starts = ends[-count:] or [0] * count
        self._unserved -= self._admit_rows(offers)
        self._in_flight = True
        return list(map(range, starts, ends[-count:]))

    def _admit_rows(self, offers: Sequence[int]) -> int:
        """Admission row by row, into the same log columns, directory and
        counters ``ServeKernel.epoch`` fills; returns how far the cursors
        moved."""
        shards = self.shards
        ends = self._ends
        fills = ends[-len(shards):] or [0] * len(shards)
        starts = list(fills)
        capacity = self.config.queue_capacity
        shed = self.config.policy == "shed"
        logs = [shard.log for shard in shards]
        # Unchecked first touches: stream addresses were checked to fit.
        directory = self._directory
        consumed = 0
        for tenant_index, (state, offered) in enumerate(zip(self._tenants, offers)):
            addrs, writes, routes = state.addrs, state.writes, state.routes
            stats = state.stats
            start = stats.issued
            stop = start + offered
            for cursor in range(start, stop):
                shard_index = routes[cursor]
                fill = fills[shard_index]
                if fill - starts[shard_index] >= capacity:
                    shard_stats = shards[shard_index].stats
                    if shed:
                        stats.shed += 1
                        shard_stats.shed += 1
                        continue
                    stats.deferred += 1  # retry next epoch
                    shard_stats.deferred += 1
                    break
                log = logs[shard_index]
                log.tenants[fill] = tenant_index
                address = addrs[cursor]
                if directory is not None:
                    local = directory[address]
                    if local < 0:
                        shard_stats = shards[shard_index].stats
                        local = directory[address] = shard_stats.mapped
                        shard_stats.mapped = local + 1
                    address = local
                log.addrs[fill] = address
                log.writes[fill] = writes[cursor]
                fills[shard_index] = fill + 1
            else:
                cursor = stop
            stats.issued += cursor - start
            consumed += cursor - start
        for shard, start, fill in zip(shards, starts, fills):
            stats, depth = shard.stats, fill - start
            stats.depth_samples += 1
            stats.depth_total += depth
            if depth > stats.depth_max:
                stats.depth_max = depth
        ends += fills
        return consumed

    def _account(self, admitted: int) -> None:
        """Count the epoch's executed rows into the log; fold past
        :data:`LOG_FOLD_LENGTH` rows."""
        self._in_flight = False
        self._logged += admitted
        if self._logged >= self._fold_length:
            self._fold_log()

    def _fold_log(self) -> None:
        """Fold the log into the shard records and the per-tenant
        histograms, then empty it: one ``serve_fold`` call on the fast
        tier, whose results each record takes in with one call;
        :meth:`_fold_rows` on the reference tier. On the fast tier a fold
        that raises (a value that is not a float, a row that is not
        finite) changes no record and keeps the log. A read from
        inside an epoch (a callback of a shard's batch) folds nothing and
        sees the records as of the last fold."""
        if self._in_flight or not self._ends:
            return
        if self._core is None:
            self._fold_rows()
        else:
            packed, busy, summaries = self._core.serve_fold(
                self._logs, self._ends, self.config.max_batch,
                [shard.stats.busy_cycles for shard in self.shards],
                [hist.total for hist in self._histograms],
            )
            for shard, rows, cycles in zip(self.shards, packed, busy):
                shard.stats.record_packed(rows, cycles)
            for hist, summary in zip(self._histograms, summaries):
                hist.merge(*summary)
        self._ends.clear()
        for shard in self.shards:
            shard.log.latencies.clear()
            shard.log.walls.clear()
        self._logged = 0

    def _fold_rows(self) -> None:
        """The reference tier's fold, from the log's columns.

        Epoch queues are taken in accounting order — epoch by epoch,
        shard by shard — so each shard's rows and each tenant's rows keep
        their order: every record ends up exactly as if each batch had
        been recorded when it ran.
        """
        count, step = len(self.shards), self.config.max_batch
        logs = [shard.log for shard in self.shards]
        for shard, log, fill in zip(self.shards, logs, self._ends[-count:]):
            shard.stats.record_rows(
                log.tenants[:fill], log.addrs[:fill], log.writes[:fill],
                log.latencies,
            )
        tenants: List[int] = []
        service: List[float] = []
        total: List[float] = []  # wait + latency: a queue's running sum
        wall: List[float] = []
        prev = [0] * count
        batch = [0] * count  # each log's first wall not yet read
        for epoch in range(0, len(self._ends), count):
            for index, log in enumerate(logs):
                start, stop = prev[index], self._ends[epoch + index]
                latencies = log.latencies[start:stop]
                tenants += log.tenants[start:stop]
                service += latencies
                total += accumulate(latencies)
                wall += [
                    log.walls[batch[index] + row // step]
                    for row in range(stop - start)
                ]
                batch[index] += -(-(stop - start) // step)
                prev[index] = stop
        rows: List[List[int]] = [[] for _ in self._tenants]
        for row, tenant_index in enumerate(tenants):
            rows[tenant_index].append(row)
        for state, own in zip(self._tenants, rows):
            stats = state.stats
            stats.service_cycles.record_many([service[row] for row in own])
            stats.latency_cycles.record_many([total[row] for row in own])
            stats.wall_us.record_many([wall[row] for row in own])

    # -- the epoch loop --------------------------------------------------------

    def _check_progress(self, admitted: int) -> None:
        if admitted == 0 and self._unserved:
            raise ReproError(
                "serve made no progress in an epoch; "
                "queue_capacity/policy starve every tenant"
            )
        if self.epochs > 2 * self._requests + 16:
            raise ReproError("serve exceeded its epoch budget without draining")

    def _run_epoch(self, burst: int) -> int:
        """One epoch's admission and execution as separate steps: stamp,
        :meth:`_admit`, :meth:`OramShard.execute` per shard. Returns the
        rows admitted."""
        stamp = time.perf_counter()  # the epoch's admission stamp
        # (A conditional, not min(): this runs per tenant per epoch.)
        queues = self._admit([
            left if (left := len(t.addrs) - t.stats.ledger[_ISSUED]) < burst
            else burst
            for t in self._tenants
        ])
        for shard, rows in zip(self.shards, queues):
            shard.execute(rows, stamp)
        return sum(map(len, queues))

    def _kernel_epoch(self, burst: int) -> int:
        """One epoch's admission and execution as one ``ServeKernel.epoch``
        call; returns the rows admitted. An exception leaves the service
        where :meth:`_run_epoch` leaves it: in flight once the epoch's
        admission is done, with every cursor where admission left it."""
        kernel, logged = self._kernel, len(self._ends)
        self._in_flight = True
        try:
            return kernel.epoch(burst)
        except BaseException:
            self._in_flight = len(self._ends) > logged
            raise
        finally:
            self._unserved = kernel.unserved

    def _epochs(self) -> Iterator[None]:
        """The epoch loop: admit, execute each shard, account, check
        progress; yields after every epoch until every stream drains.
        The kernels count in place, so every shard's counters are current
        at each yield. On the fast tier the first two steps are one
        ``ServeKernel.epoch`` call, over a kernel built here — unless an
        engine's ``run_batch`` is wrapped on the instance (a tracer, a
        spy): then the epoch is :meth:`_run_epoch`, as on the reference
        tier."""
        started = time.perf_counter()
        burst = self.config.burst
        run = self._run_epoch
        if self._core is not None and not any(
            "run_batch" in vars(s.engine) for s in self.shards
        ):
            self._kernel = self._serve_kernel()
            run = self._kernel_epoch
        while self._unserved:
            admitted = run(burst)
            self._account(admitted)
            self.epochs += 1
            self._check_progress(admitted)
            yield
        self._fold_log()
        self._wall_elapsed += time.perf_counter() - started

    async def serve(self) -> "OramService":
        """Drain every tenant stream, yielding to the event loop once per
        epoch: the loop of :meth:`run`, for an application to await. A
        task that reads a shard's counters at a yield sees them current."""
        import asyncio

        for _ in self._epochs():
            await asyncio.sleep(0)
        return self

    def run(self, mode: str = "serial") -> "OramService":
        """Drain every tenant stream; ``"async"`` runs :meth:`serve` on a
        fresh event loop instead, with the same simulated outcome."""
        if mode == "async":
            import asyncio

            return asyncio.run(self.serve())
        if mode != "serial":
            raise ConfigurationError(
                f"unknown serve mode {mode!r}; choose from ('serial', 'async')"
            )
        for _ in self._epochs():
            pass
        return self

    # -- reporting -------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """JSON-safe image of the whole run (the ``serve`` CLI artifact)."""
        self._fold_log()
        total_cycles = 0.0
        for shard in self.shards:
            total_cycles += shard.stats.busy_cycles
        return {
            "kind": "serve",
            "scheme": self.scheme_label,
            "seed": self.runner.seed,
            "config": self.config.to_dict(),
            "epochs": self.epochs,
            "wall_seconds": self._wall_elapsed,
            "tenants": [t.stats.to_dict() for t in self._tenants],
            "shards": [s.stats.to_dict() for s in self.shards],
            "totals": {
                "requests": sum(t.stats.completed for t in self._tenants),
                "issued": sum(t.stats.issued for t in self._tenants),
                "shed": sum(t.stats.shed for t in self._tenants),
                "deferred": sum(t.stats.deferred for t in self._tenants),
                "cycles": total_cycles,
            },
        }

    @property
    def tenant_stats(self) -> List[TenantStats]:
        self._fold_log()
        return [t.stats for t in self._tenants]

    @property
    def shard_stats(self) -> List[ShardStats]:
        self._fold_log()
        return [s.stats for s in self.shards]


def serve_replay_equivalent(
    trace: MissTrace,
    scheme: str,
    runner: SimulationRunner,
    *,
    burst: int = 8,
    max_batch: int = 32,
    queue_capacity: int = 64,
) -> SimResult:
    """Serve one benchmark trace 1-tenant/1-shard and return its SimResult.

    The shard's engine is seeded with ``base_cycles`` *before* serving —
    the same fold order as :func:`~repro.sim.system.replay_trace` — and
    the service address space maps identically onto the single shard, so
    the returned result is bit-identical to offline replay of the same
    trace (cycles, counters, and the post-run tree digest). Backpressure
    is fixed to ``defer`` because shedding would drop requests.
    """
    config = ServeConfig(
        scheme=scheme,
        shards=1,
        burst=burst,
        max_batch=max_batch,
        queue_capacity=queue_capacity,
        policy="defer",
    )
    service = OramService(
        [TenantSpec(name=trace.name, benchmark=trace.name)],
        runner=runner,
        config=config,
    )
    shard = service.shards[0]
    shard.engine.cycles = base_cycles(trace, runner.proc)
    service.run()
    return shard.engine.result(trace, scheme=service.scheme_label)
