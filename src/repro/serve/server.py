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
three shared, deterministic steps, each one pass over request *columns*
— no object is built per request. A tenant's stream is three columns
made once at construction (global block address, write flag, shard
route); a shard's **epoch queue** (:class:`_EpochQueue`) is parallel
lists — ``tenants``, ``addrs`` (shard-local) and ``writes`` — in
admission order; execution adds ``latencies`` and ``walls``. Epochs are
small (~16 requests), so per-request work that can wait runs in step
3's fold.

1. **Admission** (:meth:`OramService._admit`) — FIFO in tenant order:
   each tenant offers up to ``burst`` requests from its cursor, routed
   to shards by an address hash and appended to the routed shard's
   epoch queue. Per-shard epoch queues are bounded by
   ``queue_capacity``; an arrival at a full queue is either **shed**
   (dropped permanently, counted, cursor advances) or **deferred** (the
   tenant stops issuing for this epoch and retries the same request
   next epoch) per the configured backpressure policy.
2. **Execution** (:meth:`OramShard.execute`) — each shard drains its
   epoch queue in admission (ticket) order, handing ``max_batch``-sized
   slices of the queue's own columns to ``ReplayEngine.run_batch`` and
   appending what comes back to the queue's output columns.
   Shards are mutually independent, so they may run in any interleaving.
3. **Accounting** (:meth:`OramService._account`) — after the epoch
   barrier, the executed queues are appended to a log in (shard index)
   order. Simulated queue wait is the prefix sum of service latencies
   ahead of a request in its shard's epoch queue, so the running sum of
   a queue's latencies *is* its ``wait + latency`` column. The log is
   folded past :data:`LOG_FOLD_LENGTH` rows, at the end of ``run`` and
   before any read into each shard's digest and busy cycles and each
   tenant's histograms
   (:meth:`~repro.serve.stats.LatencyHistogram.record_many`), over
   thousands of rows at a time — memory stays bounded and a reader never
   sees a stale record.

Wall time is observational and stamped twice per batch, not per
request: once per epoch when admission starts and once per ``run_batch``
when it returns, so a request's ``wall_us`` runs from the admission
stamp of the epoch that admitted it to the completion of its batch.

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
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError, ReproError
from repro.proc.hierarchy import MissTrace
from repro.sim.engine import ReplayEngine
from repro.sim.metrics import SimResult
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


def _route_column(global_addrs: Sequence[int], shards: int) -> List[int]:
    """The shard of every global block address, the one definition of a
    route: the CRC-32 of its 8 little-endian bytes (two's complement),
    mod ``shards``."""
    if shards == 1:
        return [0] * len(global_addrs)
    crc32 = zlib.crc32
    return [
        crc32(addr.to_bytes(8, "little", signed=True)) % shards
        for addr in global_addrs
    ]


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


class _EpochQueue:
    """One shard's admitted requests of an epoch, as parallel columns.

    Row *i* is the *i*-th request admitted: its tenant index, shard-local
    address and write flag. Execution adds the two output columns:
    ``latencies`` (simulated service cycles) and ``walls``
    (microseconds from ``stamp``, the wall clock when the epoch began
    admitting, to the completion of the row's batch).
    """

    __slots__ = ("tenants", "addrs", "writes", "latencies", "walls", "stamp")

    def __init__(self, stamp: float) -> None:
        self.tenants: List[int] = []
        self.addrs: List[int] = []
        self.writes: List[bool] = []
        self.latencies: List[float] = []
        self.walls: List[float] = []
        self.stamp = stamp

    def __len__(self) -> int:
        return len(self.addrs)


class OramShard:
    """One ORAM instance in the pool: frontend + engine + address directory.

    With a single shard the service address space maps onto the ORAM
    identically (no renumbering — the lockstep guarantee depends on it).
    With multiple shards, each shard assigns dense local addresses to
    the global addresses hashed onto it in first-touch order, which is
    deterministic because admission is.
    """

    def __init__(
        self,
        index: int,
        frontend,
        engine: ReplayEngine,
        capacity: int,
        identity: bool,
        max_batch: int,
        record_accesses: bool = False,
    ):
        self.index = index
        self.frontend = frontend
        self.engine = engine
        self.capacity = capacity
        self.identity = identity
        self.max_batch = max_batch
        self.stats = ShardStats(index)
        self.stats.record_accesses = record_accesses
        self._directory: Dict[int, int] = {}

    def map_addr(self, global_addr: int) -> int:
        """Global service address -> this shard's local block address."""
        if self.identity:
            return global_addr
        local = self._directory.get(global_addr)
        if local is None:
            local = len(self._directory)
            if local >= self.capacity:
                raise ReproError(
                    f"shard {self.index} directory overflow: "
                    f"{self.capacity} blocks mapped; raise shard_blocks"
                )
            self._directory[global_addr] = local
        return local

    def execute(self, queue: _EpochQueue) -> None:
        """Drain one epoch queue in ticket order, one ``run_batch`` per
        ``max_batch`` rows."""
        stats = self.stats
        for start in range(0, len(queue.addrs), self.max_batch):
            rows = slice(start, start + self.max_batch)
            addrs, writes = queue.addrs[rows], queue.writes[rows]
            # Looked up per call: tracing wraps the engine's attribute.
            latencies = self.engine.run_batch(addrs, writes)
            end = time.perf_counter()
            stats.batches += 1
            queue.latencies += latencies
            queue.walls += [(end - queue.stamp) * 1e6] * len(addrs)
        if queue.addrs:
            stats.epochs_busy += 1


class _TenantState:
    """Mutable serving state of one tenant: stream, cursor, stats, region.

    The stream is three columns indexed by stream position: ``addrs``
    (global block addresses — the region ``offset`` already added),
    ``writes`` and ``routes`` (the shard index each address hashes to).
    """

    __slots__ = (
        "spec", "addrs", "writes", "routes", "cursor", "offset",
        "region_blocks", "stats",
    )

    def __init__(
        self,
        spec: TenantSpec,
        addrs: List[int],
        writes: List[bool],
        routes: List[int],
        offset: int,
        region_blocks: int,
    ):
        self.spec = spec
        self.addrs = addrs
        self.writes = writes
        self.routes = routes
        self.cursor = 0
        self.offset = offset
        self.region_blocks = region_blocks
        self.stats = TenantStats(spec.name, spec.workload_label)


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
        lines_per_block = max(self.block_bytes // self.runner.proc.line_bytes, 1)
        # Materialise every tenant stream up front (trace-cache backed),
        # laying tenant regions back to back in the service address space.
        self._tenants: List[_TenantState] = []
        offset = 0
        for spec in tenants:
            addrs, writes = tenant_requests(spec, self.runner, lines_per_block)
            region = tenant_region_blocks(spec, self.block_bytes, addrs)
            if offset:
                addrs = [offset + addr for addr in addrs]
            self._tenants.append(
                _TenantState(
                    spec, addrs, writes, _route_column(addrs, config.shards),
                    offset, region,
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
                frontend, self.runner.timing_for(frontend), proc=self.runner.proc
            )
            self.shards.append(
                OramShard(
                    index,
                    frontend,
                    engine,
                    capacity=capacity,
                    identity=(config.shards == 1),
                    max_batch=config.max_batch,
                    record_accesses=config.record_accesses,
                )
            )
        self.epochs = 0
        self._wall_elapsed = 0.0
        # Accounting log: executed queues not yet folded, and their rows.
        self._log: List[_EpochQueue] = []
        self._logged = 0

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
        from repro.backend.ops import Op

        payload = bytes(data).ljust(self.block_bytes, b"\0")
        shard.frontend.access(shard.map_addr(global_addr), Op.WRITE, payload)
        shard.engine = ReplayEngine.for_mode(
            shard.frontend, shard.engine.timing, proc=self.runner.proc
        )

    # -- the three deterministic steps -----------------------------------------

    def _admit(self, offers: Sequence[int]) -> List[_EpochQueue]:
        """Bounded FIFO admission — the single mutation site for cursors
        and the shed/defer counters.

        ``offers[i]`` is how many requests tenant *i* offers, from its
        cursor on; tenants are taken in index order, each one's offers in
        stream order.
        """
        shards = self.shards
        stamp = time.perf_counter()
        queues = [_EpochQueue(stamp) for _ in shards]
        capacity = self.config.queue_capacity
        shed = self.config.policy == "shed"
        # Unchecked ``setdefault``: stream addresses were checked to fit.
        directories = None if shards[0].identity else [s._directory for s in shards]
        for tenant_index, (state, offered) in enumerate(zip(self._tenants, offers)):
            addrs, writes, routes = state.addrs, state.writes, state.routes
            stats = state.stats
            start = state.cursor
            stop = start + offered
            for cursor in range(start, stop):
                shard_index = routes[cursor]
                queue = queues[shard_index]
                if len(queue.addrs) >= capacity:
                    shard_stats = shards[shard_index].stats
                    if shed:
                        stats.shed += 1
                        shard_stats.shed += 1
                        continue
                    stats.deferred += 1  # retry next epoch
                    shard_stats.deferred += 1
                    break
                queue.tenants.append(tenant_index)
                address = addrs[cursor]
                if directories is not None:
                    directory = directories[shard_index]
                    address = directory.setdefault(address, len(directory))
                queue.addrs.append(address)
                queue.writes.append(writes[cursor])
            else:
                cursor = stop
            state.cursor = cursor
            stats.issued += cursor - start
            self._unserved -= cursor - start
        for shard, queue in zip(shards, queues):
            stats, depth = shard.stats, len(queue.addrs)
            stats.depth_samples += 1
            stats.depth_total += depth
            if depth > stats.depth_max:
                stats.depth_max = depth
        return queues

    def _account(self, queues: Sequence[_EpochQueue]) -> None:
        """Log the executed queues in shard order; fold past
        :data:`LOG_FOLD_LENGTH` rows."""
        self._log += queues
        self._logged += sum(map(len, queues))
        if self._logged >= LOG_FOLD_LENGTH:
            self._fold_log()

    def _fold_log(self) -> None:
        """Fold the logged queues into the shard records and the
        per-tenant histograms.

        Queues are in execution-accounting order, so each shard's queues
        and each tenant's rows keep their order — every record ends up
        exactly as if each batch had been recorded when it ran.
        """
        queues = self._log
        count = len(self.shards)
        for index, shard in enumerate(self.shards):
            own = queues[index::count]  # an epoch logs one queue per shard
            columns = ("tenants", "addrs", "writes", "latencies")
            shard.stats.record_rows(*[
                list(chain.from_iterable(map(attrgetter(c), own))) for c in columns
            ])
        tenants = list(chain.from_iterable(map(attrgetter("tenants"), queues)))
        latencies = list(map(attrgetter("latencies"), queues))
        service = list(chain.from_iterable(latencies))
        # Wait + latency: the running sum of each queue's latencies.
        total = list(chain.from_iterable(map(accumulate, latencies)))
        wall = list(chain.from_iterable(map(attrgetter("walls"), queues)))
        rows: List[List[int]] = [[] for _ in self._tenants]
        for row, tenant_index in enumerate(tenants):
            rows[tenant_index].append(row)
        for state, own in zip(self._tenants, rows):
            stats = state.stats
            stats.service_cycles.record_many([service[row] for row in own])
            stats.latency_cycles.record_many([total[row] for row in own])
            stats.wall_us.record_many([wall[row] for row in own])
        queues.clear()
        self._logged = 0

    # -- the epoch loop --------------------------------------------------------

    def _check_progress(self, admitted: int) -> None:
        if admitted == 0 and self._unserved:
            raise ReproError(
                "serve made no progress in an epoch; "
                "queue_capacity/policy starve every tenant"
            )
        if self.epochs > 2 * self._requests + 16:
            raise ReproError("serve exceeded its epoch budget without draining")

    def _epochs(self) -> Iterator[None]:
        """The epoch loop: admit, execute each shard, account, check
        progress; yields after every epoch until every stream drains.
        The kernels count in place, so every shard's counters are current
        at each yield."""
        started = time.perf_counter()
        burst = self.config.burst
        while self._unserved:
            # (A conditional, not min(): this runs per tenant per epoch.)
            queues = self._admit([
                left if (left := len(t.addrs) - t.cursor) < burst else burst
                for t in self._tenants
            ])
            admitted = 0
            for shard, queue in zip(self.shards, queues):
                shard.execute(queue)
                admitted += len(queue.addrs)
            self._account(queues)
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
