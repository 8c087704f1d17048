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
lists — ``tenants``, ``addrs`` (shard-local), ``writes``, ``deadlines``
(with SLOs) — in admission order, the shape of a parked backlog too;
execution adds ``latencies`` and ``walls``. Epochs are small (~16
requests), so per-request work that can wait runs in step 3's fold.

1. **Admission** (:meth:`OramService._admit`) — each tenant offers up
   to ``burst`` requests; offers are ordered earliest-deadline-first
   (ties and deadline-free requests fall back to (tenant index, stream
   position) — with no deadlines configured the EDF order *is* the
   historical FIFO order, bit for bit) and routed to shards by an
   address hash. The order is a sequence of (tenant, run length) and
   each run walks its tenant's columns from the cursor, appending to
   the routed shard's epoch queue. Per-shard epoch queues are bounded by
   ``queue_capacity``; an arrival at a full queue is either **shed**
   (dropped permanently, counted, cursor advances), **deferred** (the
   tenant stops issuing for this epoch and retries the same request
   next epoch), or **throttled** (deferred plus a cooldown of
   ``throttle_epochs`` epochs) per the configured backpressure policy.
   Per-tenant token-bucket quotas and the graceful-degradation ladder
   (see :mod:`repro.resilience`) are enforced here too — admission is
   the single mutation site for every overload decision.
2. **Execution** (:meth:`OramShard.execute`) — each shard drains its
   epoch queue in admission (ticket) order, handing ``max_batch``-sized
   slices of the queue's own columns to ``ReplayEngine.run_batch`` and
   appending what comes back to the queue's output columns.
   Shards are mutually independent, so they may run in any interleaving.
3. **Accounting** (:meth:`OramService._account`) — after the epoch
   barrier, in (shard index, queue position) order. Simulated queue wait
   is the prefix sum of service latencies ahead of a request in its
   shard's epoch queue, so the running sum of a queue's latencies *is*
   its ``wait + latency`` column. Deadlines are judged per request; the
   executed queues go to a log, folded past :data:`LOG_FOLD_LENGTH` rows,
   at the end of ``run`` and before any read into each shard's digest
   and busy cycles and each tenant's histograms
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

import math
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.faults import active as faults_active
from repro.resilience import DegradationController, TokenBucket
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

#: Backpressure policies for a full shard queue. ``throttle`` defers
#: *and* puts the tenant on a ``throttle_epochs`` cooldown, so a tenant
#: that keeps hitting full queues backs off instead of re-offering every
#: epoch.
POLICIES = ("defer", "shed", "throttle")

#: Admission orderings: ``edf`` (earliest-deadline-first; identical to
#: ``fifo`` when no tenant sets a deadline) and ``fifo`` (the historical
#: fixed tenant-index order, kept as the lockstep reference).
ADMISSION_ORDERS = ("edf", "fifo")

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
    #: Admission ordering — see :data:`ADMISSION_ORDERS`.
    admission: str = "edf"
    #: Cooldown length (epochs) imposed by the ``throttle`` policy.
    throttle_epochs: int = 1
    #: Consecutive overloaded epochs before the degradation ladder
    #: escalates one level. None (the default) disables degradation.
    degrade_after: Optional[int] = None
    #: Consecutive clean epochs before de-escalating (default: mirror
    #: ``degrade_after``).
    recover_after: Optional[int] = None

    def __post_init__(self):
        for field in ("shards", "burst", "max_batch", "queue_capacity",
                      "throttle_epochs"):
            if getattr(self, field) < 1:
                raise ConfigurationError(f"serve config: {field} must be >= 1")
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"serve config: unknown policy {self.policy!r}; "
                f"choose from {POLICIES}"
            )
        if self.admission not in ADMISSION_ORDERS:
            raise ConfigurationError(
                f"serve config: unknown admission order {self.admission!r}; "
                f"choose from {ADMISSION_ORDERS}"
            )
        if self.shard_blocks is not None and self.shard_blocks < 2:
            raise ConfigurationError("serve config: shard_blocks must be >= 2")
        for field in ("degrade_after", "recover_after"):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ConfigurationError(f"serve config: {field} must be >= 1")

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "shards": self.shards,
            "burst": self.burst,
            "max_batch": self.max_batch,
            "queue_capacity": self.queue_capacity,
            "policy": self.policy,
            "shard_blocks": self.shard_blocks,
            "admission": self.admission,
            "throttle_epochs": self.throttle_epochs,
            "degrade_after": self.degrade_after,
            "recover_after": self.recover_after,
        }


class _EpochQueue:
    """One shard's admitted requests of an epoch, as parallel columns.

    Row *i* is the *i*-th request admitted: its tenant index, shard-local
    address, write flag and absolute deadline on the service's virtual
    clock (None when its tenant has no SLO; no column when no tenant has
    one). Execution adds the two
    output columns: ``latencies`` (simulated service cycles) and
    ``walls`` (microseconds from the row's admission stamp to the
    completion of its batch).

    ``stamp`` is the wall clock when the epoch that filled the queue
    began admitting. A backlog is filled over several epochs, so it
    keeps one stamp per row in ``stamps``; an ordinary queue's ``stamps``
    covers only the rows it took over from a drained backlog, at its
    front.
    """

    __slots__ = (
        "tenants", "addrs", "writes", "deadlines", "latencies", "walls",
        "stamps", "stamp",
    )

    def __init__(self) -> None:
        self.tenants: List[int] = []
        self.addrs: List[int] = []
        self.writes: List[bool] = []
        self.deadlines: List[Optional[float]] = []
        self.latencies: List[float] = []
        self.walls: List[float] = []
        self.stamps: List[float] = []
        self.stamp = 0.0

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
        # Circuit breaker: while ``down_epochs > 0`` the shard executes
        # nothing; admitted requests park in ``backlog`` (in admission
        # order) and drain to the front of the first post-recovery epoch
        # queue. Both fields only change inside admission.
        self.down_epochs = 0
        self.backlog = _EpochQueue()

    def trip(self, epochs: int) -> None:
        """Open the circuit breaker for ``epochs`` epochs (this one included)."""
        self.down_epochs = max(self.down_epochs, max(int(epochs), 1))
        self.stats.breaker_trips += 1

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
            parked = 0
            if queue.stamps:  # rows parked in a backlog keep their own stamps
                walls = [(end - stamp) * 1e6 for stamp in queue.stamps[rows]]
                queue.walls += walls
                parked = len(walls)
            queue.walls += [(end - queue.stamp) * 1e6] * (len(addrs) - parked)
        if queue.addrs:
            stats.epochs_busy += 1


class _TenantState:
    """Mutable serving state of one tenant: stream, cursor, stats, region.

    The stream is three columns indexed by stream position: ``addrs``
    (global block addresses — the region ``offset`` already added),
    ``writes`` and ``routes`` (the shard index each address hashes to).

    SLO state: ``deadlines`` maps stream index -> absolute deadline for
    requests already offered but not yet resolved (bounded by ``burst``);
    ``last_deadline`` clamps assignments nondecreasing so EDF never
    reorders one tenant's own stream; ``cooldown`` counts throttle
    epochs still to sit out; ``bucket`` is the quota token bucket.
    """

    __slots__ = (
        "spec", "addrs", "writes", "routes", "cursor", "offset",
        "region_blocks", "stats", "deadlines", "last_deadline", "cooldown",
        "bucket",
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
        self.deadlines: Dict[int, float] = {}
        self.last_deadline = 0.0
        self.cooldown = 0
        self.bucket = TokenBucket(spec.quota) if spec.quota is not None else None

    @property
    def remaining(self) -> int:
        return len(self.addrs) - self.cursor


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
        # SLO control-plane state (all mutated only inside the three
        # deterministic steps).
        # The virtual clock is the cumulative sum of executed service
        # latencies across all shards — the service-wide simulated time
        # deadlines are judged against.
        self._vclock = 0.0
        self._has_deadlines = any(
            t.spec.deadline_cycles is not None for t in self._tenants
        )
        # Accounting log: executed queues not yet folded, and their rows.
        self._log: List[_EpochQueue] = []
        self._logged = 0
        # What admission refills or cools down each epoch, if anything can be.
        paced = config.policy == "throttle" or any(t.bucket for t in self._tenants)
        self._paced = self._tenants if paced else []
        self._min_priority = min(t.spec.priority for t in self._tenants)
        self.degradation = DegradationController(
            config.degrade_after, config.recover_after
        )
        self._epoch_starved = False
        self._starved_epochs = 0

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

    def _update_breakers(self) -> None:
        """Consult the fault plan once per shard, in index order.

        This runs at the top of admission, so ``serve.shard`` injectors
        observe exactly one match per shard per epoch (``#2`` means
        "epoch 2"). A ``stall`` match trips the shard's breaker for
        ``epochs=N`` epochs; any other action gets the standard fault
        behaviour.
        """
        plan = faults_active()
        if plan is None:
            return
        for shard in self.shards:
            key = str(shard.index)
            spec = plan.match("serve.shard", key)
            if spec is None:
                continue
            if spec.action == "stall":
                shard.trip(int(spec.params.get("epochs", "1")))
            else:
                plan.perform(spec, "serve.shard", key)

    def _effective_policy(self, state: _TenantState) -> str:
        """The backpressure policy after graceful degradation is applied.

        Level 1 (``shed-low``) turns full-queue events of the *lowest*
        priority class into sheds; level 2 (``best-effort``) sheds for
        everyone. Degradation never drops already-admitted work — it
        only changes how new arrivals meet a full queue.
        """
        level = self.degradation.level
        if level >= 2:
            return "shed"
        if level == 1 and state.spec.priority <= self._min_priority:
            return "shed"
        return self.config.policy

    def _assign_deadlines(self, offers: Sequence[int]) -> None:
        """Stamp absolute deadlines on newly-offered requests.

        A request's deadline is the virtual clock at its *first* offer
        plus the tenant's ``deadline_cycles`` — a deferred request keeps
        its original deadline, so its slack shrinks and EDF pulls it
        forward. ``serve.deadline`` fault injectors are consulted here,
        once per tenant per epoch in tenant order (key = tenant index);
        a ``stall`` match tightens this epoch's *new* deadlines by
        ``cycles=N`` — pure bookkeeping pressure that never touches
        simulated cycles or access order, which is what keeps chaos runs
        lockstep with their goldens. Assignments are clamped
        nondecreasing per tenant so EDF preserves each tenant's stream
        order (an ORAM client's requests are dependent).
        """
        plan = faults_active()
        if plan is None and not self._has_deadlines:
            return
        for tenant_index, offered in enumerate(offers):
            state = self._tenants[tenant_index]
            tighten = 0.0
            if plan is not None:
                key = str(tenant_index)
                spec = plan.match("serve.deadline", key)
                if spec is not None:
                    if spec.action == "stall":
                        tighten = float(spec.params.get("cycles", "0") or 0)
                    else:
                        plan.perform(spec, "serve.deadline", key)
            if state.spec.deadline_cycles is None:
                continue
            for index in range(state.cursor, state.cursor + offered):
                if index in state.deadlines:
                    continue
                deadline = max(
                    self._vclock + state.spec.deadline_cycles - tighten,
                    state.last_deadline,
                )
                state.deadlines[index] = deadline
                state.last_deadline = deadline

    def _admission_runs(self, offers: Sequence[int]) -> Iterable[Tuple[int, int]]:
        """This epoch's offers in admission order, as (tenant, run length).

        The order is earliest-deadline-first (see :data:`ADMISSION_ORDERS`)
        by ``(absolute deadline, tenant index, stream position)`` with
        deadline-free requests at +inf. Admission never uses an offer's
        position — per-tenant deadlines are nondecreasing in stream
        position, so EDF never reorders a single tenant's own requests
        and by the time position p comes up the cursor has advanced
        exactly p slots (or the tenant is blocked) — so consecutive
        offers of one tenant collapse into a run. With no deadlines
        configured (or ``fifo`` admission) the order is exactly the
        historical fixed-tenant-order FIFO — the bit-identity the
        lockstep suite pins — and needs no sort.
        """
        if not (self._has_deadlines and self.config.admission == "edf"):
            return enumerate(offers)
        inf = math.inf
        order = sorted(
            (state.deadlines.get(state.cursor + position, inf), tenant_index)
            for tenant_index, (state, offered) in enumerate(
                zip(self._tenants, offers)
            )
            for position in range(offered)
        )
        return [
            (tenant_index, sum(1 for _ in run))
            for tenant_index, run in groupby(map(itemgetter(1), order))
        ]

    def _admit(self, offers: Sequence[int]) -> List[_EpochQueue]:
        """Bounded, deadline-aware admission — the single mutation site
        for cursors, shed/defer/throttle counters, quota buckets,
        degradation level, and breaker state.

        ``offers[i]`` is how many requests tenant *i* offers, from its
        cursor on; they are processed in the order of
        :meth:`_admission_runs`.

        A shard with an open breaker executes nothing this epoch: its
        arrivals *park* in the shard backlog (cursor advances, the local
        address is assigned in admission order, so the directory — and
        therefore the access digest — is unchanged by the failover).
        Parked requests occupy queue capacity, so a long stall applies
        ordinary backpressure. The epoch the breaker closes, the backlog
        becomes the front of the epoch queue — execution order is
        exactly admission order, merely delayed.
        """
        stamp = time.perf_counter()
        self._update_breakers()
        self._assign_deadlines(offers)
        shards = self.shards
        queues: List[_EpochQueue] = []
        # Where a shard's arrivals go: its epoch queue, or its backlog
        # while its breaker is open. One of the two is always empty, so
        # the target's length is the occupancy capacity is judged on.
        targets: List[_EpochQueue] = []
        for shard in shards:
            if not shard.down_epochs and shard.backlog.addrs:
                queue, shard.backlog = shard.backlog, _EpochQueue()
            else:
                queue = _EpochQueue()
            queue.stamp = stamp
            queues.append(queue)
            targets.append(shard.backlog if shard.down_epochs else queue)
        capacity = self.config.queue_capacity
        has_deadlines = self._has_deadlines
        # Unchecked ``setdefault``: stream addresses were checked to fit.
        directories = None if shards[0].identity else [s._directory for s in shards]
        self._epoch_starved = False
        overloaded = False
        # Refill quota buckets and run down throttle cooldowns, in
        # tenant order; a cooling-down tenant offers nothing this epoch.
        blocked = [False] * len(self._tenants)
        for tenant_index, state in enumerate(self._paced):
            if state.bucket is not None:
                state.bucket.refill()
            if state.cooldown > 0:
                state.cooldown -= 1
                blocked[tenant_index] = True
                if state.remaining:
                    self._epoch_starved = True
        for tenant_index, run in self._admission_runs(offers):
            if blocked[tenant_index]:
                continue
            state = self._tenants[tenant_index]
            addrs, writes, routes = state.addrs, state.writes, state.routes
            stats, bucket, deadlines = state.stats, state.bucket, state.deadlines
            start = state.cursor
            stop = start + run
            for cursor in range(start, stop):
                shard_index = routes[cursor]
                if bucket is not None and not bucket.ready:
                    # Quota exhausted: a deterministic pause, not a drop.
                    stats.throttled += 1
                    shards[shard_index].stats.throttled += 1
                    blocked[tenant_index] = True
                    self._epoch_starved = True
                    break
                target = targets[shard_index]
                if len(target.addrs) >= capacity:
                    overloaded = True
                    shard_stats = shards[shard_index].stats
                    policy = self._effective_policy(state)
                    if policy == "shed":
                        deadlines.pop(cursor, None)
                        stats.shed += 1
                        shard_stats.shed += 1
                        continue
                    blocked[tenant_index] = True  # retry next epoch
                    if policy == "throttle":
                        stats.throttled += 1
                        shard_stats.throttled += 1
                        state.cooldown = self.config.throttle_epochs
                    else:
                        stats.deferred += 1
                        shard_stats.deferred += 1
                    break
                if bucket is not None:
                    bucket.take()
                target.tenants.append(tenant_index)
                address = addrs[cursor]
                if directories is not None:
                    directory = directories[shard_index]
                    address = directory.setdefault(address, len(directory))
                target.addrs.append(address)
                target.writes.append(writes[cursor])
                if has_deadlines:
                    target.deadlines.append(deadlines.pop(cursor, None))
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
            if shard.down_epochs:
                backlog = shard.backlog
                parked = len(backlog) - len(backlog.stamps)
                backlog.stamps += [stamp] * parked
                shard.stats.parked += parked
                shard.down_epochs -= 1
                shard.stats.stall_epochs += 1
        if self._epoch_starved:
            self._starved_epochs += 1
        self.degradation.observe(self.epochs, overloaded)
        return queues

    def _account(self, queues: Sequence[_EpochQueue]) -> None:
        """Post-barrier accounting in (shard index, queue position) order.

        Deadline judging: every shard starts the epoch at the service's
        virtual clock, so a request completes at ``vclock + queue wait +
        service latency``; the clock then advances by the epoch's total
        executed cycles. Misses and slack are bookkeeping over already
        simulated quantities — they never feed back into scheduling
        within the epoch.
        """
        epoch_start = self._vclock
        executed_cycles = 0.0
        for queue in queues:
            latencies = queue.latencies
            for latency in latencies:
                executed_cycles += latency
            self._logged += len(latencies)
            if not queue.deadlines:
                continue
            totals = list(accumulate(latencies))
            for row, deadline in enumerate(queue.deadlines):
                if deadline is not None:
                    stats = self._tenants[queue.tenants[row]].stats
                    wait = totals[row - 1] if row else 0.0
                    slack = deadline - (epoch_start + wait + latencies[row])
                    if slack < 0:
                        stats.missed += 1
                    stats.slack_cycles.record(max(slack, 0.0))
        self._vclock += executed_cycles
        self._log += queues
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

    def _max_epochs(self) -> int:
        # Breaker-open epochs legitimately make no execution progress, so
        # the budget grows with every stall the fault plan injects — and
        # likewise with every epoch a quota bucket or throttle cooldown
        # legitimately paused a tenant that still had work.
        stalls = sum(s.stats.stall_epochs for s in self.shards)
        return (
            2 * self._requests
            + 16
            + 2 * stalls
            + 2 * self._starved_epochs
        )

    def _check_progress(self, admitted: int) -> None:
        if (
            admitted == 0
            and self._unserved
            and not self._epoch_starved
            and not any(s.down_epochs or s.backlog for s in self.shards)
        ):
            raise ReproError(
                "serve made no progress in an epoch; "
                "queue_capacity/policy starve every tenant"
            )
        # The budget only grows past its floor, so the floor is checked first.
        if self.epochs > 2 * self._requests + 16 and self.epochs > self._max_epochs():
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
        """JSON-safe image of the whole run (the ``serve`` CLI artifact).

        The ``resilience`` block mirrors the sweep report's: a summary
        of every overload/recovery mechanism that fired. Like the sweep
        layer's, it is observability — comparisons between a chaos run
        and its golden strip it (and the deadline bookkeeping it
        summarizes) before asserting bit-identity of simulated numbers.
        """
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
                "throttled": sum(t.stats.throttled for t in self._tenants),
                "cycles": total_cycles,
            },
            "resilience": {
                "deadline_missed": sum(t.stats.missed for t in self._tenants),
                "throttled": sum(t.stats.throttled for t in self._tenants),
                "shed": sum(t.stats.shed for t in self._tenants),
                "deferred": sum(t.stats.deferred for t in self._tenants),
                "breaker_trips": sum(s.stats.breaker_trips for s in self.shards),
                "parked": sum(s.stats.parked for s in self.shards),
                "stall_epochs": sum(s.stats.stall_epochs for s in self.shards),
                "degradation": {
                    "level": self.degradation.level_name,
                    "transitions": list(self.degradation.transitions),
                },
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
