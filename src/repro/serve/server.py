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
three shared, deterministic steps:

1. **Admission** (:meth:`OramService._admit`) — each tenant offers up
   to ``burst`` requests; offers are ordered earliest-deadline-first
   (ties and deadline-free requests fall back to (tenant index, stream
   position) — with no deadlines configured the EDF order *is* the
   historical FIFO order, bit for bit) and routed to shards by an
   address hash. Per-shard epoch queues are bounded by
   ``queue_capacity``; an arrival at a full queue is either **shed**
   (dropped permanently, counted, cursor advances), **deferred** (the
   tenant stops issuing for this epoch and retries the same request
   next epoch), or **throttled** (deferred plus a cooldown of
   ``throttle_epochs`` epochs) per the configured backpressure policy.
   Per-tenant token-bucket quotas and the graceful-degradation ladder
   (see :mod:`repro.resilience`) are enforced here too — admission is
   the single mutation site for every overload decision.
2. **Execution** (:meth:`OramShard.execute`) — each shard drains its
   epoch queue in admission (ticket) order, coalesced into
   ``max_batch``-sized runs through ``ReplayEngine.run_batch``.
   Shards are mutually independent, so they may run in any interleaving.
3. **Accounting** (:meth:`OramService._account`) — after the epoch
   barrier, per-tenant counters/histograms are updated in (shard index,
   queue position) order. Simulated queue wait is the prefix sum of
   service latencies ahead of a request in its shard's epoch queue.

The serial driver (:meth:`OramService.run_serial`) and the asyncio
driver (:meth:`OramService.run_async` — real tenant client tasks, an
admission queue, shard worker tasks yielding between batches, an
epoch-end barrier) call exactly these three steps, so both produce
identical simulated results; only wall-clock observations differ.
"""

from __future__ import annotations

import asyncio
import math
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    Request,
    TenantSpec,
    tenant_region_blocks,
    tenant_requests,
)
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
#: stream (only ``block_bytes``/``onchip``/``plb`` sizing is taken from
#: it; ``num_blocks`` is always overridden with the pool capacity).
_SIZING_FALLBACK = "mcf"


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length() if n > 1 else 1


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


class _Admitted:
    """One admitted request in a shard's epoch queue.

    ``deadline`` is the request's absolute deadline on the service's
    virtual clock (None when its tenant has no SLO); it rides along so
    post-barrier accounting can judge misses without re-deriving
    admission history.
    """

    __slots__ = (
        "tenant", "local_addr", "is_write", "deadline", "wall_start", "wall_end"
    )

    def __init__(
        self,
        tenant: int,
        local_addr: int,
        is_write: bool,
        deadline: Optional[float] = None,
    ):
        self.tenant = tenant
        self.local_addr = local_addr
        self.is_write = is_write
        self.deadline = deadline
        self.wall_start = time.perf_counter()
        self.wall_end = self.wall_start


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
        # queue. Both fields only change inside the shared deterministic
        # steps, so serial and asyncio drivers see identical failovers.
        self.down_epochs = 0
        self.backlog: List[_Admitted] = []

    @property
    def available(self) -> bool:
        return self.down_epochs == 0

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

    def _run_chunk(
        self, chunk: Sequence[_Admitted]
    ) -> List[Tuple[_Admitted, float]]:
        """One coalesced ``run_batch`` over a slice of the epoch queue."""
        latencies = self.engine.run_batch(
            [r.local_addr for r in chunk], [r.is_write for r in chunk]
        )
        end = time.perf_counter()
        out = []
        for request, latency in zip(chunk, latencies):
            self.stats.record_access(
                request.tenant, request.local_addr, request.is_write
            )
            self.stats.busy_cycles += latency
            request.wall_end = end
            out.append((request, latency))
        self.stats.batches += 1
        return out

    def execute(
        self, requests: Sequence[_Admitted]
    ) -> List[Tuple[_Admitted, float]]:
        """Drain one epoch queue in ticket order (serial driver)."""
        executed: List[Tuple[_Admitted, float]] = []
        for start in range(0, len(requests), self.max_batch):
            executed.extend(self._run_chunk(requests[start : start + self.max_batch]))
        if requests:
            self.stats.epochs_busy += 1
        return executed

    async def execute_async(
        self, requests: Sequence[_Admitted]
    ) -> List[Tuple[_Admitted, float]]:
        """Same drain, yielding to the event loop between batches."""
        executed: List[Tuple[_Admitted, float]] = []
        for start in range(0, len(requests), self.max_batch):
            executed.extend(self._run_chunk(requests[start : start + self.max_batch]))
            await asyncio.sleep(0)
        if requests:
            self.stats.epochs_busy += 1
        return executed


class _TenantState:
    """Mutable serving state of one tenant: stream, cursor, stats, region.

    SLO state: ``deadlines`` maps stream index -> absolute deadline for
    requests already offered but not yet resolved (bounded by ``burst``);
    ``last_deadline`` clamps assignments nondecreasing so EDF never
    reorders one tenant's own stream; ``cooldown`` counts throttle
    epochs still to sit out; ``bucket`` is the quota token bucket.
    """

    __slots__ = (
        "spec", "stream", "cursor", "offset", "region_blocks", "stats",
        "deadlines", "last_deadline", "cooldown", "bucket",
    )

    def __init__(
        self,
        spec: TenantSpec,
        stream: List[Request],
        offset: int,
        region_blocks: int,
    ):
        self.spec = spec
        self.stream = stream
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
        return len(self.stream) - self.cursor


class OramService:
    """The multi-tenant serving layer over a pool of ORAM shards."""

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
            stream = tenant_requests(spec, self.runner, lines_per_block)
            region = tenant_region_blocks(spec, self.block_bytes, stream)
            self._tenants.append(_TenantState(spec, stream, offset, region))
            offset += region
        total_blocks = _next_pow2(max(offset, 2))
        if config.shard_blocks is not None:
            capacity = _next_pow2(config.shard_blocks)
        elif config.shards == 1:
            capacity = total_blocks
        else:
            capacity = _next_pow2(max(2 * total_blocks // config.shards, 64))
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
        self._wall_start: Optional[float] = None
        self._wall_elapsed = 0.0
        # SLO control-plane state (all mutated only inside the shared
        # deterministic steps, so both drivers agree on every decision).
        # The virtual clock is the cumulative sum of executed service
        # latencies across all shards — the service-wide simulated time
        # deadlines are judged against.
        self._vclock = 0.0
        self._min_priority = min(t.spec.priority for t in self._tenants)
        self.degradation = DegradationController(
            config.degrade_after, config.recover_after
        )
        self._epoch_starved = False
        self._starved_epochs = 0

    # -- setup helpers ---------------------------------------------------------

    def preload(self, tenant_index: int, addr: int, data: bytes) -> None:
        """Write a block before serving starts, outside all accounting.

        The touched shard's engine is re-created afterwards so its
        baseline counters (and cycle fold) exclude the preload traffic.
        """
        if self.epochs or any(t.cursor for t in self._tenants):
            raise ReproError("preload must happen before serving starts")
        shard = self._route(self._tenants[tenant_index].offset + addr)
        from repro.backend.ops import Op

        payload = bytes(data).ljust(self.block_bytes, b"\0")[: self.block_bytes]
        shard.frontend.access(
            shard.map_addr(self._tenants[tenant_index].offset + addr),
            Op.WRITE,
            payload,
        )
        shard.engine = ReplayEngine.for_mode(
            shard.frontend, shard.engine.timing, proc=self.runner.proc
        )

    def _shard_index(self, global_addr: int) -> int:
        if self.config.shards == 1:
            return 0
        key = global_addr.to_bytes(8, "little", signed=True)
        return zlib.crc32(key) % self.config.shards

    def _route(self, global_addr: int) -> OramShard:
        return self.shards[self._shard_index(global_addr)]

    # -- the three deterministic steps -----------------------------------------

    def _next_candidates(self, tenant_index: int) -> List[Request]:
        """Pure peek: the next ``burst`` requests of one tenant's stream."""
        state = self._tenants[tenant_index]
        return state.stream[state.cursor : state.cursor + self.config.burst]

    def _update_breakers(self) -> None:
        """Consult the fault plan once per shard, in index order.

        This runs at the top of admission — a shared deterministic step —
        so ``serve.shard`` injectors observe exactly one match per shard
        per epoch regardless of driver (``#2`` means "epoch 2"). A
        ``stall`` match trips the shard's breaker for ``epochs=N`` epochs;
        any other action gets the standard fault behaviour.
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

    def _assign_deadlines(
        self, candidate_lists: Sequence[Sequence[Request]]
    ) -> None:
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
        for tenant_index, candidates in enumerate(candidate_lists):
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
            for position in range(len(candidates)):
                index = state.cursor + position
                if index in state.deadlines:
                    continue
                deadline = max(
                    self._vclock + state.spec.deadline_cycles - tighten,
                    state.last_deadline,
                )
                state.deadlines[index] = deadline
                state.last_deadline = deadline

    def _admit(
        self, candidate_lists: Sequence[Sequence[Request]]
    ) -> List[List[_Admitted]]:
        """Bounded, deadline-aware admission — the single mutation site
        for cursors, shed/defer/throttle counters, quota buckets,
        degradation level, and breaker state.

        Offers are flattened and processed earliest-deadline-first (see
        :data:`ADMISSION_ORDERS`): the sort key is ``(absolute deadline,
        tenant index, stream position)`` with deadline-free requests at
        +inf, so with no deadlines configured the EDF order degenerates
        to exactly the historical fixed-tenant-order FIFO — the
        bit-identity the lockstep suite pins. Per-tenant deadlines are
        nondecreasing in stream position, so EDF never reorders a single
        tenant's own requests.

        A shard with an open breaker executes nothing this epoch: its
        arrivals *park* in the shard backlog (cursor advances, the local
        address is assigned in admission order, so the directory — and
        therefore the access digest — is unchanged by the failover).
        Parked requests occupy queue capacity, so a long stall applies
        ordinary backpressure. The epoch the breaker closes, the backlog
        drains to the front of the epoch queue — execution order is
        exactly admission order, merely delayed.
        """
        self._update_breakers()
        self._assign_deadlines(candidate_lists)
        queues: List[List[_Admitted]] = [[] for _ in self.shards]
        for shard, queue in zip(self.shards, queues):
            if shard.available and shard.backlog:
                queue.extend(shard.backlog)
                shard.backlog.clear()
        capacity = self.config.queue_capacity
        self._epoch_starved = False
        overloaded = False
        # Refill quota buckets and run down throttle cooldowns, in
        # tenant order; a cooling-down tenant offers nothing this epoch.
        blocked = [False] * len(self._tenants)
        for tenant_index, state in enumerate(self._tenants):
            if state.bucket is not None:
                state.bucket.refill()
            if state.cooldown > 0:
                state.cooldown -= 1
                blocked[tenant_index] = True
                if state.remaining:
                    self._epoch_starved = True
        # Flatten this epoch's offers into EDF order. Stream position is
        # relative to the tenant's epoch-start cursor; because per-tenant
        # keys are nondecreasing, by the time position p is processed the
        # cursor has advanced exactly p slots (or the tenant is blocked).
        entries: List[Tuple[float, int, int, Request]] = []
        for tenant_index, candidates in enumerate(candidate_lists):
            state = self._tenants[tenant_index]
            for position, request in enumerate(candidates):
                deadline = state.deadlines.get(state.cursor + position)
                entries.append(
                    (
                        deadline if deadline is not None else math.inf,
                        tenant_index,
                        position,
                        request,
                    )
                )
        if self.config.admission == "edf":
            entries.sort(key=lambda entry: entry[:3])
        for _deadline, tenant_index, _position, request in entries:
            if blocked[tenant_index]:
                continue
            state = self._tenants[tenant_index]
            local_addr, is_write = request
            global_addr = state.offset + local_addr
            shard_index = self._shard_index(global_addr)
            shard = self.shards[shard_index]
            if state.bucket is not None and not state.bucket.ready:
                # Quota exhausted: a deterministic pause, not a drop.
                state.stats.throttled += 1
                shard.stats.throttled += 1
                blocked[tenant_index] = True
                self._epoch_starved = True
                continue
            if len(queues[shard_index]) + len(shard.backlog) >= capacity:
                overloaded = True
                policy = self._effective_policy(state)
                if policy == "shed":
                    state.deadlines.pop(state.cursor, None)
                    state.cursor += 1
                    state.stats.issued += 1
                    state.stats.shed += 1
                    shard.stats.shed += 1
                    continue
                if policy == "throttle":
                    state.stats.throttled += 1
                    shard.stats.throttled += 1
                    state.cooldown = self.config.throttle_epochs
                    blocked[tenant_index] = True
                    continue
                state.stats.deferred += 1
                shard.stats.deferred += 1
                blocked[tenant_index] = True  # defer: retry next epoch
                continue
            if state.bucket is not None:
                state.bucket.take()
            admitted = _Admitted(
                tenant_index,
                shard.map_addr(global_addr),
                bool(is_write),
                deadline=state.deadlines.pop(state.cursor, None),
            )
            state.cursor += 1
            state.stats.issued += 1
            if shard.available:
                queues[shard_index].append(admitted)
            else:
                shard.backlog.append(admitted)
                shard.stats.parked += 1
        for shard, queue in zip(self.shards, queues):
            shard.stats.record_depth(len(queue))
            if not shard.available:
                shard.down_epochs -= 1
                shard.stats.stall_epochs += 1
        if self._epoch_starved:
            self._starved_epochs += 1
        self.degradation.observe(self.epochs, overloaded)
        return queues

    def _account(
        self,
        executed_by_shard: Sequence[Optional[List[Tuple[_Admitted, float]]]],
    ) -> None:
        """Post-barrier accounting in (shard index, queue position) order.

        Deadline judging: every shard starts the epoch at the service's
        virtual clock, so a request completes at ``vclock + queue wait +
        service latency``; the clock then advances by the epoch's total
        executed cycles. Misses and slack are bookkeeping over already
        simulated quantities — they never feed back into scheduling
        within the epoch, so both drivers judge identically.
        """
        epoch_start = self._vclock
        executed_cycles = 0.0
        for executed in executed_by_shard:
            if not executed:
                continue
            wait = 0.0
            for request, latency in executed:
                stats = self._tenants[request.tenant].stats
                stats.completed += 1
                stats.cycles += latency
                stats.service_cycles.record(latency)
                stats.latency_cycles.record(wait + latency)
                stats.wall_us.record(
                    (request.wall_end - request.wall_start) * 1e6
                )
                if request.deadline is not None:
                    slack = request.deadline - (epoch_start + wait + latency)
                    if slack < 0:
                        stats.missed += 1
                    stats.slack_cycles.record(max(slack, 0.0))
                wait += latency
                executed_cycles += latency
        self._vclock += executed_cycles

    # -- drivers ---------------------------------------------------------------

    def _unfinished(self) -> bool:
        return any(t.remaining for t in self._tenants)

    def _max_epochs(self) -> int:
        # Breaker-open epochs legitimately make no execution progress, so
        # the budget grows with every stall the fault plan injects — and
        # likewise with every epoch a quota bucket or throttle cooldown
        # legitimately paused a tenant that still had work.
        stalls = sum(s.stats.stall_epochs for s in self.shards)
        return (
            2 * sum(len(t.stream) for t in self._tenants)
            + 16
            + 2 * stalls
            + 2 * self._starved_epochs
        )

    def _check_progress(self, admitted: int) -> None:
        failover = any(s.down_epochs or s.backlog for s in self.shards)
        if (
            admitted == 0
            and self._unfinished()
            and not failover
            and not self._epoch_starved
        ):
            raise ReproError(
                "serve made no progress in an epoch; "
                "queue_capacity/policy starve every tenant"
            )
        if self.epochs > self._max_epochs():
            raise ReproError("serve exceeded its epoch budget without draining")

    def run_serial(self) -> "OramService":
        """Drain every tenant stream with the serial epoch loop."""
        started = time.perf_counter()
        while self._unfinished():
            queues = self._admit(
                [self._next_candidates(i) for i in range(len(self._tenants))]
            )
            executed = [shard.execute(queue) for shard, queue in zip(self.shards, queues)]
            self._account(executed)
            self.epochs += 1
            self._check_progress(sum(len(q) for q in queues))
        self._wall_elapsed += time.perf_counter() - started
        return self

    async def _run_async(self) -> None:
        admission: asyncio.Queue = asyncio.Queue()
        completions: asyncio.Queue = asyncio.Queue()
        tenant_cmds = [asyncio.Queue() for _ in self._tenants]
        shard_inboxes = [asyncio.Queue() for _ in self.shards]

        async def tenant_client(index: int) -> None:
            # A closed-loop simulated client: each epoch it offers its
            # next burst to the admission queue and waits for the next
            # epoch signal. The offer is a pure peek — admission itself
            # stays serialized in the coordinator.
            while await tenant_cmds[index].get() is not None:
                await admission.put((index, self._next_candidates(index)))

        async def shard_worker(index: int) -> None:
            shard = self.shards[index]
            while True:
                queue = await shard_inboxes[index].get()
                if queue is None:
                    return
                await completions.put((index, await shard.execute_async(queue)))

        tasks = [
            asyncio.ensure_future(tenant_client(i))
            for i in range(len(self._tenants))
        ] + [
            asyncio.ensure_future(shard_worker(j)) for j in range(len(self.shards))
        ]
        try:
            while self._unfinished():
                for cmds in tenant_cmds:
                    cmds.put_nowait("epoch")
                offers: Dict[int, List[Request]] = {}
                for _ in self._tenants:
                    index, candidates = await admission.get()
                    offers[index] = candidates
                # Offers arrive in event-loop order; admission re-imposes
                # tenant order, so the simulated outcome is identical to
                # the serial driver's.
                queues = self._admit(
                    [offers[i] for i in range(len(self._tenants))]
                )
                busy = [j for j, queue in enumerate(queues) if queue]
                for j in busy:
                    shard_inboxes[j].put_nowait(queues[j])
                executed: List[Optional[List[Tuple[_Admitted, float]]]] = [
                    None
                ] * len(self.shards)
                for _ in busy:  # epoch barrier
                    j, done = await completions.get()
                    executed[j] = done
                self._account(executed)
                self.epochs += 1
                self._check_progress(sum(len(q) for q in queues))
        finally:
            for cmds in tenant_cmds:
                cmds.put_nowait(None)
            for inbox in shard_inboxes:
                inbox.put_nowait(None)
            await asyncio.gather(*tasks)

    def run_async(self) -> "OramService":
        """Drain every tenant stream with the asyncio front door."""
        started = time.perf_counter()
        asyncio.run(self._run_async())
        self._wall_elapsed += time.perf_counter() - started
        return self

    def run(self, mode: str = "serial") -> "OramService":
        if mode == "serial":
            return self.run_serial()
        if mode == "async":
            return self.run_async()
        raise ConfigurationError(
            f"unknown serve mode {mode!r}; choose from ('serial', 'async')"
        )

    # -- reporting -------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """JSON-safe image of the whole run (the ``serve`` CLI artifact).

        The ``resilience`` block mirrors the sweep report's: a summary
        of every overload/recovery mechanism that fired. Like the sweep
        layer's, it is observability — comparisons between a chaos run
        and its golden strip it (and the deadline bookkeeping it
        summarizes) before asserting bit-identity of simulated numbers.
        """
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
        return [t.stats for t in self._tenants]

    @property
    def shard_stats(self) -> List[ShardStats]:
        return [s.stats for s in self.shards]


def serve_replay_equivalent(
    trace: MissTrace,
    scheme: str,
    runner: SimulationRunner,
    *,
    mode: str = "serial",
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
    service.run(mode=mode)
    return shard.engine.result(trace, scheme=service.scheme_label)
