"""Deterministic tenant workload driver for the serving layer.

A tenant is a closed-loop simulated client replaying a deterministic
request stream. Streams come from the same machinery the experiment
engine uses — :class:`~repro.sim.runner.SimulationRunner` miss traces
over :mod:`repro.workloads.spec` benchmarks (including the multi-tenant
interleaved ``"a+b"`` mixes) — so serve runs are reproducible, and the
expensive cache-hierarchy simulation behind each stream is served from
the on-disk trace cache exactly like replay experiments.

Each tenant gets a private block-address region inside the service's
shared ORAM pool (regions laid back to back, like processes in one
physical memory), so two tenants replaying the same benchmark never
alias each other's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.proc.hierarchy import MissTrace
from repro.sim.replay import translate_block_addrs
from repro.sim.runner import blocks_needed
from repro.utils.bitops import next_pow2
from repro.workloads.spec import benchmark


#: One tenant request: (block address within the tenant's region, is_write).
Request = Tuple[int, bool]


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one simulated tenant client.

    Exactly one of ``benchmark`` (a :mod:`repro.workloads.spec` name,
    derived names and ``"a+b"`` mixes included) or ``events`` (an
    explicit ``(block_addr, is_write)`` stream — the path custom drivers
    like ``examples/secure_cloud_database.py`` use) must be given.
    ``requests`` caps the stream length; ``None`` serves the whole trace.
    ``region_blocks`` overrides the tenant's private-region capacity
    (benchmark tenants size it from the working set, event tenants from
    their highest address — too small when blocks are preloaded beyond
    the stream's reach).
    """

    name: str
    benchmark: Optional[str] = None
    requests: Optional[int] = None
    events: Optional[Tuple[Request, ...]] = None
    region_blocks: Optional[int] = None

    def __post_init__(self):
        if (self.benchmark is None) == (self.events is None):
            raise ConfigurationError(
                f"tenant {self.name!r} needs exactly one of benchmark= or events="
            )
        if self.benchmark is not None:
            benchmark(self.benchmark)  # fail fast on unknown names
        if self.requests is not None and self.requests < 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: requests must be >= 0"
            )
        if self.region_blocks is not None and self.region_blocks < 2:
            raise ConfigurationError(
                f"tenant {self.name!r}: region_blocks must be >= 2"
            )

    @property
    def workload_label(self) -> str:
        """Benchmark name, or a literal marker for explicit streams."""
        return self.benchmark if self.benchmark is not None else "<events>"


def tenants_for(
    benchmarks: Sequence[str],
    count: int,
    requests: Optional[int] = None,
) -> List[TenantSpec]:
    """``count`` tenants assigned round-robin over ``benchmarks``.

    The canonical "N tenants on M shards" roster builder: tenant *i*
    replays ``benchmarks[i % len(benchmarks)]`` under the name
    ``"t<i>:<benchmark>"``, capped at ``requests``.
    """
    if count < 1:
        raise ConfigurationError("a serve scenario needs at least one tenant")
    if not benchmarks:
        raise ConfigurationError("tenants_for needs at least one benchmark")
    return [
        TenantSpec(
            name=f"t{i}:{benchmarks[i % len(benchmarks)]}",
            benchmark=benchmarks[i % len(benchmarks)],
            requests=requests,
        )
        for i in range(count)
    ]


def tenant_requests(
    spec: TenantSpec, runner, lines_per_block: int
) -> Tuple[List[int], Sequence[bool]]:
    """A tenant's request stream as two columns: addresses and write flags.

    Addresses are region-relative block addresses. Benchmark tenants
    replay the runner's miss trace for their benchmark (disk-cached,
    deterministic per the runner's seed) translated to block addresses by
    ``lines_per_block``, :func:`~repro.sim.replay.line_block_ratio` as the
    replay engine takes it, which makes single-tenant serving
    lockstep-comparable to replay. Both columns
    are sliced straight from the trace's own — the write flags stay its
    0 / 1 ``array('b')`` — so a trace loaded from the cache builds no
    :class:`~repro.proc.hierarchy.MissEvent` here.
    """
    if spec.events is not None:
        events = spec.events[: spec.requests]
        return [addr for addr, _w in events], [bool(w) for _a, w in events]
    trace: MissTrace = runner.trace(spec.benchmark)
    line_addrs, is_write = trace.columns()
    addrs = translate_block_addrs(line_addrs[: spec.requests], lines_per_block)
    return addrs, is_write[: spec.requests]


def tenant_region_blocks(
    spec: TenantSpec, block_bytes: int, addrs: Sequence[int]
) -> int:
    """Power-of-two block capacity of one tenant's private region.

    A stream that leaves the region would read and overwrite the next
    tenant's blocks (or run below address zero), so it is refused here.
    """
    if spec.region_blocks is not None:
        region = next_pow2(spec.region_blocks)
    elif spec.benchmark is not None:
        region = blocks_needed(spec.benchmark, block_bytes)
    else:
        region = next_pow2(max(max(addrs, default=1) + 1, 2))
    if addrs:
        low, high = min(addrs), max(addrs)
        if low < 0 or high >= region:
            raise ConfigurationError(
                f"tenant {spec.name!r}: address {low if low < 0 else high} "
                f"is outside its region of {region} blocks"
            )
    return region
