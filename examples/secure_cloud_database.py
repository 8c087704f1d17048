"""Scenario: a cloud key-value service whose access pattern leaks nothing.

The paper's motivation (§1): a data centre can watch which memory
locations a computation touches and reconstruct secrets from the pattern
alone. This example builds a small multi-tenant key-value service on the
ORAM serving layer (:mod:`repro.serve`) and shows that two very
different query workloads — a targeted lookup storm against one hot
record vs a uniform scan — produce externally indistinguishable DRAM
traces, while the same workloads over plain memory are trivially
distinguishable. It then serves both tenants *concurrently* from one
shared ORAM pool and shows the per-tenant accounting the service keeps
while the combined trace stays uniform.

Run:  python examples/secure_cloud_database.py
"""

from typing import Dict, List, Tuple

from repro.adversary.observer import TraceObserver
from repro.serve import OramService, ServeConfig, TenantSpec
from repro.sim.runner import SimulationRunner
from repro.utils.stats import chi_square_uniform

NUM_RECORDS = 256
RECORD_BYTES = 64


def make_runner(seed: int) -> SimulationRunner:
    # No on-disk caches: the example is self-contained and hermetic.
    return SimulationRunner(seed=seed, cache_dir=None, result_cache_dir=None)


class ObliviousDatabaseService:
    """A tenant-per-client KV service on the ORAM serving layer.

    Every tenant owns a private region of the shared ORAM pool; a shared
    schema maps ``user:<n>`` keys onto per-tenant record slots. Queries
    become per-tenant request streams served through the service's
    admission queue — the exact multiplexing path ``python -m repro
    serve`` exercises.
    """

    def __init__(
        self,
        queries_by_tenant: Dict[str, List[str]],
        seed: int,
        observer: TraceObserver,
    ):
        self._slots: Dict[str, int] = {}
        tenants = [
            TenantSpec(
                name=name,
                events=tuple((self._slot(key), False) for key in queries),
                region_blocks=NUM_RECORDS,
            )
            for name, queries in queries_by_tenant.items()
        ]
        self.service = OramService(
            tenants,
            runner=make_runner(seed),
            config=ServeConfig(scheme="PC_X32", shards=1, burst=8),
            observer=observer,
        )
        for tenant_index in range(len(tenants)):
            for user in range(NUM_RECORDS):
                value = f"balance={user * 17}".encode()
                self.service.preload(
                    tenant_index,
                    self._slot(f"user:{user}"),
                    value.ljust(RECORD_BYTES, b"\x00"),
                )

    def _slot(self, key: str) -> int:
        if key not in self._slots:
            if len(self._slots) >= NUM_RECORDS:
                raise KeyError(f"database full; cannot place {key!r}")
            self._slots[key] = len(self._slots)
        return self._slots[key]


def serve_workloads(
    queries_by_tenant: Dict[str, List[str]], seed: int
) -> Tuple[List[int], OramService]:
    """Serve the query streams; return the adversary-visible leaf trace."""
    observer = TraceObserver()
    db = ObliviousDatabaseService(queries_by_tenant, seed, observer)
    observer.clear()  # adversary starts watching after the bulk load
    db.service.run()
    return observer.leaf_sequence(0), db.service


def describe_trace(name: str, trace: List[int]) -> None:
    counts = [0] * 64
    for leaf in trace:
        counts[leaf % 64] += 1
    stat, dof = chi_square_uniform(counts)
    print(
        f"  {name:>17}: {len(trace)} path reads, "
        f"leaf chi2/dof = {stat / dof:.2f} (uniform ~1.0)"
    )


def main() -> None:
    hot_queries = ["user:42"] * 512  # an attacker-interesting pattern
    scan_queries = [f"user:{i % NUM_RECORDS}" for i in range(512)]

    hot_trace, _ = serve_workloads({"hot": hot_queries}, seed=7)
    scan_trace, _ = serve_workloads({"scan": scan_queries}, seed=7)

    print("Oblivious service — DRAM-visible path traces:")
    describe_trace("hot-record storm", hot_trace)
    describe_trace("uniform scan", scan_trace)
    print("  -> both traces are uniform random paths; the adversary learns")
    print("     only the trace length, never *which* record is hot.\n")

    # Contrast: plain memory leaks the hot address immediately.
    plain_hot = [hash(q) % NUM_RECORDS for q in hot_queries]
    plain_scan = [hash(q) % NUM_RECORDS for q in scan_queries]
    print("Plain (non-ORAM) store address traces:")
    print(f"  hot-record storm touches {len(set(plain_hot))} distinct address(es)")
    print(f"  uniform scan touches     {len(set(plain_scan))} distinct addresses")
    print("  -> without ORAM the access pattern identifies the hot record.\n")

    # Both tenants on one shared pool: the service multiplexes their
    # streams through its admission queue, keeps per-tenant accounting,
    # and the combined external trace still leaks neither tenant's shape.
    shared_trace, service = serve_workloads(
        {"hot": hot_queries, "scan": scan_queries}, seed=7
    )
    print("ORAM-as-a-service — both tenants on one shared pool:")
    describe_trace("combined trace", shared_trace)
    for stats in service.tenant_stats:
        hist = stats.latency_cycles
        print(
            f"  tenant {stats.name:<5} completed {stats.completed} requests, "
            f"mean latency {hist.mean:.0f} cycles (p95 <= "
            f"{hist.quantile_bound(0.95):.0f})"
        )
    print("  -> co-tenants share the ORAM pool yet cannot profile each")
    print("     other: the shared trace is one uniform path stream.")


if __name__ == "__main__":
    main()
