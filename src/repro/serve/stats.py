"""Per-tenant and per-shard accounting for the serving layer.

Everything here is observational: recording a latency or a queue depth
never feeds back into scheduling or simulated state, so wall-clock
histograms can coexist with bit-reproducible simulated outcomes. All
``to_dict`` images are JSON-safe.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from functools import reduce
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence

from repro.utils.stats import LEDGERS


class LatencyHistogram:
    """Power-of-two-bucketed latency histogram with exact moments.

    Buckets are ``[2^(k-1), 2^k)`` by integer magnitude (bucket 0 holds
    values < 1), which spans simulated-cycle and wall-microsecond scales
    without configuration. ``quantile_bound(q)`` reports the upper edge
    of the bucket containing the q-quantile — a guaranteed upper bound,
    which is the useful direction for latency reporting.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    def record_many(self, values: Sequence[float]) -> None:
        """``record`` every value, in order: the total is a left fold, as
        ``+=``; the rest is read off the sorted values, where a bucket is a
        contiguous run found by bisection."""
        if not values:
            return
        self.count += len(values)
        self.total = reduce(add, values, self.total)
        ordered = sorted(values)  # stable: equal values keep their order
        low = ordered[0]
        high = ordered[bisect_left(ordered, ordered[-1])]  # the first maximum
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        buckets = self._buckets
        start = 0
        while start < len(ordered):
            value = ordered[start]
            bucket = int(value).bit_length()
            # Negative values do not sort by bucket: they go one by one.
            stop = bisect_left(ordered, 1 << bucket, start) if value >= 0 else start + 1
            buckets[bucket] = buckets.get(bucket, 0) + stop - start
            start = stop

    def merge(
        self,
        count: int,
        total: float,
        low: Optional[float],
        high: Optional[float],
        buckets: Mapping[int, int],
    ) -> None:
        """Take in ``count`` values recorded after this histogram's own, as
        a summary: ``total`` continues this histogram's left fold, ``low``
        and ``high`` are the values' first minimum and first maximum and
        ``buckets`` their count per bucket — what ``record_many`` of the
        values themselves would leave."""
        if not count:
            return
        self.count += count
        self.total = total
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high
        own = self._buckets
        for bucket, seen in buckets.items():
            own[bucket] = own.get(bucket, 0) + seen

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile_bound(self, q: float) -> float:
        """Upper edge of the bucket holding the q-quantile (0 when empty)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= target:
                return float(1 << bucket)
        return float(1 << max(self._buckets))

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50_bound": self.quantile_bound(0.50),
            "p95_bound": self.quantile_bound(0.95),
            "p99_bound": self.quantile_bound(0.99),
            # Keyed by bucket upper edge so the JSON artifact is
            # self-describing without knowing the bucketing rule.
            "buckets": {
                str(1 << bucket): self._buckets[bucket]
                for bucket in sorted(self._buckets)
            },
        }


@LEDGERS["tenant"].bind()
class TenantStats:
    """One tenant's serving record.

    ``issued`` (the tenant's stream cursor: every request admitted or
    shed), ``shed`` and ``deferred`` are slots of ``ledger``, the column
    admission counts in on either tier. ``service_cycles`` histograms
    the pure engine service time — its count is ``completed`` and its
    total ``cycles``, the left-fold sum of the tenant's own service
    latencies in execution order, the quantity the determinism tests pin
    serial-vs-concurrent; ``latency_cycles`` adds the simulated queue wait ahead of the
    request in its shard's epoch queue; ``wall_us`` is the observational
    wall-clock time from the epoch's admission stamp to the completion
    of the request's batch.
    """

    def __init__(self, name: str, benchmark: str) -> None:
        self.name = name
        self.benchmark = benchmark
        self.ledger = LEDGERS["tenant"].column()
        self.service_cycles = LatencyHistogram()
        self.latency_cycles = LatencyHistogram()
        self.wall_us = LatencyHistogram()

    @property
    def histograms(self) -> tuple:
        """The three histograms, in the order the fold reads them."""
        return self.service_cycles, self.latency_cycles, self.wall_us

    @property
    def completed(self) -> int:
        return self.service_cycles.count

    @property
    def cycles(self) -> float:
        return self.service_cycles.total

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "benchmark": self.benchmark,
            "issued": self.issued,
            "completed": self.completed,
            "shed": self.shed,
            "deferred": self.deferred,
            "cycles": self.cycles,
            "service_cycles": self.service_cycles.to_dict(),
            "latency_cycles": self.latency_cycles.to_dict(),
            "wall_us": self.wall_us.to_dict(),
        }


@LEDGERS["shard"].bind()
class ShardStats:
    """One shard's serving record, including the access-sequence digest.

    The digest is a running SHA-256 over ``(tenant index, local address,
    is_write)`` triples in execution order — a compact witness of the
    shard's exact access sequence, which the determinism suite compares
    across serial and concurrent runs (and which a full recorded
    sequence would reproduce). The counters admission and execution
    move (``shed``, ``deferred``, the queue-depth samples, ``batches``,
    ``epochs_busy`` and ``mapped``, the addresses the shard directory has
    given this shard) are slots of ``ledger``.
    """

    _PACK = struct.Struct("<qqB")

    def __init__(self, index: int) -> None:
        self.index = index
        self.requests = 0
        self.busy_cycles = 0.0
        self.ledger = LEDGERS["shard"].column()
        self._digest = hashlib.sha256()
        self.accesses: List[tuple] = []
        self.record_accesses = False

    def record_rows(
        self,
        tenants: Sequence[int],
        local_addrs: Sequence[int],
        writes: Sequence[bool],
        latencies: Sequence[float],
    ) -> None:
        """Executed requests, as columns in execution order."""
        self.requests += len(tenants)
        pack = self._PACK.pack
        self._digest.update(
            b"".join(map(pack, tenants, local_addrs, writes))
        )
        self.busy_cycles = reduce(add, latencies, self.busy_cycles)
        if self.record_accesses:
            self.accesses.extend(zip(tenants, local_addrs, writes))

    def record_packed(self, packed: bytes, busy_cycles: float) -> None:
        """Executed requests, already packed as the digest reads them,
        and the busy cycles folded on over their latencies."""
        self.requests += len(packed) // self._PACK.size
        self._digest.update(packed)
        self.busy_cycles = busy_cycles
        if self.record_accesses:
            self.accesses.extend(self._PACK.iter_unpack(packed))

    @property
    def access_digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def mean_depth(self) -> float:
        return self.depth_total / self.depth_samples if self.depth_samples else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard": self.index,
            "requests": self.requests,
            "batches": self.batches,
            "epochs_busy": self.epochs_busy,
            "shed": self.shed,
            "deferred": self.deferred,
            "busy_cycles": self.busy_cycles,
            "queue_depth": {
                "samples": self.depth_samples,
                "mean": self.mean_depth,
                "max": self.depth_max,
            },
            "access_digest": self.access_digest,
        }


def serve_table(report: Mapping[str, object]) -> str:
    """Render a serve report (``OramService.report()``) as the text summary.

    One line per tenant and per shard, then the totals: what
    ``python -m repro serve`` prints.
    """
    totals = report["totals"]
    lines = [
        f"serve: scheme {report['scheme']}, "
        f"{len(report['tenants'])} tenant(s) on {len(report['shards'])} "
        f"shard(s), policy {report['config']['policy']}"
    ]
    for tenant in report["tenants"]:
        lines.append(
            f"  {tenant['name']:<16} completed {tenant['completed']:>6}"
            f"  shed {tenant['shed']:>4}"
            f"  cycles {tenant['cycles']:>14.1f}"
            f"  p95<={tenant['latency_cycles']['p95_bound']:.0f}cyc"
        )
    for shard in report["shards"]:
        depth = shard["queue_depth"]
        lines.append(
            f"  shard {shard['shard']}: requests {shard['requests']}"
            f"  batches {shard['batches']}"
            f"  mean depth {depth['mean']:.1f} (max {depth['max']})"
            f"  shed {shard['shed']}  deferred {shard['deferred']}"
        )
    lines.append(
        f"  totals: {totals['requests']} requests in {report['epochs']} "
        f"epochs, {totals['cycles'] / 1e6:.2f} Mcycles"
    )
    return "\n".join(lines)
