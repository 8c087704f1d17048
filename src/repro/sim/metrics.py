"""Result records and aggregation for the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class SimResult:
    """Outcome of replaying one benchmark against one scheme.

    ``prf_cache_hits`` is a *diagnostic* counter (how often the PRF's
    leaf-derivation LRU absorbed a logical evaluation). It legitimately
    varies with the cache toggle while every simulated outcome stays
    bit-identical, so it is excluded from equality — ``==`` (and the
    golden digests built on it) compare simulated outcomes only.
    """

    benchmark: str
    scheme: str
    cycles: float
    instructions: int
    llc_misses: int
    oram_accesses: int
    tree_accesses: int
    data_bytes: int = 0
    posmap_bytes: int = 0
    plb_hit_rate: float = 0.0
    mpki: float = 0.0
    prf_calls: int = 0
    prf_cache_hits: int = field(default=0, compare=False)

    @property
    def prf_cache_hit_rate(self) -> float:
        """Share of logical PRF evaluations served by the leaf LRU."""
        return self.prf_cache_hits / self.prf_calls if self.prf_calls else 0.0

    @property
    def total_bytes(self) -> int:
        """Data + PosMap bytes moved."""
        return self.data_bytes + self.posmap_bytes

    @property
    def bytes_per_access(self) -> float:
        """Average bytes moved per ORAM access (Fig. 7/8 right axis)."""
        return self.total_bytes / self.oram_accesses if self.oram_accesses else 0.0

    @property
    def posmap_byte_fraction(self) -> float:
        """Share of traffic serving the PosMap (Fig. 3 y-axis)."""
        return self.posmap_bytes / self.total_bytes if self.total_bytes else 0.0

    def slowdown_vs(self, baseline: "SimResult") -> float:
        """Runtime ratio against a baseline replay of the same trace."""
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        return self.cycles / baseline.cycles


def format_table(
    table: Dict[str, Dict[str, float]], benchmarks: Sequence[str], title: str = ""
) -> str:
    """Render a scheme x benchmark table as aligned text."""
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'scheme':>10} " + " ".join(f"{b:>7}" for b in benchmarks) + f" {'geomean':>8}"
    lines.append(header)
    for scheme, row in table.items():
        cells = " ".join(f"{row.get(b, float('nan')):7.2f}" for b in benchmarks)
        lines.append(f"{scheme:>10} " + cells + f" {row['geomean']:8.2f}")
    return "\n".join(lines)
