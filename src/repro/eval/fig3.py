"""Figure 3: % of bytes from PosMap ORAMs in a full Recursive access.

Sweeps Data ORAM capacity 2^30..2^40 bytes for X=8 (32-byte PosMap
blocks), Z=4, block sizes 64/128 B and on-chip PosMaps of 8/256 KB, with
buckets padded to 512 bits — exactly the Fig. 3 configuration: a curve
that *grows* with capacity.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analytic.bandwidth import posmap_fraction
from repro.eval.paper_values import report

#: (block_bytes, onchip_posmap_bytes) series of Fig. 3.
SERIES: Tuple[Tuple[int, int], ...] = (
    (64, 8 * 1024),
    (128, 8 * 1024),
    (64, 256 * 1024),
    (128, 256 * 1024),
)


def series_label(block_bytes: int, onchip_bytes: int) -> str:
    """Paper-style label, e.g. ``b64_pm8``."""
    return f"b{block_bytes}_pm{onchip_bytes // 1024}"


def run(
    log2_capacities: Tuple[int, ...] = tuple(range(30, 41))
) -> Dict[str, List[Tuple[int, float]]]:
    """Compute every Fig. 3 series; values are (log2 capacity, fraction)."""
    out: Dict[str, List[Tuple[int, float]]] = {}
    for block_bytes, onchip in SERIES:
        label = series_label(block_bytes, onchip)
        points = []
        for log2_cap in log2_capacities:
            frac = posmap_fraction(1 << log2_cap, block_bytes, onchip)
            points.append((log2_cap, frac))
        out[label] = points
    return out


def headline(data: Dict[str, List[Tuple[int, float]]]) -> Dict[str, float]:
    """The PosMap byte share at 4 GB with an 8 KB on-chip PosMap, in %."""
    return {
        f"fig3.posmap_share.b{block}": 100 * dict(data[series_label(block, 8 * 1024)])[32]
        for block in (64, 128)
    }


def main() -> None:
    """Print the Fig. 3 curves as a text table, then the paper's values."""
    data = run()
    caps = [c for c, _ in next(iter(data.values()))]
    print("Figure 3: % bytes from PosMap ORAMs (X=8, Z=4, 512-bit buckets)")
    print("log2(capacity):", " ".join(f"{c:5d}" for c in caps))
    for label, points in data.items():
        print(f"{label:>12}:", " ".join(f"{100 * f:5.1f}" for _, f in points))
    report("fig3", headline(data))


if __name__ == "__main__":
    main()
