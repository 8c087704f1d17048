"""Table 3: ORAM controller area breakdown, post-synthesis (32 nm).

The analytic model of :mod:`repro.area` is calibrated to the paper's
published absolute areas; this module renders the same table shape —
component percentages per channel count plus total mm^2 — the post-layout
total at nchannel=2, the flat PosMap recursion avoids and what a 64 KB PLB
adds.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.area.model import AreaBreakdown, AreaModel
from repro.eval.paper_values import report


def run(channel_counts: Tuple[int, ...] = (1, 2, 4)) -> Dict[int, AreaBreakdown]:
    """Post-synthesis breakdown per channel count (default PLB/PosMap 8 KB)."""
    model = AreaModel(posmap_kib=8, plb_kib=8, pmmac=True)
    return {ch: model.synthesis(ch) for ch in channel_counts}


def layout_total(channels: int = 2) -> float:
    """Post-layout total area in mm^2."""
    return AreaModel(posmap_kib=8, plb_kib=8, pmmac=True).layout(channels).total


def headline(results: Dict[int, AreaBreakdown]) -> Dict[str, float]:
    """Totals (mm^2), shares (%), layout, flat-PosMap and 64 KB-PLB costs."""
    ours = {}
    for ch, breakdown in results.items():
        ours[f"table3.total.{ch}ch"] = breakdown.total
        for part, share in breakdown.percentages().items():
            ours[f"table3.share.{part}.{ch}ch"] = share
    ours["table3.layout.2ch"] = layout_total(2)
    ours["table3.flat_posmap"] = AreaModel().no_recursion_posmap_mm2(2**20, 20)
    small, big = (AreaModel(plb_kib=kib).synthesis(1).total for kib in (8, 64))
    ours["table3.plb64_growth"] = 100 * (big / small - 1)
    return ours


def main() -> None:
    """Print the Table 3 breakdown beside the paper's."""
    print("Table 3: area breakdown post-synthesis and layout (32 nm)")
    report("table3", headline(run()))


if __name__ == "__main__":
    main()
