"""Table 3: ORAM controller area breakdown, post-synthesis (32 nm).

The analytic model of :mod:`repro.area` is calibrated to the paper's
published absolute areas; this module renders the same table shape —
component percentages per channel count plus total mm^2 — and the
post-layout headline (.47 mm^2 at 1 GHz for nchannel=2).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.area.model import AreaBreakdown, AreaModel

#: Paper values: {channels: (frontend%, posmap%, plb%, pmmac%, misc%,
#: backend%, stash%, aes%, total_mm2)}.
PAPER_TABLE3: Dict[int, Tuple[float, ...]] = {
    1: (31.2, 7.3, 10.2, 12.4, 1.3, 68.8, 28.3, 40.5, 0.316),
    2: (30.0, 7.0, 9.7, 11.9, 1.4, 70.0, 28.9, 41.1, 0.326),
    4: (22.5, 5.3, 7.3, 8.8, 1.1, 77.5, 21.9, 55.6, 0.438),
}

#: Paper's post-layout total for nchannel = 2.
PAPER_LAYOUT_TOTAL_MM2 = 0.47


def run(channel_counts: Tuple[int, ...] = (1, 2, 4)) -> Dict[int, AreaBreakdown]:
    """Post-synthesis breakdown per channel count (default PLB/PosMap 8 KB)."""
    model = AreaModel(posmap_kib=8, plb_kib=8, pmmac=True)
    return {ch: model.synthesis(ch) for ch in channel_counts}


def layout_total(channels: int = 2) -> float:
    """Post-layout total area in mm^2."""
    return AreaModel(posmap_kib=8, plb_kib=8, pmmac=True).layout(channels).total


def main() -> None:
    """Print the Table 3 comparison."""
    print("Table 3: area breakdown post-synthesis (measured | paper)")
    header = f"{'component':>10}" + "".join(f" {f'{ch}ch':>15}" for ch in (1, 2, 4))
    print(header)
    results = run()
    rows = (
        ("frontend", 0), ("posmap", 1), ("plb", 2), ("pmmac", 3), ("misc", 4),
        ("backend", 5), ("stash", 6), ("aes", 7),
    )
    for name, paper_idx in rows:
        cells = []
        for ch in (1, 2, 4):
            measured = results[ch].percentages()[name]
            paper = PAPER_TABLE3[ch][paper_idx]
            cells.append(f"{measured:5.1f}|{paper:5.1f}%")
        print(f"{name:>10}" + "".join(f" {c:>15}" for c in cells))
    totals = [
        f"{results[ch].total:5.3f}|{PAPER_TABLE3[ch][8]:5.3f}" for ch in (1, 2, 4)
    ]
    print(f"{'total mm2':>10}" + "".join(f" {c:>15}" for c in totals))
    print(
        f"\npost-layout total (2ch): {layout_total():.2f} mm^2 "
        f"(paper: {PAPER_LAYOUT_TOTAL_MM2})"
    )
    model = AreaModel()
    flat = model.no_recursion_posmap_mm2(2**20, 20)
    print(
        f"no-recursion flat PosMap (2^20 entries): {flat:.1f} mm^2 "
        "(paper: ~5 mm^2, a >10x area increase)"
    )


if __name__ == "__main__":
    main()
