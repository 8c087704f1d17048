"""The paper's values, each written once, and the one check against them.

A row is keyed ``<experiment>.<quantity>`` (a ``python -m repro`` name)
and holds the paper's value and unit, a tolerance either side, in that
unit, and for a known miss the one-line cause (``deviation``). Each
experiment module derives its quantities once, in ``headline(result) ->
{key: ours}``; its ``main()`` and its benchmark both hand them to
:func:`report`. A closed-form experiment's rows are checked on every
run; a saved sweep's (:data:`repro.eval.SAVED_SWEEPS`) only at the
paper's budget, ``REPRO_FULL=1``. A checked row outside tolerance must
list a deviation, and a listed one back inside fails: the list only
shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.settings import Settings


@dataclass(frozen=True)
class Row:
    """One value the paper reports."""

    key: str
    paper: float
    unit: str
    tol: float
    deviation: str = ""

    def within(self, ours: float) -> bool:
        """True when ``ours`` is inside the tolerance."""
        return abs(ours - self.paper) <= self.tol


#: Table 3's component shares, % of the post-synthesis total at 1 / 2 / 4 channels.
_AREA_SHARES = {
    "frontend": (31.2, 30.0, 22.5), "posmap": (7.3, 7.0, 5.3),
    "plb": (10.2, 9.7, 7.3), "pmmac": (12.4, 11.9, 8.8), "misc": (1.3, 1.4, 1.1),
    "backend": (68.8, 70.0, 77.5), "stash": (28.3, 28.9, 21.9),
    "aes": (40.5, 41.1, 55.6),
}

_PLB_HITS = "stand-in PLB hit rates, not yet probed (ROADMAP 1(b))"
_RATE_TREES = "PosMap rates measured on 2^15-2^19-block trees, not 2^26 (ROADMAP 2(a))"

ROWS = (
    Row("fig3.posmap_share.b64", 56, "%", 3),
    Row("fig3.posmap_share.b128", 39, "%", 4),
    Row("table2.latency.1ch", 2147, "cycles", 214),
    Row("table2.latency.2ch", 1208, "cycles", 120),
    Row("table2.latency.4ch", 697, "cycles", 69),
    Row("table2.latency.8ch", 463, "cycles", 46),
    Row("table2.insecure", 58, "cycles", 5),
    Row("table3.total.1ch", 0.316, "mm2", 0.015),
    Row("table3.total.2ch", 0.326, "mm2", 0.016),
    Row("table3.total.4ch", 0.438, "mm2", 0.021),
    Row("table3.layout.2ch", 0.47, "mm2", 0.03),
    Row("table3.flat_posmap", 5, "mm2", 0.5),
    Row("table3.plb64_growth", 29, "%", 10),
    *(
        Row(f"table3.share.{part}.{ch}ch", share, "%", 1.5)
        for part, shares in _AREA_SHARES.items()
        for ch, share in zip((1, 2, 4), shares)
    ),
    Row("compression.fanout", 16, "", 0.5),
    Row("compression.fanout_compressed", 32, "", 0.5),
    Row("compression.remap_overhead", 0.2, "%", 0.02),
    Row("hashbw.reduction.L16", 68, "x", 0.5),
    Row("hashbw.reduction.L32", 132, "x", 0.5),
    Row("fig6.pc_speedup", 1.43, "x", 0.14),
    Row("fig6.pic_overhead", 7, "%", 5, "suspects: MAC bytes, hash latency (ROADMAP 1(b))"),
    Row("fig5.runtime_128k.bzip2", -67, "%", 5, _PLB_HITS),
    Row("fig5.runtime_128k.mcf", -49, "%", 5, _PLB_HITS),
    Row("fig5.gain_64k_128k", 2.7, "%", 5, _PLB_HITS),
    Row("fig7.posmap_cut.4gb", 82, "%", 5, _RATE_TREES),
    Row("fig7.total_cut.4gb", 38, "%", 5),
    Row("fig7.posmap_cut.64gb", 90, "%", 5, _RATE_TREES),
    Row("fig7.total_cut.64gb", 57, "%", 5, _RATE_TREES),
    Row("fig8.speedup.pc_x64", 1.27, "x", 0.12),
    Row("fig8.speedup.pc_x32", 1.27, "x", 0.12, "not yet probed (ROADMAP 1(b))"),
    Row("fig8.posmap_cut", 95, "%", 5, "mcf, omnet: 17-23 % PLB hits (ROADMAP 1(b))"),
    Row("fig9.speedup", 10, "x", 1, "suspect: 4 KB-block timing model (ROADMAP 1(b))"),
    Row("fig9.byte_ratio", 2.1, "%", 0.3),
    # The paper bounds this gain to 0-10 %: written as midpoint +- half-width.
    Row("ablation-plb.assoc_gain", 5, "%", 5),
)

#: The rows by key.
PAPER: Dict[str, Row] = {row.key: row for row in ROWS}


def _status(row: Row, ours: Optional[float], checked: bool) -> str:
    """in / out when not checked; else ok, deviation, or a failure."""
    if ours is None:
        return "missing" if checked else "-"
    inside = row.within(ours)
    if not checked:
        return "in" if inside else "out"
    if row.deviation:
        return "back inside" if inside else "deviation"
    return "ok" if inside else "FAIL"


def report(
    experiment: str, ours: Mapping[str, float], misses: Optional[int] = None
) -> List[str]:
    """Print the experiment's rows beside ``ours`` (simulated at ``misses``,
    default the configured budget); return the keys of the failing ones."""
    from repro.eval import SAVED_SWEEPS  # the package imports this module

    checked, budget = True, "closed form, checked"
    if experiment in SAVED_SWEEPS:
        settings = Settings.from_env()
        checked = settings.full
        budget = f"{misses or settings.miss_budget} misses/benchmark, checked" + (
            "" if checked else f" at {Settings(full=True).miss_budget} (REPRO_FULL=1)"
        )
    print(f"\n{'paper value':<30}{'paper':>8}{'ours':>10}{'delta':>10}{'tol':>7}"
          f"  {'unit':<7}status  [{budget}]")
    failed = []
    for row in (row for row in ROWS if row.key.startswith(f"{experiment}.")):
        value = ours.get(row.key)
        status = _status(row, value, checked)
        if status in ("missing", "back inside", "FAIL"):
            failed.append(row.key)
        places = len(f"{row.paper:g}".partition(".")[2]) + 1
        cells = ("-", "-") if value is None else (
            f"{value:.{places}f}", f"{value - row.paper:+.{places}f}"
        )
        print(f"{row.key:<30}{row.paper:>8g}{cells[0]:>10}{cells[1]:>10}"
              f"{row.tol:>7g}  {row.unit:<7}{status:<11}{row.deviation}".rstrip())
    return failed
