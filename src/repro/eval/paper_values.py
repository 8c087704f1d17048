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

:data:`PLATFORMS` holds the machine each experiment runs at, each value
with its section: a figure's runner is built from its row
(``saved.figure_runner``), and a closed form reads its row.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.config import Platform
from repro.settings import Settings
from repro.utils.units import GiB, KiB, format_bytes


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

    @property
    def places(self) -> int:
        """Decimals a value of this row is printed to: one more than the
        paper's value has."""
        return len(f"{self.paper:g}".partition(".")[2]) + 1

    def printed(self, value: float) -> str:
        """``value`` as the scorecard prints it."""
        return f"{value:.{self.places}f}"


#: Table 3's component shares, % of the post-synthesis total at 1 / 2 / 4 channels.
_AREA_SHARES = {
    "frontend": (31.2, 30.0, 22.5), "posmap": (7.3, 7.0, 5.3),
    "plb": (10.2, 9.7, 7.3), "pmmac": (12.4, 11.9, 8.8), "misc": (1.3, 1.4, 1.1),
    "backend": (68.8, 70.0, 77.5), "stash": (28.3, 28.9, 21.9),
    "aes": (40.5, 41.1, 55.6),
}

_PLB_HITS = "stand-in PLB hit rates (ROADMAP 11 bands them, then 1)"
_RATE_TREES = "PosMap rates measured on 2^15-2^19-block trees, not 2^26 (ROADMAP 10(c))"
_HALF_LINES = "64 B blocks move half of each 128 B line"

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
    Row("fig6.pic_overhead", 7, "%", 5, "suspects: MAC bytes, hash latency (ROADMAP 1)"),
    Row("fig5.runtime_128k.bzip2", -67, "%", 5, _PLB_HITS),
    Row("fig5.runtime_128k.mcf", -49, "%", 5, _PLB_HITS),
    Row("fig5.gain_64k_128k", 2.7, "%", 5, _PLB_HITS),
    Row("fig7.posmap_cut.4gb", 82, "%", 5, _RATE_TREES),
    Row("fig7.total_cut.4gb", 38, "%", 5),
    Row("fig7.posmap_cut.64gb", 90, "%", 5, _RATE_TREES),
    Row("fig7.total_cut.64gb", 57, "%", 5, _RATE_TREES),
    Row("fig8.speedup.pc_x64", 1.27, "x", 0.12),
    Row("fig8.speedup.pc_x32", 1.27, "x", 0.12,
        f"{_HALF_LINES}: whole lines give 0.983, with 4 GB 1.454 (ROADMAP 10)"),
    Row("fig8.posmap_cut", 95, "%", 5, "mcf, omnet: 17-23 % PLB hits (ROADMAP 11, then 1)"),
    Row("fig9.speedup", 10, "x", 1,
        f"{_HALF_LINES}: whole lines give 13.4, with 4 GB 9.61 (ROADMAP 10)"),
    Row("fig9.byte_ratio", 2.1, "%", 0.3),
    # The paper bounds this gain to 0-10 %: written as midpoint +- half-width.
    Row("ablation-plb.assoc_gain", 5, "%", 5),
)

#: The rows by key.
PAPER: Dict[str, Row] = {row.key: row for row in ROWS}

_NOT_STATED = "not stated; PAPER.md holds only the title"


def _platform(name: str, base: Optional[Platform] = None, note: str = "",
              **cited: Tuple[object, str]) -> Platform:
    """A row: ``base`` with each ``field=(value, section)`` of ``cited``."""
    values = {field: value for field, (value, _section) in cited.items()}
    sources = {field: section for field, (_value, section) in cited.items()}
    if base is None:
        return Platform(name, **values, sources=sources, note=note)
    return replace(base, name=name, **values, sources={**base.sources, **sources},
                   note=note)


#: Table 1's machine: every simulated figure's unless its row says
#: otherwise, and a runner's when none is named.
TABLE1 = _platform(
    "table1",
    capacity_bytes=(4 * GiB, "Table 1: a 4 GB Data ORAM, N = 2^26"),
    line_bytes=(64, "Table 1"),
    block_bytes=(64, "Table 1: one block per line"),
    blocks_per_bucket=(4, "Table 1"),
    channels=(2, "Table 1: 2 DDR3-1333 channels"),
    core_ghz=(1.3, "Table 1"),
    plb_bytes=(64 * KiB, "§7.1.3: the 64 KB direct-mapped PLB"),
    onchip_entries=(2**10, _NOT_STATED),
    posmap_block_bytes=(32, "Fig. 3 / §7.1.4: R_X8's X = 8 of 4 B leaves"),
)

_FIG7_ONCHIP = (
    "one quantity, three values: the measured rates run at 2^10 on-chip "
    "entries (fig7), the PLB bars assume 2^11 (fig7.bars), the R_X8 bar "
    "256 KiB (fig7.r_x8); ROADMAP 10(c) and 14(a) reconcile them"
)
_FIG8 = "[26]: the platform Fig. 8 compares at"
_PHANTOM = "§7.1.6: Phantom's 2^20 x 4 KB tree, L = 19"

#: Each experiment's machine by name (``python -m repro`` names, plus
#: the points an experiment compares against).
PLATFORMS: Dict[str, Platform] = {row.name: row for row in (
    _platform("table2", TABLE1,
              note="closed form; the channel count is its axis (1, 2, 4, 8)"),
    _platform("fig5", TABLE1, note="the PLB capacity is its axis (8-128 KB)"),
    _platform("fig6", TABLE1),
    _platform("fig7", TABLE1, note="the capacity is its axis (4, 16, 64 GB); "
              + _FIG7_ONCHIP),
    _platform("fig7.bars", TABLE1, note="Fig. 7's closed-form PLB bars",
              onchip_entries=(2**11, _NOT_STATED)),
    _platform("fig7.r_x8", TABLE1, note="Fig. 7's closed-form R_X8 bar",
              onchip_entries=(256 * KiB // 4, "Fig. 3's 256 KB on-chip PosMap "
                              "of 4 B leaves")),
    _platform("fig8", TABLE1,
              note="PC_X32 keeps Table 1's 64 B block under the 128 B line",
              capacity_bytes=(4 * GiB, _NOT_STATED + "; Table 1's 4 GB"),
              line_bytes=(128, _FIG8), block_bytes=(128, _FIG8),
              blocks_per_bucket=(3, _FIG8), channels=(4, _FIG8),
              core_ghz=(2.6, _FIG8)),
    _platform("fig9", TABLE1,
              note="PC_X32's 64 B blocks under Phantom's 128 B line",
              line_bytes=(128, "§7.1.6: Phantom's 128 B line")),
    _platform("phantom", TABLE1, note="Fig. 9's baseline, in closed form",
              capacity_bytes=(2**20 * 4 * KiB, _PHANTOM),
              line_bytes=(128, _PHANTOM), block_bytes=(4 * KiB, _PHANTOM),
              blocks_per_bucket=(4, _NOT_STATED + "; Table 1's Z"),
              plb_bytes=(32 * KiB, "[21] §5.7: the 32 KB block buffer, "
                         "where the PLB would be"),
              onchip_entries=(2**20, "§7.1.6: the whole PosMap on chip"),
              posmap_block_bytes=(0, "§7.1.6: no PosMap ORAM")),
    _platform("ablation-plb", TABLE1,
              note="the PLB capacity and ways are its axes"),
)}


#: The values :func:`report` prints are also put into each of these
#: (see :func:`recording`).
_RECORDERS: List[Dict[str, float]] = []


@contextmanager
def recording() -> Iterator[Dict[str, float]]:
    """Within: every value :func:`report` prints, by key, also lands in
    the dict this yields."""
    values: Dict[str, float] = {}
    _RECORDERS.append(values)
    try:
        yield values
    finally:
        _RECORDERS.remove(values)


def is_checked(experiment: str, settings: Settings) -> bool:
    """Whether ``experiment``'s rows are held to the paper's values under
    ``settings``: a closed form's always, a saved sweep's at the paper's
    budget only."""
    from repro.eval import SAVED_SWEEPS  # the package imports this module

    return settings.full or experiment not in SAVED_SWEEPS


def status(row: Row, ours: Optional[float], checked: bool) -> str:
    """in / out when not checked; else ok, deviation, or a failure."""
    if ours is None:
        return "missing" if checked else "-"
    inside = row.within(ours)
    if not checked:
        return "in" if inside else "out"
    if row.deviation:
        return "back inside" if inside else "deviation"
    return "ok" if inside else "FAIL"


def platform_line(row: Platform, simulated: bool) -> str:
    """Where an experiment ran, and the capacity it simulated beside the paper's."""
    from repro.sim.runner import blocks_needed
    from repro.workloads.spec import benchmark_names

    ours = "closed form at the paper's"
    if simulated:  # a runner sizes each stand-in's ORAM to its working set
        sizes = sorted(blocks_needed(n, row.block_bytes) for n in benchmark_names())
        ours = "simulated {}-{} (working sets)".format(
            *(format_bytes(n * row.block_bytes) for n in (sizes[0], sizes[-1])))
    return (f"[platform {row.name}: {row.line_bytes} B lines, {row.block_bytes} B blocks, "
            f"Z={row.blocks_per_bucket}, {row.channels} ch, {row.core_ghz:g} GHz; "
            f"capacity: paper {format_bytes(row.capacity_bytes)}, {ours}]")


def report(
    experiment: str, ours: Mapping[str, float], misses: Optional[int] = None
) -> List[str]:
    """Print the experiment's platform and rows beside ``ours`` (simulated at
    ``misses``, default the configured budget); return the failing keys."""
    from repro.eval import SAVED_SWEEPS  # the package imports this module

    settings = Settings.from_env()
    checked, budget = is_checked(experiment, settings), "closed form, checked"
    if experiment in SAVED_SWEEPS:
        budget = f"{misses or settings.miss_budget} misses/benchmark, checked" + (
            "" if checked else f" at {Settings(full=True).miss_budget} (REPRO_FULL=1)"
        )
    print()
    if experiment in PLATFORMS:
        print(platform_line(PLATFORMS[experiment], experiment in SAVED_SWEEPS))
    print(f"{'paper value':<30}{'paper':>8}{'ours':>10}{'delta':>10}{'tol':>7}"
          f"  {'unit':<7}status  [{budget}]")
    failed = []
    for row in (row for row in ROWS if row.key.startswith(f"{experiment}.")):
        value = ours.get(row.key)
        verdict = status(row, value, checked)
        if verdict in ("missing", "back inside", "FAIL"):
            failed.append(row.key)
        cells = ("-", "-") if value is None else (
            row.printed(value), f"{value - row.paper:+.{row.places}f}"
        )
        print(f"{row.key:<30}{row.paper:>8g}{cells[0]:>10}{cells[1]:>10}"
              f"{row.tol:>7g}  {row.unit:<7}{verdict:<11}{row.deviation}".rstrip())
    for values in _RECORDERS:
        values.update(ours)
    return failed
