"""Ablation: PLB associativity and the no-PLB Unified-tree point (§7.1.3).

Two design questions the paper answers empirically:

- *associativity*: with capacity fixed, how little a more associative PLB
  improves on direct-mapped, so the hardware stays direct-mapped;
- *having a PLB at all*: a Unified tree whose PLB is too small to hold
  anything degenerates to walking the recursion on every access — the
  cost the PLB exists to remove.

One saved sweep per question, so :func:`sweep` returns a list of two and
:func:`table_from_report` takes their two reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.eval.paper_values import report
from repro.eval.saved import default_runner, figure_run
from repro.sim.sweep import SweepSpec
from repro.utils.stats import geometric_mean

#: Associativities swept at fixed capacity.
WAYS: Sequence[int] = (1, 2, 4, 8)

#: The fixed PLB capacity of the associativity sweep.
ASSOCIATIVITY_CAPACITY = 8 * 1024

#: PLB capacities of the value question: the 64 KB design, and one block —
#: a PLB that can never hold a useful working set, so every access walks
#: the full recursion, like Recursive ORAM over ORamU.
WITH_PLB, WITHOUT_PLB = 64 * 1024, 64

#: Default benchmarks of each question.
ASSOCIATIVITY_BENCHMARKS: Tuple[str, ...] = ("gcc", "libq", "mcf")
VALUE_BENCHMARKS: Tuple[str, ...] = ("hmmer", "libq", "mcf")


def sweep(benchmarks: Optional[Iterable[str]] = None) -> List[SweepSpec]:
    """[associativity sweep, PLB-value sweep], both of PC_X32."""
    names = None if benchmarks is None else list(benchmarks)
    return [
        SweepSpec.from_args(
            schemes=[f"PC_X32:plb_capacity_bytes={ASSOCIATIVITY_CAPACITY}"],
            grid={"plb_ways": list(WAYS)},
            benchmarks=ASSOCIATIVITY_BENCHMARKS if names is None else names,
        ),
        SweepSpec.from_args(
            schemes=["PC_X32"],
            grid={"plb_capacity_bytes": [WITH_PLB, WITHOUT_PLB]},
            benchmarks=VALUE_BENCHMARKS if names is None else names,
        ),
    ]


make_runner = default_runner


def _cycles(report: Mapping[str, object], field: str) -> Dict[str, Dict[int, float]]:
    """``cycles[benchmark][spec field value]`` of a one-axis report."""
    cycles: Dict[str, Dict[int, float]] = {}
    for cell in report["cells"]:  # type: ignore[index]
        row = cycles.setdefault(cell["benchmark"], {})
        row[cell["spec"][field]] = cell["result"]["cycles"]
    return cycles


def associativity_from_report(report: Mapping[str, object]) -> Dict[int, float]:
    """``[ways]``: geomean runtime normalised to direct-mapped."""
    by_ways = _cycles(report, "plb_ways").values()
    return {
        ways: geometric_mean([row[ways] / row[1] for row in by_ways]) for ways in WAYS
    }


def value_from_report(report: Mapping[str, object]) -> Dict[str, float]:
    """``[benchmark]``: crippled-PLB runtime over 64 KB-PLB runtime — how
    much the PLB buys on each locality class."""
    by_capacity = _cycles(report, "plb_capacity_bytes")
    return {
        name: row[WITHOUT_PLB] / row[WITH_PLB] for name, row in by_capacity.items()
    }


def table_from_report(
    reports: Sequence[Mapping[str, object]],
) -> Tuple[Dict[int, float], Dict[str, float]]:
    """(associativity, value) from the two sweeps' reports."""
    return associativity_from_report(reports[0]), value_from_report(reports[1])


run = figure_run(sweep, table_from_report)


def headline(result: Tuple[Dict[int, float], Dict[str, float]]) -> Dict[str, float]:
    """What the most associative PLB gains over direct-mapped, in %."""
    return {"ablation-plb.assoc_gain": 100 * (1 - result[0][WAYS[-1]])}


def main() -> None:
    """Print both ablations."""
    associativity, value = run()
    print("PLB associativity (runtime vs direct-mapped)")
    for ways, ratio in associativity.items():
        print(f"  {ways}-way: {ratio:.3f}")
    print("\nValue of the PLB (crippled-PLB runtime / 64KB-PLB runtime)")
    for name, ratio in value.items():
        print(f"  {name:>7}: {ratio:.2f}x")
    report("ablation-plb", headline((associativity, value)))


if __name__ == "__main__":
    main()
