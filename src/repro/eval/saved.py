"""What every saved-sweep figure shares: its runner and ``run``.

A simulated figure (:data:`repro.eval.SAVED_SWEEPS`) is a saved sweep plus
a pure ``table_from_report``. :func:`figure_run` composes the two into the
module's ``run(benchmarks=None, misses=None)`` on :func:`figure_runner`,
and :func:`complete_report` is the one place a figure's sweep runs: a
table is only ever built from every cell of its sweep.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, TypeVar

from repro.errors import ReproError
from repro.eval.paper_values import PLATFORMS
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep

T = TypeVar("T")


def figure_runner(name: str, misses: Optional[int] = None) -> SimulationRunner:
    """The runner of experiment ``name``: its platform row, ``misses``
    per benchmark (default: the configured budget)."""
    return SimulationRunner(PLATFORMS[name], misses_per_benchmark=misses)


def complete_report(sweep: SweepSpec, runner: SimulationRunner) -> Dict[str, object]:
    """:func:`run_sweep`'s report, raising if any cell failed every retry.

    A sweep quarantines such a cell and leaves it out of ``cells``; a table
    built from what remains (a geomean over fewer benchmarks, a missing
    row) would be silently wrong, so a figure refuses it.
    """
    report = run_sweep(sweep, runner)
    quarantined = report["resilience"]["quarantined"]  # type: ignore[index]
    if quarantined:
        cells = ", ".join(f"{q['scheme']}/{q['benchmark']}" for q in quarantined)
        raise ReproError(
            f"figure is missing {len(quarantined)} quarantined cell(s): {cells} "
            f"(first error: {quarantined[0]['error']})"
        )
    return report


def figure_run(
    name: str,
    sweep: Callable[[Optional[Iterable[str]]], object],
    table_from_report: Callable[..., T],
) -> Callable[..., T]:
    """Experiment ``name``'s ``run(benchmarks=None, misses=None)``.

    ``table_from_report`` of the complete report of ``sweep(benchmarks)``
    on ``figure_runner(name, misses)``; a figure of several sweeps (a
    list) gets the list of their reports.
    """

    def run(
        benchmarks: Optional[Iterable[str]] = None, misses: Optional[int] = None
    ) -> T:
        """The figure's table (``table_from_report`` of its saved sweep)."""
        runner = figure_runner(name, misses)
        sweeps = sweep(benchmarks)
        if isinstance(sweeps, list):
            return table_from_report([complete_report(s, runner) for s in sweeps])
        report = complete_report(sweeps, runner)  # type: ignore[arg-type]
        return table_from_report(report)

    return run
