"""Experiment harness: one module per table and figure of the paper.

Each module exposes a ``run(...)`` returning structured rows, a
``headline(result)`` deriving the quantities the paper reports, and a
``main()`` printing the table and then those quantities beside the
paper's values, which live in :mod:`repro.eval.paper_values` alone. The
benchmarks/ directory wraps each module in a pytest-benchmark target that
checks the same rows (a closed-form module's on every run, a simulated
figure's at ``REPRO_FULL=1``) and asserts the figure's shape.

| Module       | Reproduces |
|--------------|------------|
| fig3         | Fig. 3 — recursion overhead vs capacity |
| table2       | Tab. 2 — path latency vs DRAM channels (+58-cycle baseline) |
| fig5         | Fig. 5 — PLB capacity sweep |
| fig6         | Fig. 6 — R_X8 / PC_X32 / PIC_X32 slowdowns |
| fig7         | Fig. 7 — KB/access scalability, PosMap share |
| fig8         | Fig. 8 — [26]-parameter comparison (PC_X64/PC_X32) |
| fig9         | Fig. 9 — speedup over Phantom 4 KB blocks |
| ablation_plb | §7.1.3 — PLB associativity and the value of a PLB |
| table3       | Tab. 3 — area breakdown vs channel count |
| hashbw       | §6.3 — PMMAC vs Merkle hash bandwidth |
| compression  | §5.3 — compressed PosMap geometry and remap overhead |

A simulated figure (:data:`SAVED_SWEEPS`) is a saved sweep plus a pure
function. Its module exposes ``sweep(benchmarks=None)`` (a
:class:`~repro.sim.sweep.SweepSpec`, or a list of them) and
``table_from_report(report)`` (the table, from the
:func:`~repro.sim.sweep.run_sweep` report, or the list of reports); its
``run(benchmarks=None, misses=None)`` is exactly that composition
(:func:`repro.eval.saved.figure_run`) on the runner built from its row
of :data:`repro.eval.paper_values.PLATFORMS`. A table is recomputed from the
result store's cells on every call, never stored. fig9 alone takes a
second input, ``fig9.phantom_replays(runner, benchmarks)``.
"""

from repro.eval import ablation_plb, fig5, fig6, fig7, fig8, fig9

#: Every experiment, in the order ``python -m repro all`` runs them.
ORDER = (
    "fig3", "table2", "table3", "compression", "hashbw",
    "fig6", "fig5", "fig7", "fig8", "fig9", "ablation-plb",
)

#: The simulated figures by experiment name (``python -m repro sweep
#: --saved NAME``).
SAVED_SWEEPS = {
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "ablation-plb": ablation_plb,
}
