"""Scenario: sizing an ORAM controller for a workload (mini §7.1).

A systems architect picking Frontend parameters wants to know, for their
workload mix: how much does the PLB help, what does compression buy, and
what does integrity cost? This example runs a miniature version of the
paper's evaluation — three locality classes x four schemes x a PLB
sweep — and prints the resulting design-space tables.

Run:  python examples/design_space_exploration.py
      REPRO_FULL=1 python examples/design_space_exploration.py   # larger
"""

from repro.eval import fig5, fig6
from repro.eval.saved import complete_report
from repro.settings import Settings
from repro.sim.metrics import SimResult, format_table
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec

BENCHMARKS = ["hmmer", "libq", "mcf"]  # high / streaming / worst locality
SCHEMES = ["R_X8", "P_X16", "PC_X32", "PIC_X32"]


def main() -> None:
    misses = 20_000 if Settings.from_env().full else 2_000
    runner = SimulationRunner(misses_per_benchmark=misses)

    print("=== Scheme comparison (slowdown vs insecure DRAM) ===")
    sweep = SweepSpec.from_args(SCHEMES, benchmarks=BENCHMARKS)
    schemes = complete_report(sweep, runner)
    table = fig6.table_from_report(schemes)
    print(format_table(table, BENCHMARKS))
    pc = table["PC_X32"]["geomean"]
    print(f"\ncompression gain over P_X16 : {table['P_X16']['geomean'] / pc:.2f}x")
    print(f"integrity (PMMAC) overhead  : "
          f"{100 * (table['PIC_X32']['geomean'] / pc - 1):.1f}%")

    print("\n=== PLB capacity sweep (runtime normalised to 8 KB) ===")
    capacities = fig5.CAPACITIES
    header = f"{'bench':>7} " + " ".join(f"{c // 1024:>5}K" for c in capacities)
    print(header)
    plb_sweep = fig5.table_from_report(complete_report(fig5.sweep(BENCHMARKS), runner))
    for bench, normalised in plb_sweep.items():
        row = " ".join(f"{normalised[c]:6.3f}" for c in capacities)
        print(f"{bench:>7} {row}")

    print("\n=== PLB hit rates (why the sweep behaves that way) ===")
    for cell in schemes["cells"]:
        if cell["scheme"] != "PC_X32":
            continue
        result = SimResult(**cell["result"])
        print(f"{result.benchmark:>7}: PLB hit rate {result.plb_hit_rate:5.1%}, "
              f"MPKI {result.mpki:5.1f}, "
              f"PosMap share of traffic {result.posmap_byte_fraction:5.1%}")


if __name__ == "__main__":
    main()
