"""Scenario: sizing an ORAM controller for a workload (mini §7.1).

A systems architect picking Frontend parameters wants to know, for their
workload mix: how much does the PLB help, what does compression buy, and
what does integrity cost? This example runs a miniature version of the
paper's evaluation — three locality classes x four schemes x a PLB
sweep — and prints the resulting design-space tables.

Run:  python examples/design_space_exploration.py
      REPRO_FULL=1 python examples/design_space_exploration.py   # larger
"""

from repro.settings import Settings
from repro.sim.metrics import format_table, slowdown_table
from repro.sim.runner import SimulationRunner

BENCHMARKS = ["hmmer", "libq", "mcf"]  # high / streaming / worst locality
SCHEMES = ["R_X8", "P_X16", "PC_X32", "PIC_X32"]


def main() -> None:
    misses = 20_000 if Settings.from_env().full else 2_000
    runner = SimulationRunner(misses_per_benchmark=misses)

    print("=== Scheme comparison (slowdown vs insecure DRAM) ===")
    results = runner.run_suite(SCHEMES, BENCHMARKS)
    baselines = runner.baselines(BENCHMARKS)
    table = slowdown_table(results, baselines, SCHEMES)
    print(format_table(table, BENCHMARKS))
    pc = table["PC_X32"]["geomean"]
    print(f"\ncompression gain over P_X16 : {table['P_X16']['geomean'] / pc:.2f}x")
    print(f"integrity (PMMAC) overhead  : "
          f"{100 * (table['PIC_X32']['geomean'] / pc - 1):.1f}%")

    print("\n=== PLB capacity sweep (runtime normalised to 8 KB) ===")
    capacities = (8 * 1024, 32 * 1024, 64 * 1024, 128 * 1024)
    header = f"{'bench':>7} " + " ".join(f"{c // 1024:>5}K" for c in capacities)
    print(header)
    for bench in BENCHMARKS:
        cycles = {}
        for capacity in capacities:
            cycles[capacity] = runner.run_one(
                "PC_X32", bench, plb_capacity_bytes=capacity
            ).cycles
        base = cycles[capacities[0]]
        row = " ".join(f"{cycles[c] / base:6.3f}" for c in capacities)
        print(f"{bench:>7} {row}")

    print("\n=== PLB hit rates (why the sweep behaves that way) ===")
    for bench in BENCHMARKS:
        result = runner.run_one("PC_X32", bench)
        print(f"{bench:>7}: PLB hit rate {result.plb_hit_rate:5.1%}, "
              f"MPKI {result.mpki:5.1f}, "
              f"PosMap share of traffic {result.posmap_byte_fraction:5.1%}")


if __name__ == "__main__":
    main()
