"""Figure 7 bench: KB per ORAM access at 4/16/64 GB."""

from conftest import run_once

from repro.eval import fig7
from repro.utils.units import GiB


def test_fig7_scalability(benchmark, bench_benchmarks, bench_misses):
    bars = run_once(
        benchmark, fig7.run, benchmarks=bench_benchmarks, misses=bench_misses
    )
    print()
    print("Fig 7 — KB/access, PosMap share in parens "
          "(paper: PC cuts 82%/38% at 4GB, 90%/57% at 64GB)")
    by_cap = {}
    for bar in bars:
        by_cap.setdefault(bar.capacity_bytes, []).append(bar)
    for cap, group in by_cap.items():
        row = "  ".join(
            f"{b.scheme}={b.total_kb:.1f}({100 * b.posmap_fraction:.0f}%)"
            for b in group
        )
        print(f"  {cap // GiB:>3}GB: {row}")
    lookup = {(b.scheme, b.capacity_bytes): b for b in bars}
    for cap in (4 * GiB, 64 * GiB):
        r, pc = lookup[("R_X8", cap)], lookup[("PC_X32", cap)]
        assert pc.total_kb < r.total_kb
        assert pc.posmap_kb < r.posmap_kb
    # The cut deepens with capacity (paper: 38% -> 57% total), because
    # R_X8 adds recursion levels while the PLB schemes stay flat. The
    # absolute cut depends on workload locality (the measured PosMap rates).
    cut4 = 1 - lookup[("PC_X32", 4 * GiB)].total_kb / lookup[("R_X8", 4 * GiB)].total_kb
    cut64 = (
        1 - lookup[("PC_X32", 64 * GiB)].total_kb / lookup[("R_X8", 64 * GiB)].total_kb
    )
    print(f"  PC_X32 total-traffic cut: {100 * cut4:.0f}% @4GB -> {100 * cut64:.0f}% @64GB")
    assert cut64 > cut4
    # R's PosMap fraction grows with capacity; PI_X8 is posmap-heavy.
    assert (
        lookup[("R_X8", 64 * GiB)].posmap_fraction
        > lookup[("R_X8", 4 * GiB)].posmap_fraction
    )
    assert (
        lookup[("PI_X8", 4 * GiB)].posmap_fraction
        > lookup[("PIC_X32", 4 * GiB)].posmap_fraction
    )
