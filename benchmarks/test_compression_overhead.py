"""§5.3 bench: compressed PosMap geometry and group-remap overhead."""

from conftest import run_once

from repro.eval import compression


def test_compression_geometry(benchmark, check):
    check("compression", compression.headline(run_once(benchmark, compression.run)))


def test_group_remap_overhead_measured(benchmark):
    beta = 4
    rate = run_once(benchmark, compression.measured_remap_overhead, beta=beta)
    expected = 31 / (1 << beta)
    assert abs(rate - expected) / expected < 0.25
