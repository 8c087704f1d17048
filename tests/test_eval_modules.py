"""Smoke tests: every eval module runs and reproduces its headline shape."""

import pytest

from repro.eval import compression, fig3, fig5, fig6, fig7, fig9, hashbw, table2, table3


class TestFig3:
    def test_series_present(self):
        data = fig3.run(log2_capacities=(30, 32, 34))
        assert set(data) == {"b64_pm8", "b128_pm8", "b64_pm256", "b128_pm256"}

    def test_headline_points(self):
        data = fig3.run(log2_capacities=(32,))
        assert dict(data["b64_pm8"])[32] == pytest.approx(0.56, abs=0.03)
        assert dict(data["b128_pm8"])[32] == pytest.approx(0.39, abs=0.04)

    def test_main_prints(self, capsys):
        fig3.main()
        assert "Figure 3" in capsys.readouterr().out


class TestTable2:
    def test_within_10_percent_of_paper(self):
        for channels, cycles in table2.run().items():
            assert cycles == pytest.approx(table2.PAPER_LATENCY[channels], rel=0.10)

    def test_insecure_latency(self):
        assert table2.insecure_latency() == pytest.approx(58, rel=0.10)

    def test_main_prints(self, capsys):
        table2.main()
        assert "Table 2" in capsys.readouterr().out


class TestTable3:
    def test_totals(self):
        results = table3.run()
        for ch, breakdown in results.items():
            assert breakdown.total == pytest.approx(
                table3.PAPER_TABLE3[ch][8], rel=0.05
            )

    def test_layout(self):
        assert table3.layout_total() == pytest.approx(0.47, abs=0.03)

    def test_main_prints(self, capsys):
        table3.main()
        assert "Table 3" in capsys.readouterr().out


class TestHashBw:
    def test_analytic(self):
        factors = hashbw.analytic((16, 32))
        assert factors[16] == 68.0
        assert factors[32] == 132.0

    def test_measured_reduction_large(self):
        merkle, pmmac = hashbw.measured(num_blocks=2**8, accesses=100)
        assert merkle / pmmac > 20

    def test_main_prints(self, capsys):
        hashbw.main()
        assert "68x" in capsys.readouterr().out


class TestCompression:
    def test_facts(self):
        facts = compression.run()
        assert facts.uncompressed_fanout == 16
        assert facts.compressed_fanout == 32
        assert facts.worst_case_remap_overhead == pytest.approx(0.002, abs=2e-4)

    def test_measured_overhead(self):
        rate = compression.measured_remap_overhead(beta=3, accesses=300)
        # Hammering one block: (X-1)/2^beta relocations per access.
        assert rate == pytest.approx(31 / 8, rel=0.25)

    def test_main_prints(self, capsys):
        compression.main()
        assert "compressed PosMap" in capsys.readouterr().out


class TestSimulationFigures:
    """Scaled-down smoke runs of the trace-driven figures."""

    def test_fig5_sweep_improves_or_holds(self):
        table = fig5.run(benchmarks=["gob"], misses=400,
                         capacities=(8 * 1024, 64 * 1024))
        row = table["gob"]
        assert row[8 * 1024] == 1.0
        assert row[64 * 1024] <= 1.02  # bigger PLB never hurts much

    def test_fig6_ordering(self):
        table = fig6.run(benchmarks=["gob", "hmmer"], misses=400)
        assert table["PC_X32"]["geomean"] < table["R_X8"]["geomean"]
        assert table["PIC_X32"]["geomean"] >= table["PC_X32"]["geomean"]

    def test_fig7_shapes(self):
        bars = fig7.run(misses=300, benchmarks=["gob"])
        by_key = {(b.scheme, b.capacity_bytes): b for b in bars}
        cap4 = 4 * 2**30
        cap64 = 64 * 2**30
        r4, pc4 = by_key[("R_X8", cap4)], by_key[("PC_X32", cap4)]
        assert pc4.total_kb < r4.total_kb
        assert pc4.posmap_fraction < r4.posmap_fraction
        # R's PosMap share grows with capacity; PC stays nearly flat.
        r64, pc64 = by_key[("R_X8", cap64)], by_key[("PC_X32", cap64)]
        assert r64.posmap_fraction > r4.posmap_fraction
        assert abs(pc64.posmap_fraction - pc4.posmap_fraction) < 0.12

    def test_fig9_speedup_large(self):
        speedups = fig9.run(benchmarks=["gob"], misses=300)
        assert speedups["gob"] > 3.0

    def test_fig9_byte_ratio(self):
        assert fig9.byte_movement_ratio() == pytest.approx(0.021, abs=0.003)
