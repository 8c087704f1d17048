"""Timing model, replay engine and runner integration."""

import pytest

from repro.config import FrontendTimings, OramConfig, ProcessorConfig
from repro.dram.config import DramConfig
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.eval import fig6
from repro.sim.metrics import SimResult, format_table
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep
from repro.sim.system import base_cycles, insecure_cycles, replay_trace
from repro.sim.timing import OramTimingModel


def tiny_trace(n_events=20, name="t"):
    trace = MissTrace(name=name, instructions=10_000, mem_refs=3000, l1_hits=2800, l2_hits=150)
    trace.events = [MissEvent(i * 7 % 256, i % 3 == 0) for i in range(n_events)]
    return trace


class TestTimingModel:
    def test_latency_composition(self):
        model = OramTimingModel(tree_latency_cycles=1000.0)
        t = FrontendTimings()
        assert model.miss_latency(1) == t.frontend_latency + 1000 + t.backend_latency
        assert model.miss_latency(3) == t.frontend_latency + 3 * (1000 + t.backend_latency)

    def test_pmmac_adds_sha3(self):
        base = OramTimingModel(1000.0, pmmac=False).miss_latency(1)
        with_mac = OramTimingModel(1000.0, pmmac=True).miss_latency(1)
        assert with_mac == base + FrontendTimings().sha3_latency

    def test_for_config_uses_dram(self):
        cfg = OramConfig(num_blocks=2**20, block_bytes=64)
        one = OramTimingModel.for_config(cfg, DramConfig(channels=1))
        four = OramTimingModel.for_config(cfg, DramConfig(channels=4))
        assert one.tree_latency_cycles > four.tree_latency_cycles

    def test_for_recursive_averages(self):
        cfgs = [OramConfig(num_blocks=2**16), OramConfig(num_blocks=2**10)]
        model = OramTimingModel.for_recursive(cfgs)
        each = [
            OramTimingModel.for_config(c).tree_latency_cycles for c in cfgs
        ]
        assert model.tree_latency_cycles == pytest.approx(sum(each) / 2, rel=0.05)


class TestReplay:
    def test_insecure_cycles(self):
        trace = tiny_trace()
        result = insecure_cycles(trace)
        proc = ProcessorConfig()
        assert result.cycles == base_cycles(trace, proc) + len(trace.events) * 58
        assert result.scheme == "insecure"

    def test_replay_counts_events(self):
        from repro.presets import build_frontend
        from repro.utils.rng import DeterministicRng

        trace = tiny_trace()
        frontend = build_frontend(
            "PC_X32", num_blocks=2**10, rng=DeterministicRng(1), onchip_entries=16
        )
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        result = replay_trace(frontend, trace, timing, scheme="PC_X32")
        assert result.oram_accesses == len(trace.events)
        assert result.cycles > insecure_cycles(trace).cycles
        assert result.tree_accesses >= result.oram_accesses

    def test_slowdown_vs(self):
        a = SimResult("b", "x", cycles=200.0, instructions=1, llc_misses=1,
                      oram_accesses=1, tree_accesses=1)
        b = SimResult("b", "insecure", cycles=100.0, instructions=1, llc_misses=1,
                      oram_accesses=1, tree_accesses=0)
        assert a.slowdown_vs(b) == 2.0

    def test_bytes_properties(self):
        r = SimResult("b", "x", 1.0, 1, 1, oram_accesses=4, tree_accesses=8,
                      data_bytes=3000, posmap_bytes=1000)
        assert r.total_bytes == 4000
        assert r.bytes_per_access == 1000.0
        assert r.posmap_byte_fraction == 0.25

    def test_block_size_probe_single_config(self):
        """Frontends exposing `config` are probed without touching `configs`."""
        from repro.presets import build_frontend
        from repro.utils.rng import DeterministicRng

        frontend = build_frontend(
            "PC_X32", num_blocks=2**10, rng=DeterministicRng(1), onchip_entries=16
        )
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        result = replay_trace(frontend, tiny_trace(), timing)
        assert result.oram_accesses > 0

    def test_block_size_probe_recursive_configs(self):
        from repro.presets import build_frontend
        from repro.utils.rng import DeterministicRng

        frontend = build_frontend(
            "R_X8", num_blocks=2**10, rng=DeterministicRng(1), onchip_entries=16
        )
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        result = replay_trace(frontend, tiny_trace(), timing)
        assert result.oram_accesses > 0

    def test_block_size_probe_rejects_configless_frontend(self):
        class NoConfig:
            pass

        timing = OramTimingModel(tree_latency_cycles=1000.0)
        with pytest.raises(TypeError, match="neither 'config' nor 'configs'"):
            replay_trace(NoConfig(), tiny_trace(), timing)

    def test_block_size_probe_rejects_empty_configs(self):
        class EmptyConfigs:
            configs = []

        timing = OramTimingModel(tree_latency_cycles=1000.0)
        with pytest.raises(TypeError, match="neither 'config' nor 'configs'"):
            replay_trace(EmptyConfigs(), tiny_trace(), timing)


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return SimulationRunner(misses_per_benchmark=300)

    def test_trace_cached(self, runner):
        t1 = runner.trace("gob")
        t2 = runner.trace("gob")
        assert t1 is t2

    def test_trace_respects_budget(self, runner):
        assert runner.trace("gob").llc_misses <= 300

    def test_run_one_schemes(self, runner):
        r = runner.run_one("PC_X32", "gob")
        assert r.scheme == "PC_X32"
        assert r.oram_accesses > 0

    def test_recursive_runs(self, runner):
        r = runner.run_one("R_X8", "gob")
        assert r.posmap_bytes > 0

    def test_slowdown_ordering(self, runner):
        """PC beats R on a cache-friendly benchmark, both lose to insecure."""
        (base,) = runner.execute(runner.baseline_cells(["gob"])).values()
        r = runner.run_one("R_X8", "gob")
        pc = runner.run_one("PC_X32", "gob")
        assert r.cycles > base.cycles
        assert pc.cycles > base.cycles
        assert pc.cycles < r.cycles

    def test_sweep_and_table(self, runner):
        report = run_sweep(SweepSpec.from_args(["PC_X32"], benchmarks=["gob"]), runner)
        table = fig6.table_from_report(report)
        assert "geomean" in table["PC_X32"]
        text = format_table(table, ["gob"], title="t")
        assert "PC_X32" in text and "gob" in text
