"""The serving layer's mechanics: routing, backpressure, accounting.

Lockstep-vs-replay and serial-vs-async determinism live in
``test_serve_lockstep.py``; this file covers everything else — tenant
specs, shard routing and directories, shed/defer policies, histogram
and report shapes, the serve branch of the sweep engine, and input
validation.
"""

import json

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.serve import (
    LatencyHistogram,
    OramService,
    ServeConfig,
    TenantSpec,
    tenants_for,
)
from repro.serve.workload import tenant_region_blocks, tenant_requests
from repro.sim.runner import SimulationRunner
from repro.workloads.spec import benchmark


def make_runner(seed: int = 5) -> SimulationRunner:
    return SimulationRunner(misses_per_benchmark=400, seed=seed)


class TestTenantSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            TenantSpec(name="t")
        with pytest.raises(ConfigurationError, match="exactly one"):
            TenantSpec(name="t", benchmark="hmmer", events=((0, False),))

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError):
            TenantSpec(name="t", benchmark="nonesuch")

    def test_accepts_interleaved_mixes(self):
        spec = TenantSpec(name="t", benchmark="hmmer+gob")
        assert spec.workload_label == "hmmer+gob"

    def test_tenants_for_round_robin(self):
        roster = tenants_for(["hmmer", "gob"], 5, requests=10)
        assert [t.benchmark for t in roster] == [
            "hmmer", "gob", "hmmer", "gob", "hmmer",
        ]
        assert roster[0].name == "t0:hmmer"
        assert all(t.requests == 10 for t in roster)
        with pytest.raises(ConfigurationError):
            tenants_for([], 2)
        with pytest.raises(ConfigurationError):
            tenants_for(["hmmer"], 0)

    def test_event_streams_and_region_override(self):
        spec = TenantSpec(
            name="t", events=((3, False), (1, True)), region_blocks=128
        )
        addrs, writes = tenant_requests(spec, make_runner(), lines_per_block=1)
        assert (addrs, writes) == ([3, 1], [False, True])
        assert tenant_region_blocks(spec, 64, addrs) == 128

    def test_requests_cap_applies_to_benchmark_streams(self):
        runner = make_runner()
        capped = TenantSpec(name="t", benchmark="hmmer", requests=7)
        addrs, writes = tenant_requests(capped, runner, lines_per_block=1)
        assert len(addrs) == len(writes) == 7


class _WideTraceRunner(SimulationRunner):
    """A runner whose traces reach one block past the benchmark's region."""

    def trace(self, name):
        trace = super().trace(name)
        lines = benchmark(name).wss_bytes // self.proc.line_bytes
        events = list(trace.events[:10]) + [MissEvent(2 * lines, False)]
        return MissTrace(
            trace.name, trace.instructions, trace.mem_refs, trace.l1_hits,
            trace.l2_hits, events=events,
        )


class TestPrivateRegions:
    """A stream that leaves its tenant's region is refused, not aliased."""

    def test_address_beyond_the_region_override_is_refused(self):
        # Unchecked, tenant b's block 1 is global block 5: tenant a's.
        tenants = [
            TenantSpec(
                name="a", events=((5, True), (1, False)), region_blocks=4
            ),
            TenantSpec(name="b", events=((1, True), (1, False))),
        ]
        with pytest.raises(
            ConfigurationError, match=r"tenant 'a': address 5 .* region of 4"
        ):
            OramService(tenants, runner=make_runner())

    def test_negative_address_is_refused(self):
        tenants = [
            TenantSpec(name="a", events=((2, True),)),
            TenantSpec(name="b", events=((-1, True), (3, False))),
        ]
        with pytest.raises(
            ConfigurationError, match=r"tenant 'b': address -1 .* region of 4"
        ):
            OramService(tenants, runner=make_runner())

    def test_benchmark_trace_beyond_its_working_set_is_refused(self):
        with pytest.raises(ConfigurationError, match="tenant 't0:hmmer'"):
            OramService(
                tenants_for(["hmmer"], 2, requests=11),
                runner=_WideTraceRunner(misses_per_benchmark=400, seed=5),
            )

    def test_the_last_block_of_a_region_is_served(self):
        service = OramService(
            [
                TenantSpec(name="a", events=((3, True),), region_blocks=4),
                TenantSpec(name="b", events=((0, True),)),
            ],
            runner=make_runner(),
            config=ServeConfig(record_accesses=True),
        )
        service.run("serial")
        assert service.shards[0].stats.accesses == [(0, 3, True), (1, 4, True)]


class TestServeConfig:
    @pytest.mark.parametrize(
        "field", ["shards", "burst", "max_batch", "queue_capacity"]
    )
    def test_rejects_non_positive_counts(self, field):
        with pytest.raises(ConfigurationError, match=field):
            ServeConfig(**{field: 0})

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="policy"):
            ServeConfig(policy="panic")

    def test_rejects_unknown_mode(self):
        service = OramService(
            tenants_for(["hmmer"], 1, requests=5), runner=make_runner()
        )
        with pytest.raises(ConfigurationError, match="mode"):
            service.run(mode="threads")


class TestShardRouting:
    def test_single_shard_uses_identity_mapping(self):
        service = OramService(
            tenants_for(["hmmer"], 2, requests=20), runner=make_runner()
        )
        shard = service.shards[0]
        assert shard.map_addr(17) == 17
        # Tenant regions are laid back to back, so tenant 1's offset is
        # tenant 0's region size.
        assert service._tenants[1].offset == service._tenants[0].region_blocks

    def test_multi_shard_directories_are_dense_and_disjoint(self):
        service = OramService(
            tenants_for(["hmmer", "gob"], 3, requests=60),
            runner=make_runner(),
            config=ServeConfig(shards=2),
        )
        service.run("serial")
        for shard in service.shards:
            locals_ = sorted(shard._directory.values())
            assert locals_ == list(range(len(locals_)))  # dense, first-touch
        globals_a = set(service.shards[0]._directory)
        globals_b = set(service.shards[1]._directory)
        assert not (globals_a & globals_b)  # hash-partitioned
        assert all(s.stats.requests > 0 for s in service.shards)

    def test_directory_overflow_raises(self):
        with pytest.raises(ReproError, match="directory overflow"):
            OramService(
                tenants_for(["hmmer"], 2, requests=200),
                runner=make_runner(),
                config=ServeConfig(shards=2, shard_blocks=2),
            )


class TestBackpressure:
    def test_shed_drops_and_counts(self):
        service = OramService(
            tenants_for(["hmmer"], 3, requests=50),
            runner=make_runner(),
            config=ServeConfig(burst=8, queue_capacity=4, policy="shed"),
        )
        service.run("serial")
        total_shed = sum(t.shed for t in service.tenant_stats)
        assert total_shed > 0
        assert sum(s.stats.shed for s in service.shards) == total_shed
        for tenant in service.tenant_stats:
            # Shed requests are gone for good; every issued request is
            # accounted one way or the other.
            assert tenant.completed + tenant.shed == tenant.issued == 50

    def test_defer_retries_and_completes_everything(self):
        service = OramService(
            tenants_for(["hmmer"], 3, requests=50),
            runner=make_runner(),
            config=ServeConfig(burst=8, queue_capacity=4, policy="defer"),
        )
        service.run("serial")
        assert sum(t.deferred for t in service.tenant_stats) > 0
        for tenant in service.tenant_stats:
            assert tenant.completed == tenant.issued == 50
            assert tenant.shed == 0

    def test_progress_guards_raise(self):
        service = OramService(
            tenants_for(["hmmer"], 1, requests=5), runner=make_runner()
        )
        with pytest.raises(ReproError, match="no progress"):
            service._check_progress(0)
        service.epochs = 2 * 5 + 16 + 1
        with pytest.raises(ReproError, match="epoch budget"):
            service._check_progress(1)

    def test_queue_depth_sampled_every_epoch(self):
        service = OramService(
            tenants_for(["hmmer"], 2, requests=30), runner=make_runner()
        )
        service.run("serial")
        stats = service.shards[0].stats
        assert stats.depth_samples == service.epochs
        assert 0 < stats.mean_depth <= stats.depth_max


class TestReporting:
    def test_report_is_json_safe_and_complete(self):
        service = OramService(
            tenants_for(["hmmer", "hmmer+gob"], 2, requests=40),
            runner=make_runner(),
            config=ServeConfig(shards=2),
        )
        service.run("async")
        report = json.loads(json.dumps(service.report()))
        assert report["kind"] == "serve"
        assert report["scheme"] == "PC_X32"
        assert len(report["tenants"]) == 2
        assert len(report["shards"]) == 2
        assert report["totals"]["requests"] == 80
        assert report["totals"]["cycles"] > 0
        for tenant in report["tenants"]:
            for hist in ("service_cycles", "latency_cycles", "wall_us"):
                assert tenant[hist]["count"] == tenant["completed"]
                assert tenant[hist]["p95_bound"] >= tenant[hist]["p50_bound"]

    def test_record_accesses_keeps_full_sequence(self):
        service = OramService(
            tenants_for(["hmmer"], 1, requests=25),
            runner=make_runner(),
            config=ServeConfig(record_accesses=True),
        )
        service.run("serial")
        accesses = service.shards[0].stats.accesses
        assert len(accesses) == 25
        assert all(tenant == 0 for tenant, _addr, _write in accesses)


class TestPreload:
    def test_preload_rejected_after_serving_starts(self):
        service = OramService(
            tenants_for(["hmmer"], 1, requests=10), runner=make_runner()
        )
        service.run("serial")
        with pytest.raises(ReproError, match="before serving"):
            service.preload(0, 0, b"late")

    def test_preload_is_outside_accounting(self):
        service = OramService(
            [TenantSpec(name="t", events=((0, False),) * 4, region_blocks=16)],
            runner=make_runner(),
        )
        service.preload(0, 0, b"hello")
        service.run("serial")
        assert service.tenant_stats[0].completed == 4
        assert service.shards[0].stats.requests == 4

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize(
        "tenant_index, addr",
        [(-1, 0), (2, 0), (0, -1), (0, 4)],
        ids=["tenant-below", "tenant-above", "block-below", "block-above"],
    )
    def test_preload_stays_inside_the_tenants_region(
        self, shards, tenant_index, addr
    ):
        service = OramService(
            [
                TenantSpec(name=name, events=((0, False), (3, True)), region_blocks=4)
                for name in ("a", "b")
            ],
            runner=make_runner(),
            config=ServeConfig(shards=shards),
        )
        with pytest.raises(ConfigurationError, match="preload"):
            service.preload(tenant_index, addr, b"stray")


class TestLatencyHistogram:
    def test_buckets_and_quantiles(self):
        hist = LatencyHistogram()
        for value in (1.0, 2.0, 3.0, 100.0):
            hist.record(value)
        image = hist.to_dict()
        assert image["count"] == 4
        assert image["min"] == 1.0 and image["max"] == 100.0
        assert image["mean"] == pytest.approx(26.5)
        assert hist.quantile_bound(0.5) <= hist.quantile_bound(0.99)
        assert hist.quantile_bound(0.99) == 128.0  # 100 rounds up to 2^7
        assert sum(image["buckets"].values()) == 4

    def test_empty_histogram_is_safe(self):
        hist = LatencyHistogram()
        assert hist.mean == 0.0
        assert hist.quantile_bound(0.95) == 0.0
        assert hist.to_dict()["count"] == 0


class TestServeSweepAxes:
    def test_tenants_shards_grid_runs_serve_cells(self):
        from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid=["tenants=1,2", "shards=1,2"],
            benchmarks=["hmmer"],
        )
        report = run_sweep(sweep, make_runner())
        assert len(report["cells"]) == 4
        assert report["baselines"] == {}
        for cell in report["cells"]:
            assert cell["serve"]["kind"] == "serve"
            assert cell["result"]["cycles"] > 0
        table = sweep_table(report)
        assert "tenants=2" in table and "shards=2" in table
        json.dumps(report)  # the report artifact stays JSON-safe

    def test_serve_axes_reject_bench_axis_mix(self):
        from repro.errors import SpecError
        from repro.sim.sweep import SweepSpec

        with pytest.raises(SpecError, match="cannot be combined"):
            SweepSpec.from_args(
                schemes=["PC_X32"], grid=["tenants=2", "misses=500"]
            )
