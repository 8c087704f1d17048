"""The serving layer's mechanics: routing, backpressure, accounting.

Lockstep-vs-replay and serial-vs-async determinism live in
``test_serve_lockstep.py``; this file covers everything else — tenant
specs, shard routing and directories, shed/defer policies and what
admission promises under either, histogram and report shapes, and
input validation.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

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

from test_serve_lockstep import strip_wall


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
    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "field", ["shards", "burst", "max_batch", "queue_capacity"]
    )
    def test_rejects_non_positive_counts(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ServeConfig(**{field: value})

    def test_rejects_a_one_block_shard(self):
        with pytest.raises(ConfigurationError, match="shard_blocks"):
            ServeConfig(shard_blocks=1)
        assert ServeConfig(shard_blocks=2).shard_blocks == 2

    @pytest.mark.parametrize("policy", ["panic", "throttle"])
    def test_rejects_unknown_policy(self, policy):
        with pytest.raises(ConfigurationError, match="policy"):
            ServeConfig(policy=policy)

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


#: Up to four tenants' event streams: short, over a small region each.
STREAMS = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
        max_size=40,
    ),
    min_size=1,
    max_size=4,
)


def _is_subsequence(part, whole) -> bool:
    rest = iter(whole)
    return all(item in rest for item in part)


class TestAdmissionProperties:
    """What FIFO admission promises, over any shape and either policy."""

    @settings(max_examples=25, deadline=None)
    @given(
        streams=STREAMS,
        shards=st.integers(min_value=1, max_value=3),
        burst=st.integers(min_value=1, max_value=64),
        max_batch=st.integers(min_value=1, max_value=64),
        queue_capacity=st.integers(min_value=1, max_value=64),
        policy=st.sampled_from(["defer", "shed"]),
    )
    def test_every_request_is_accounted_in_stream_order(
        self, streams, shards, burst, max_batch, queue_capacity, policy
    ):
        def service():
            return OramService(
                [
                    TenantSpec(name=f"t{i}", events=tuple(events))
                    for i, events in enumerate(streams)
                ],
                runner=SimulationRunner(misses_per_benchmark=100, seed=23),
                config=ServeConfig(
                    scheme="P_X16", shards=shards, burst=burst,
                    max_batch=max_batch, queue_capacity=queue_capacity,
                    policy=policy, record_accesses=True,
                ),
            )

        serial, concurrent = service().run("serial"), service().run("async")
        assert strip_wall(serial.report()) == strip_wall(concurrent.report())
        for events, tenant in zip(streams, serial.tenant_stats):
            assert tenant.completed + tenant.shed == tenant.issued == len(events)
            if policy == "defer":
                assert tenant.shed == 0
        for shard in serial.shards:
            to_global = {local: addr for addr, local in shard._directory.items()}
            for index, state in enumerate(serial._tenants):
                routed = [
                    (addr, write)
                    for addr, write, route in zip(state.addrs, state.writes, state.routes)
                    if route == shard.index
                ]
                served = [
                    (to_global.get(local, local), write)
                    for tenant, local, write in shard.stats.accesses
                    if tenant == index
                ]
                if policy == "defer":
                    assert served == routed
                else:
                    assert _is_subsequence(served, routed)


class TestReporting:
    def test_report_is_json_safe_and_complete(self):
        service = OramService(
            tenants_for(["hmmer", "hmmer+gob"], 2, requests=40),
            runner=make_runner(),
            config=ServeConfig(shards=2),
        )
        service.run("async")
        report = json.loads(json.dumps(service.report()))
        # The exact schema: a key without a producer cannot come back.
        assert set(report) == {
            "kind", "scheme", "seed", "config", "epochs", "wall_seconds",
            "tenants", "shards", "totals",
        }
        assert set(report["config"]) == {
            "scheme", "shards", "burst", "max_batch", "queue_capacity",
            "policy", "shard_blocks",
        }
        assert set(report["totals"]) == {
            "requests", "issued", "shed", "deferred", "cycles",
        }
        histogram = {
            "count", "mean", "min", "max", "p50_bound", "p95_bound",
            "p99_bound", "buckets",
        }
        for tenant in report["tenants"]:
            assert set(tenant) == {
                "name", "benchmark", "issued", "completed", "shed", "deferred",
                "cycles", "service_cycles", "latency_cycles", "wall_us",
            }
            for hist in ("service_cycles", "latency_cycles", "wall_us"):
                assert set(tenant[hist]) == histogram
        for shard in report["shards"]:
            assert set(shard) == {
                "shard", "requests", "batches", "epochs_busy", "shed",
                "deferred", "busy_cycles", "queue_depth", "access_digest",
            }
            assert set(shard["queue_depth"]) == {"samples", "mean", "max"}
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

    def test_preload_longer_than_a_block_is_refused_not_truncated(self):
        service = OramService(
            [TenantSpec(name="t", events=((0, False),) * 4, region_blocks=16)],
            runner=make_runner(),
        )
        assert service.block_bytes == 64
        with pytest.raises(ConfigurationError, match="64-byte block"):
            service.preload(0, 1, bytes(68))


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

