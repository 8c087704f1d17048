"""An epoch is columns: the column-wise pieces against their scalar definitions.

The serving loop admits, executes and accounts per-epoch columns, not
per-request objects. Each piece that replaced a per-request call is
pinned here to the call it replaced — ``record_many`` to ``record``, the
route column to the CRC of each address, the folded accounting log to
folding every epoch — and the property itself is pinned as a count: wall-clock
stamps per epoch and per batch, never per request, and no ``MissEvent``
between a trace's synthesis or the trace cache and a shard or a sweep
cell.
"""

import binascii
import struct

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.server as server
import repro.sim.replay as replay
from repro.proc.hierarchy import CacheHierarchy
from repro.serve import (
    LatencyHistogram,
    OramService,
    ServeConfig,
    TenantSpec,
    tenants_for,
)
from repro.serve.server import _route_column
from repro.sim.runner import SimulationRunner
from repro.utils.rng import DeterministicRng
from repro.workloads.spec import benchmark

from test_serve_lockstep import strip_wall
from test_trace_columns import counting_events

EDGES = [0, 0.5, 0.999, 1, 1.0, 2, 3, 4.0, 2**31 - 1, 2**31, 2.0**52, 1e18]

VALUES = st.lists(
    st.one_of(
        st.sampled_from(EDGES),
        st.integers(min_value=0, max_value=10**18),
        st.floats(min_value=0.0, max_value=1e18, allow_nan=False),
    ),
    max_size=60,
)


def image(hist: LatencyHistogram):
    return (hist.count, hist.total, hist.min, hist.max, dict(hist._buckets))


class TestRecordMany:
    @settings(max_examples=200, deadline=None)
    @given(before=VALUES, values=VALUES)
    def test_equals_recording_each_value(self, before, values):
        one, many = LatencyHistogram(), LatencyHistogram()
        for value in before:
            one.record(value)
            many.record(value)
        for value in values:
            one.record(value)
        many.record_many(values)
        assert image(many) == image(one)
        # Equal, and the same types: min/max of 1 and 1.0 keep the first.
        assert [type(x) for x in image(many)[:4]] == [
            type(x) for x in image(one)[:4]
        ]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.one_of(
            st.integers(min_value=-(10**18), max_value=10**18),
            st.floats(min_value=-1e18, max_value=1e18, allow_nan=False),
        ),
        max_size=40,
    ))
    def test_negative_values_equal_recording_each_value(self, values):
        # Negative values do not sort by bucket; record_many takes them
        # one by one and must still match ``record``.
        one, many = LatencyHistogram(), LatencyHistogram()
        for value in values:
            one.record(value)
        many.record_many(values)
        assert image(many) == image(one)

    def test_empty_column_is_a_no_op(self):
        hist = LatencyHistogram()
        hist.record_many([])
        assert image(hist) == (0, 0.0, None, None, {})
        assert hist.to_dict() == LatencyHistogram().to_dict()


ADDRS = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40
)


def crc_route(addr: int, shards: int) -> int:
    """The route's definition, spelled independently of the server."""
    return binascii.crc32(struct.pack("<q", addr)) % shards


#: (shards, the routes of KNOWN_ADDRS), recorded when numpy's
#: table-driven CRC and ``zlib.crc32`` both routed serving and agreed.
KNOWN_ADDRS = [0, 1, -1, 255, 4096, 12345, 0x123456789, 2**63 - 1, -(2**63)]
KNOWN_ROUTES = [
    (2, [1, 1, 0, 1, 1, 1, 1, 0, 1]),
    (3, [1, 1, 1, 1, 2, 0, 2, 2, 2]),
    (4, [1, 3, 0, 3, 3, 1, 1, 0, 1]),
    (7, [4, 5, 4, 0, 3, 2, 4, 2, 3]),
]


class TestRouteColumn:
    @settings(max_examples=100, deadline=None)
    @given(addrs=ADDRS, shards=st.integers(min_value=1, max_value=7))
    def test_equals_the_crc_of_each_address(self, addrs, shards):
        expected = [crc_route(addr, shards) for addr in addrs]
        assert _route_column(addrs, shards) == expected

    @pytest.mark.parametrize(
        "shards, routes", KNOWN_ROUTES, ids=[f"shards={n}" for n, _ in KNOWN_ROUTES]
    )
    def test_known_answers(self, shards, routes):
        assert _route_column(KNOWN_ADDRS, shards) == routes

    def test_each_request_is_served_on_its_routed_shard(self):
        service = scenario()
        routes = [r for t in service._tenants for r in t.routes]
        assert routes == [
            crc_route(addr, 2) for t in service._tenants for addr in t.addrs
        ]
        service.run("serial")
        assert [s.stats.requests for s in service.shards] == [
            routes.count(0), routes.count(1)
        ]


def scenario(requests: int = 200) -> OramService:
    """The benchmark's shape (perf/workloads.py), at a test's size."""
    tenants = [
        TenantSpec(name=f"t{i}:{bench}", benchmark=bench, requests=requests)
        for i, bench in enumerate(("hmmer", "gob", "hmmer+gob", "h264"))
    ]
    config = ServeConfig(
        scheme="PC_X32", shards=2, burst=8, max_batch=32, queue_capacity=12,
        policy="defer",
    )
    runner = SimulationRunner(seed=2015, misses_per_benchmark=requests)
    return OramService(tenants, runner, config)


class TestAccountingLog:
    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_folding_mid_run_equals_folding_every_epoch(self, mode, monkeypatch):
        folds = []
        fold = OramService._fold_log

        def counted(self):
            folds.append(self._logged)
            fold(self)

        monkeypatch.setattr(OramService, "_fold_log", counted)
        # 800 requests against a fold length of 100: several folds land
        # mid-run, between epochs that still have work queued behind them.
        monkeypatch.setattr(server, "LOG_FOLD_LENGTH", 100)
        coarse = scenario().run(mode)
        assert sum(1 for rows in folds[:-1] if rows >= 100) >= 7
        assert max(folds) < 100 + 2 * 12  # bounded: one epoch past the mark
        monkeypatch.setattr(server, "LOG_FOLD_LENGTH", 1)
        every_epoch = scenario().run(mode)
        assert strip_wall(coarse.report()) == strip_wall(every_epoch.report())
        for a, b in zip(coarse.tenant_stats, every_epoch.tenant_stats):
            assert a.wall_us.count == b.wall_us.count == 200

    def test_a_reader_never_sees_a_stale_histogram(self):
        service = scenario(requests=20)
        queues = service._admit([8, 8, 8, 8])
        for shard, queue in zip(service.shards, queues):
            shard.execute(queue)
        service._account(queues)
        admitted = sum(len(q) for q in queues)
        assert service._logged == admitted  # not folded yet
        assert sum(t.completed for t in service.tenant_stats) == admitted
        assert service.report()["totals"]["requests"] == admitted


class TestNoObjectPerServedRequest:
    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_wall_clock_is_read_per_epoch_and_batch(self, mode, monkeypatch):
        import time

        calls = []

        def counting():
            calls.append(1)
            return time.perf_counter()

        class _Time:
            perf_counter = staticmethod(counting)

        monkeypatch.setattr(server, "time", _Time)
        report = scenario().run(mode).report()
        batches = sum(s["batches"] for s in report["shards"])
        assert report["totals"]["requests"] == 800
        # One stamp when an epoch's admission starts, one when a batch
        # completes, two around the run; a stamp per request would add 800.
        assert 0 < len(calls) <= report["epochs"] + batches + 2

    def test_the_per_request_types_are_gone(self):
        for name in ("_Admitted", "Request"):
            assert not hasattr(server, name)
        assert not hasattr(replay, "_latency_gather")


class TestNoEventPerCachedRequest:
    """A trace stays columns from its synthesis or the trace cache to a
    shard's request stream or a cell on either tier: no ``MissEvent`` is
    built."""

    def test_building_a_service_over_a_warm_trace_cache(self):
        scenario()  # warms the trace cache
        with counting_events() as made:
            service = scenario()
        assert made == []
        assert sum(len(t.addrs) for t in service._tenants) == 800

    def test_a_fast_tier_cell_over_a_cached_trace(self, fast_tier, tmp_path):
        def runner():
            return SimulationRunner(
                seed=2015, misses_per_benchmark=400, cache_dir=tmp_path,
                result_cache_dir=None,
            )

        runner().trace("gob")  # warms the trace cache
        cold = runner()
        cells = cold.cells(["PC_X32"], ["gob"]) + cold.baseline_cells(["gob"])
        with counting_events() as made:
            results = [cold.run_cell(cell) for cell in cells]
        assert made == []
        assert [r.oram_accesses for r in results] == [cold.trace("gob").num_events] * 2

    def test_the_cache_hierarchy_records_columns(self):
        spec = benchmark("gob")
        refs = spec.refs(DeterministicRng(2015))
        with counting_events() as made:
            trace = CacheHierarchy().run(refs, name="gob", max_llc_misses=300)
        assert made == []
        assert trace.llc_misses == 300

    def test_a_reference_tier_cell_over_a_fresh_trace(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        runner = SimulationRunner(
            seed=2015, misses_per_benchmark=200, cache_dir=None,
            result_cache_dir=None,
        )
        cells = runner.cells(["PC_X32"], ["gob"]) + runner.baseline_cells(["gob"])
        with counting_events() as made:
            results = [runner.run_cell(cell) for cell in cells]
        assert made == []
        assert [r.oram_accesses for r in results] == [runner.trace("gob").num_events] * 2


class _ScriptedClock:
    """``perf_counter`` reading 1, 2, 3, ...: every reading is its own stamp."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestWallClock:
    """``wall_us`` is "the admitting epoch's stamp -> the batch's completion",
    rebuilt here from the outside: which epoch admitted each row, which
    batch ran it, and the clock readings at both."""

    @pytest.mark.parametrize("policy", ["defer", "shed"])
    def test_each_row_spans_its_admission_stamp_to_its_batch(self, policy, monkeypatch):
        clock = _ScriptedClock()
        monkeypatch.setattr(server, "time", clock)
        service = OramService(
            tenants_for(["hmmer", "gob"], 3, requests=60),
            SimulationRunner(seed=2015, misses_per_benchmark=60),
            ServeConfig(shards=2, burst=4, max_batch=3, queue_capacity=6,
                        policy=policy, record_accesses=True),
        )
        stamps = [[] for _ in service.shards]  # per shard, in admission order
        batches = [[] for _ in service.shards]  # (epoch, rows, end stamp)
        admit = service._admit

        def admitting(offers):
            stamp = clock.now + 1  # admission reads the clock first
            queues = admit(offers)
            for own, queue in zip(stamps, queues):
                own += [stamp] * len(queue.addrs)
            return queues

        monkeypatch.setattr(service, "_admit", admitting)
        for index, shard in enumerate(service.shards):
            def batch(addrs, writes, run=shard.engine.run_batch, index=index, **kw):
                latencies = run(addrs, writes, **kw)
                # The next reading is the batch's completion.
                batches[index].append((service.epochs, len(addrs), clock.now + 1))
                return latencies
            shard.engine.run_batch = batch
        service.run("serial")

        rows = []  # (epoch executed, shard, tenant, wall us) per row
        for index, shard in enumerate(service.shards):
            ends = [
                (epoch, end) for epoch, size, end in batches[index]
                for _ in range(size)
            ]
            tenants = [tenant for tenant, _addr, _write in shard.stats.accesses]
            assert len(ends) == len(tenants) == len(stamps[index])
            for (epoch, end), tenant, stamp in zip(ends, tenants, stamps[index]):
                rows.append((epoch, index, tenant, (end - stamp) * 1e6))
        rows.sort(key=lambda row: row[:2])  # accounting order; stable
        expected = [LatencyHistogram() for _ in service.tenant_stats]
        for _epoch, _shard, tenant, wall in rows:
            expected[tenant].record(wall)
        got = [t.wall_us for t in service.tenant_stats]
        assert [h.to_dict() for h in got] == [h.to_dict() for h in expected]
        if policy == "shed":  # shed rows never ran, so they have no wall time
            assert sum(t.shed for t in service.tenant_stats) > 0
