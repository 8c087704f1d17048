"""An epoch is columns: the column-wise pieces against their scalar definitions.

The serving loop admits, executes and accounts per-epoch columns, not
per-request objects. Each piece that replaced a per-request call is
pinned here to the call it replaced — ``record_many`` to ``record``, the
route column to ``_shard_index``, the folded accounting log to folding
every epoch — and the property itself is pinned as a count: wall-clock
stamps per epoch and per batch, never per request.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.server as server
import repro.sim.replay as replay
from repro.serve import LatencyHistogram, OramService, ServeConfig, TenantSpec
from repro.serve.server import _route_column, _shard_index
from repro.sim.runner import SimulationRunner

from test_serve_lockstep import strip_wall

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

    def test_empty_column_is_a_no_op(self):
        hist = LatencyHistogram()
        hist.record_many([])
        assert image(hist) == (0, 0.0, None, None, {})
        assert hist.to_dict() == LatencyHistogram().to_dict()


ADDRS = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40
)


class TestRouteColumn:
    @settings(max_examples=100, deadline=None)
    @given(addrs=ADDRS, shards=st.integers(min_value=1, max_value=7))
    def test_equals_the_scalar_route_with_and_without_numpy(self, addrs, shards):
        expected = [_shard_index(addr, shards) for addr in addrs]
        assert _route_column(addrs, shards) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(server, "_np", None)
            assert _route_column(addrs, shards) == expected

    def test_serving_without_numpy_routes_the_same(self, monkeypatch):
        with_numpy = scenario().run("serial")
        monkeypatch.setattr(server, "_np", None)
        without = scenario().run("serial")
        assert [s.access_digest for s in without.shard_stats] == [
            s.access_digest for s in with_numpy.shard_stats
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
            folds.append(len(self._log[0]))
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
        assert len(service._log[0]) == admitted  # not folded yet
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
