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
from array import array
from itertools import repeat
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.adversary.tamper import StorageTamperer
from repro.errors import IntegrityViolationError
from repro.serve.server import _route_column
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.runner import SimulationRunner
from repro.utils.rng import DeterministicRng
from repro.workloads.spec import benchmark

from helpers import counting_events, strip_wall

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


def _native_routes(addrs, shards):
    """The fast tier's route column: one ``route_column`` call."""
    column = array("q", addrs)
    routes = array("q", bytes(8 * len(column)))
    load_native_core().route_column(column, routes, shards)
    return routes.tolist()


@pytest.fixture(scope="module", params=["reference", "native"])
def route_column(request):
    """Each tier's route column: ``_route_column`` and the core's."""
    if request.param == "reference":
        return _route_column
    if load_native_core() is None:
        pytest.skip(unavailable_reason())
    return _native_routes


class TestRouteColumn:
    @settings(max_examples=100, deadline=None)
    @given(addrs=ADDRS, shards=st.integers(min_value=1, max_value=7))
    def test_equals_the_crc_of_each_address(self, route_column, addrs, shards):
        expected = [crc_route(addr, shards) for addr in addrs]
        assert route_column(addrs, shards) == expected

    @pytest.mark.parametrize(
        "shards, routes", KNOWN_ROUTES, ids=[f"shards={n}" for n, _ in KNOWN_ROUTES]
    )
    def test_known_answers(self, route_column, shards, routes):
        assert route_column(KNOWN_ADDRS, shards) == routes

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
        for shard, rows in zip(service.shards, queues):
            shard.execute(rows, 0.0)
        admitted = sum(map(len, queues))
        service._account(admitted)
        assert service._logged == admitted  # not folded yet
        assert sum(t.completed for t in service.tenant_stats) == admitted
        assert service.report()["totals"]["requests"] == admitted

    def test_a_read_from_inside_an_epoch_folds_nothing(self, monkeypatch):
        """A read of the records from inside an epoch — here a wrapped
        ``run_batch`` — finds rows admitted but not yet executed; it sees
        the records as of the last fold, and the run ends as a plain one."""
        monkeypatch.setattr(server, "LOG_FOLD_LENGTH", 100)
        plain = scenario(requests=100).run()
        service = scenario(requests=100)
        seen = []
        for shard in service.shards:
            def batch(addrs, writes, run=shard.engine.run_batch):
                seen.append(sum(t.completed for t in service.tenant_stats))
                return run(addrs, writes)
            shard.engine.run_batch = batch
        service.run()
        assert seen == sorted(seen) and 0 < max(seen) < 400
        assert strip_wall(service.report()) == strip_wall(plain.report())


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
            stamp = clock.now  # the epoch's stamp is read just before admission
            queues = admit(offers)
            for own, rows in zip(stamps, queues):
                own += [stamp] * len(rows)
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


# -- the control plane's two tiers ------------------------------------------


#: Exact floats the fold must bucket and sum as ``record`` does: the
#: edges above as floats, a negative zero, a negative value and one past
#: the kernel's dense buckets.
FOLD_VALUES = st.one_of(
    st.sampled_from([float(value) for value in EDGES] + [-0.0, -3.5, 1e300]),
    st.floats(min_value=0.0, max_value=1e18, allow_nan=False),
)

STREAMS = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=63), st.booleans()),
        max_size=40,
    ),
    min_size=1,
    max_size=3,
)


def twins(events, scheme="PC_X32", region=64, **config):
    """Two services over the same streams: the first runs the control
    plane's kernels, the second its interpreted reference (the engines
    run the fast tier in both). Neither folds on its own: the test says
    when."""

    def build():
        tenants = [
            TenantSpec(name=f"t{i}", events=tuple(stream), region_blocks=region)
            for i, stream in enumerate(events)
        ]
        service = OramService(
            tenants, SimulationRunner(seed=2015, misses_per_benchmark=50),
            ServeConfig(scheme=scheme, record_accesses=True, **config),
        )
        service._fold_length = 1 << 60
        return service

    fast, reference = build(), build()
    reference._core = None
    return fast, reference


def admission_image(service):
    """Everything an epoch's admission and execution move: the log's ends,
    filled rows, latencies and wall count, the cursors, both ledgers (the
    batches, busy epochs and mapped counts among the shard's), the shard
    directory and every engine's totals."""
    count = len(service.shards)
    fills = service._ends[-count:] or [0] * count
    return (
        list(service._ends),
        service._unserved,
        service._in_flight,
        None if service._directory is None else service._directory.tolist(),
        [tuple(t.stats.ledger) for t in service._tenants],
        [
            (
                tuple(shard.stats.ledger),
                shard.log.tenants[:fill].tolist(),
                shard.log.addrs[:fill].tolist(),
                shard.log.writes[:fill].tolist(),
                repr(shard.log.latencies),
                len(shard.log.walls),
                repr(shard.engine.cycles),
                shard.engine.events,
            )
            for shard, fill in zip(service.shards, fills)
        ],
    )


def records(service):
    """Everything the fold moves, as ``repr`` shows it: types and the
    sign of zero included (1 and 1.0 differ, and so do 0.0 and -0.0)."""
    histograms = [
        repr((h.count, h.total, h.min, h.max, sorted(h._buckets.items())))
        for h in service._histograms
    ]
    shards = [
        (s.stats.access_digest, s.stats.requests, s.stats.busy_cycles,
         s.stats.accesses)
        for s in service.shards
    ]
    return histograms, shards


def epoch(service, burst):
    """One epoch as ``_epochs`` runs it: one ``ServeKernel.epoch`` call on
    the fast tier (over a kernel built at the first, as a run builds one
    when it starts), ``_admit_rows`` and ``execute`` per shard on the
    reference; then the account. Returns the rows admitted."""
    if service._core is None:
        admitted = service._run_epoch(burst)
    else:
        if service._kernel is None:
            service._kernel = service._serve_kernel()
        admitted = service._kernel_epoch(burst)
    service._account(admitted)
    service.epochs += 1
    return admitted


def fold_both(fast, reference):
    """Fold both logs over the same inputs: the wall readings, the one
    thing two runs do not share, are copied from the first."""
    for mine, theirs in zip(fast.shards, reference.shards):
        theirs.log.walls[:] = mine.log.walls
    fast._fold_log()
    reference._fold_log()
    assert records(fast) == records(reference)


class _SpyCore:
    """The core, recording what ``serve_fold`` returned."""

    def __init__(self, core):
        self.core, self.folds = core, []

    def __getattr__(self, name):
        return getattr(self.core, name)

    def serve_fold(self, *args):
        self.folds.append(self.core.serve_fold(*args))
        return self.folds[-1]


@pytest.mark.usefixtures("fast_tier")
class TestColumnsInLockstep:
    """``ServeKernel.epoch`` / ``serve_fold`` against ``_admit_rows`` +
    ``OramShard.execute`` / ``_fold_rows``, the interpreted reference,
    epoch by epoch."""

    @settings(max_examples=40, deadline=None)
    @given(
        events=STREAMS,
        shards=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(server.POLICIES),
        burst=st.integers(min_value=1, max_value=64),
        queue_capacity=st.integers(min_value=1, max_value=64),
        max_batch=st.integers(min_value=1, max_value=64),
        preload=st.booleans(),
        fold_every=st.integers(min_value=1, max_value=5),
    )
    # Full queues every epoch, under either policy, on a directory.
    @example(
        events=[[(addr % 64, addr % 3 == 0) for addr in range(40)]] * 3,
        shards=2, policy="shed", burst=9, queue_capacity=4, max_batch=3,
        preload=True, fold_every=2,
    )
    @example(
        events=[[(addr % 64, addr % 3 == 0) for addr in range(40)]] * 3,
        shards=3, policy="defer", burst=9, queue_capacity=4, max_batch=3,
        preload=False, fold_every=3,
    )
    def test_every_epoch_and_every_fold_agree(
        self, events, shards, policy, burst, queue_capacity, max_batch,
        preload, fold_every,
    ):
        fast, reference = twins(
            events, shards=shards, policy=policy, burst=burst,
            queue_capacity=queue_capacity, max_batch=max_batch,
        )
        spy = fast._core = _SpyCore(fast._core)
        if preload:  # a first touch in the directory before any epoch
            for service in (fast, reference):
                service.preload(0, 5, b"preloaded")
        epochs = 0
        while fast._unserved:
            assert epoch(fast, burst) == epoch(reference, burst)
            assert admission_image(fast) == admission_image(reference)
            epochs += 1
            if epochs % fold_every == 0:
                fold_both(fast, reference)
        assert not reference._unserved
        fold_both(fast, reference)
        assert None not in spy.folds

    def test_an_error_mid_epoch_leaves_both_tiers_alike(self):
        """PIC_X32 with every block of shard 1's tree tampered: an epoch
        raises in shard 1's queue after shard 0 ran its own, and each log,
        ledger, cursor, directory entry and engine total is where the
        reference leaves it."""
        streams = routed_streams(12, region=64)
        fast, reference = twins(
            [stream * 2 for stream in streams], scheme="PIC_X32", shards=2,
            burst=4, queue_capacity=8, max_batch=3,
        )
        for _ in range(3):  # the first pass over every address
            assert epoch(fast, 4) == epoch(reference, 4) == 8
        for service in (fast, reference):
            storage = service.shards[1].frontend.backend.storage
            tampered = 0
            for index in range(storage.config.num_buckets):
                records = [
                    (addr, leaf, bytes([data[0] ^ 1]) + data[1:], mac)
                    for addr, leaf, data, mac in storage.bucket_records(index)
                ]
                storage.replace_bucket_records(index, tuple(records))
                tampered += len(records)
            assert tampered
        for service in (fast, reference):
            with pytest.raises(IntegrityViolationError):
                while True:
                    epoch(service, 4)
        assert admission_image(fast) == admission_image(reference)
        zero, one = fast.shards
        assert fast._in_flight  # admitted, not accounted
        assert len(zero.log.latencies) == fast._ends[-2]
        assert len(one.log.latencies) < fast._ends[-1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shards=st.integers(min_value=1, max_value=3))
    def test_folds_agree_on_edge_values(self, data, shards):
        events = [[(addr % 64, addr % 3 == 0) for addr in range(30)]] * 2
        fast, reference = twins(
            events, shards=shards, burst=4, queue_capacity=5, max_batch=3,
        )
        spy = fast._core = _SpyCore(fast._core)
        for _ in range(6):
            epoch(fast, 4)
            epoch(reference, 4)
        for mine, theirs in zip(fast.shards, reference.shards):
            for column in ("latencies", "walls"):
                values = data.draw(st.lists(
                    FOLD_VALUES, min_size=len(getattr(mine.log, column)),
                    max_size=len(getattr(mine.log, column)),
                ))
                getattr(mine.log, column)[:] = values
                getattr(theirs.log, column)[:] = values
        fold_both(fast, reference)
        assert spy.folds and None not in spy.folds

    def test_an_int_latency_takes_the_reference_fold(self):
        events = [[(addr, False) for addr in range(20)]]
        fast, reference = twins(events, shards=2, burst=8, queue_capacity=8)
        spy = fast._core = _SpyCore(fast._core)
        for service in (fast, reference):
            epoch(service, 8)
            log = next(s.log for s in service.shards if s.log.latencies)
            log.latencies[0] = 7  # an int: the kernel sums exact floats only
        fold_both(fast, reference)
        assert spy.folds == [None]
        assert any(
            type(hist.total) is float and hist.count for hist in fast._histograms
        )

    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_the_kernels_wall_stamps_fold_as_the_references(self, mode, monkeypatch):
        """A scripted clock and no wrapped ``run_batch``: the kernel reads
        the clock itself, once per epoch and once per batch, and both tiers
        fold the same ``wall_us``."""
        batches = []
        run_batch = ReplayEngine.run_batch

        def counted(engine, addrs, writes):
            batches.append(len(addrs))
            return run_batch(engine, addrs, writes)

        monkeypatch.setattr(ReplayEngine, "run_batch", counted)

        def run(fast):
            clock = _ScriptedClock()
            monkeypatch.setattr(server, "time", clock)
            service = scenario(requests=60)
            if not fast:
                service._core = None
            return service.run(mode), clock.now

        fast, fast_reads = run(True)
        assert batches == []  # the kernel ran every batch
        reference, reference_reads = run(False)
        assert batches
        assert [t.wall_us.to_dict() for t in fast.tenant_stats] == [
            t.wall_us.to_dict() for t in reference.tenant_stats
        ]
        assert strip_wall(fast.report()) == strip_wall(reference.report())
        report = fast.report()
        total = sum(s["batches"] for s in report["shards"])
        assert total == len(batches)
        assert fast_reads == reference_reads <= report["epochs"] + total + 2


#: Each routed stream's region: tenant *i*'s addresses are offset by
#: ``i * REGION`` in the service's address space.
REGION = 2048


def routed_streams(requests: int, shards: int = 2, region: int = REGION):
    """One event stream per shard — tenant *i*'s global addresses all
    route to shard *i* — so every shard runs a batch every epoch."""
    streams = []
    for index in range(shards):
        offset = index * region
        addrs = [
            addr for addr in range(region)
            if _route_column([offset + addr], shards)[0] == index
        ][:requests]
        assert len(addrs) == requests
        streams.append([(addr, addr % 2 == 1) for addr in addrs])
    return streams


def python_calls(epochs: int, shards: int, burst: int = 2) -> tuple:
    """Python-level calls (and builtin calls made from Python) while a
    fast-tier service of ``shards`` shards, one tenant each, runs
    ``epochs`` epochs of ``burst`` requests per tenant; and the rows it
    served."""
    import gc
    import sys

    streams = routed_streams(burst * epochs, shards)
    service = OramService(
        [
            TenantSpec(name=f"t{i}", events=tuple(s), region_blocks=REGION)
            for i, s in enumerate(streams)
        ],
        SimulationRunner(seed=2015, misses_per_benchmark=50),
        ServeConfig(shards=shards, burst=burst, queue_capacity=64, max_batch=64),
    )
    calls = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    # Collection off: a collector callback some other test left behind
    # is not the service's Python.
    gc.disable()
    sys.setprofile(count)
    try:
        service.run("serial")
    finally:
        sys.setprofile(None)
        gc.enable()
    assert service.epochs == epochs
    return calls[0], service.report()["totals"]["requests"]


class TestPythonWorkPerEpoch:
    def test_eight_times_the_rows_costs_no_more_python_calls(
        self, fast_tier, monkeypatch
    ):
        # A scripted clock: both runs read the same wall times, so the
        # histograms they fold have the same wall buckets.
        monkeypatch.setattr(server, "time", _ScriptedClock())
        small, small_rows = python_calls(epochs=30, shards=2, burst=2)
        big, big_rows = python_calls(epochs=30, shards=2, burst=16)
        assert big_rows == 8 * small_rows == 8 * 120
        # A call per row would add 840; what differs is a few more
        # latency buckets to merge at the fold.
        assert abs(big - small) <= 16, (small, big)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_an_epoch_is_a_few_python_calls_whatever_the_shards(
        self, shards, fast_tier, monkeypatch
    ):
        """An epoch's Python is the loop's own few calls: the kernel runs
        every shard's batches, so twice the shards add none per epoch.
        (A clock that is a C callable, as ``time.perf_counter`` is: a
        Python one would be a call per batch. Standing still, it gives
        every run the same wall buckets.)"""
        monkeypatch.setattr(
            server, "time", SimpleNamespace(perf_counter=repeat(1.0).__next__)
        )
        short, _rows = python_calls(epochs=20, shards=shards)
        long, rows = python_calls(epochs=40, shards=shards)
        assert rows == 40 * 2 * shards
        per_epoch = (long - short) / 20
        # The generator's resume, _kernel_epoch, its len() and
        # kernel.epoch, _account, _check_progress.
        assert per_epoch == 6, (short, long)
