"""Serving is replay: the lockstep and determinism guarantees.

The tentpole property of the serving layer: because serving goes through
the same :class:`~repro.sim.engine.ReplayEngine` core as offline replay,
a single-tenant / single-shard serve of a benchmark trace produces a
``SimResult`` **bit-identical** to :func:`~repro.sim.system.replay_trace`
— cycles, every counter, and the SHA-256 digest of the post-run tree.
And because admission, execution and accounting are deterministic steps
of one epoch loop, ``run("serial")``, ``run("async")`` and an awaited
``serve()`` produce identical per-tenant cycle totals and identical
per-shard access sequences, run after run.
"""

import asyncio
import contextlib
import hashlib
import json

import pytest

from repro.faults import injected, parse
from repro.sim import native as native_pkg
from repro.sim.runner import SimulationRunner
from repro.sim.system import replay_trace
from repro.serve import (
    OramService,
    ServeConfig,
    TenantSpec,
    serve_replay_equivalent,
    tenants_for,
)
from repro.storage.snapshot import tree_digest


def make_runner(seed: int = 11) -> SimulationRunner:
    return SimulationRunner(misses_per_benchmark=500, seed=seed)


def frontend_digests(frontend):
    backends = getattr(frontend, "backends", None)
    if backends is not None:
        return [tree_digest(b.storage) for b in backends]
    return [tree_digest(frontend.backend.storage)]


class TestLockstepWithReplay:
    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_single_tenant_single_shard_is_bit_identical(self, mode):
        runner = make_runner()
        trace = runner.trace("hmmer")
        frontend = runner.build("PC_X32", "hmmer")
        expected = replay_trace(
            frontend, trace, runner.timing_for(frontend), proc=runner.proc,
            scheme="PC_X32",
        )
        config = ServeConfig(scheme="PC_X32", shards=1, burst=5, max_batch=13)
        service = OramService(
            tenants_for(["hmmer"], 1), runner=runner, config=config
        )
        shard = service.shards[0]
        from repro.sim.system import base_cycles

        shard.engine.cycles = base_cycles(trace, runner.proc)
        service.run(mode=mode)
        result = shard.engine.result(trace, scheme="PC_X32")
        assert result == expected  # every SimResult field, cycles included
        # The complete external memory state matches too.
        assert frontend_digests(shard.frontend) == frontend_digests(frontend)

    def test_serve_replay_equivalent_helper(self):
        runner = make_runner()
        trace = runner.trace("gob")
        frontend = runner.build("PC_X32", "gob")
        expected = replay_trace(
            frontend, trace, runner.timing_for(frontend), proc=runner.proc,
            scheme="PC_X32",
        )
        got = serve_replay_equivalent(
            trace, "PC_X32", runner, burst=3, max_batch=7
        )
        assert got == expected

    def test_helper_agrees_across_admission_shapes(self):
        # Batching/admission knobs are performance-only: any burst and
        # max_batch produce the same simulated result.
        runner = make_runner()
        trace = runner.trace("hmmer")
        results = [
            serve_replay_equivalent(
                trace, "PC_X32", runner, burst=burst, max_batch=max_batch
            )
            for burst, max_batch in ((1, 1), (4, 2), (64, 512))
        ]
        assert results[0] == results[1] == results[2]


def scenario(seed: int = 13) -> OramService:
    return OramService(
        tenants_for(["hmmer", "gob", "hmmer+gob"], 4, requests=120),
        runner=make_runner(seed),
        config=ServeConfig(
            scheme="PC_X32", shards=2, burst=3, max_batch=8,
            queue_capacity=5, policy="defer",
        ),
    )


def run_scenario(mode: str, seed: int = 13) -> OramService:
    return scenario(seed).run(mode)


def simulated_image(service: OramService):
    """Everything simulated in a report (wall-clock observations excluded)."""
    return (
        [
            (t.name, t.issued, t.completed, t.shed, t.deferred, t.cycles)
            for t in service.tenant_stats
        ],
        [
            (s.index, s.requests, s.batches, s.busy_cycles, s.access_digest)
            for s in service.shard_stats
        ],
        service.epochs,
    )


class TestConcurrentDeterminism:
    def test_serial_and_async_identical(self):
        assert simulated_image(run_scenario("serial")) == simulated_image(
            run_scenario("async")
        )

    def test_same_seed_reproduces_concurrent_runs(self):
        first = simulated_image(run_scenario("async"))
        second = simulated_image(run_scenario("async"))
        assert first == second

    def test_different_seed_changes_outcomes(self):
        # The seed must actually matter, or the determinism assertions
        # above would be vacuous.
        a = run_scenario("serial", seed=13)
        b = run_scenario("serial", seed=14)
        assert [s.access_digest for s in a.shard_stats] != [
            s.access_digest for s in b.shard_stats
        ]

    def test_latency_histograms_match_across_drivers(self):
        serial, concurrent = run_scenario("serial"), run_scenario("async")
        for a, b in zip(serial.tenant_stats, concurrent.tenant_stats):
            assert a.service_cycles.to_dict() == b.service_cycles.to_dict()
            assert a.latency_cycles.to_dict() == b.latency_cycles.to_dict()

    def test_serve_is_awaitable_beside_other_tasks(self):
        service = scenario()
        ticks = []

        async def ticker():
            while True:
                ticks.append(service.epochs)
                await asyncio.sleep(0)

        async def application():
            task = asyncio.ensure_future(ticker())
            try:
                return await service.serve()
            finally:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task

        served = asyncio.run(application())
        # The ticker ran once between every two epochs, blocked by none.
        assert ticks == list(range(1, service.epochs + 1))
        assert strip_wall(served.report()) == strip_wall(
            run_scenario("serial").report()
        )


# -- goldens -------------------------------------------------------------------
#
# Every test above compares two runs of the same code (one run() mode
# with the other, serve with replay), so a change that moves both together
# passes. These digests were recorded at the commit before the serving
# loop was rewritten over per-epoch columns (PR 23) and pin the simulated
# outcome itself: the report minus its host-wall fields, and each
# shard's access digest, on both run() modes and both tiers, the
# reference one reached both ways.


def _slo_tenants():
    # Different budgets per tenant make EDF reorder across tenants, the
    # quotas pause them and the priorities order the degradation ladder.
    rows = (
        ("hmmer", 6000.0, 5.0, 0),
        ("gob", 250000.0, None, 1),
        ("hmmer+gob", 40000.0, 6.0, 1),
        ("gob", None, 4.0, 2),
        ("hmmer", 90000.0, None, 0),
    )
    return [
        TenantSpec(
            name=f"t{i}:{bench}", benchmark=bench, requests=110,
            deadline_cycles=deadline, quota=quota, priority=priority,
        )
        for i, (bench, deadline, quota, priority) in enumerate(rows)
    ]


#: name -> (tenants, config, fault plan or None)
SCENARIOS = {
    # The benchmark's full shape and runner (perf/workloads.py,
    # serve_mixed_tenants at seed 2015): 8 000 rows, so the accounting
    # log folds mid-run.
    "bench_shape": (
        lambda: tenants_for(
            ["hmmer", "gob", "hmmer+gob", "h264"], 4, requests=2000
        ),
        ServeConfig(
            scheme="PC_X32", shards=2, burst=8, max_batch=32,
            queue_capacity=12, policy="defer",
        ),
        None,
    ),
    # The benchmark's shape (perf/workloads.py, serve_mixed_tenants).
    "defer_mix": (
        lambda: tenants_for(["hmmer", "gob", "hmmer+gob", "h264"], 4, requests=150),
        ServeConfig(
            scheme="PC_X32", shards=2, burst=8, max_batch=32,
            queue_capacity=12, policy="defer",
        ),
        None,
    ),
    # Several chunks per epoch, EDF reordering, cooldowns, level changes.
    "throttle_slo": (
        _slo_tenants,
        ServeConfig(
            scheme="PC_X32", shards=3, burst=8, max_batch=3,
            queue_capacity=7, policy="throttle", throttle_epochs=2,
            degrade_after=2, recover_after=3,
        ),
        None,
    ),
    "shed_deadlines_pic": (
        lambda: tenants_for(
            ["hmmer", "gob"], 3, requests=120, deadline_cycles=3000.0
        ),
        ServeConfig(
            scheme="PIC_X32", shards=2, burst=6, max_batch=8,
            queue_capacity=4, policy="shed",
        ),
        None,
    ),
    # Two breakers open; the parked backlog fills the queue (capacity 6)
    # before it drains, so the stall also applies backpressure.
    "stall_backlog": (
        lambda: tenants_for(["hmmer", "gob", "hmmer+gob"], 3, requests=100),
        ServeConfig(
            scheme="PC_X32", shards=2, burst=4, max_batch=4,
            queue_capacity=6, policy="defer",
        ),
        "serve.shard.stall@1#2|epochs=3;serve.shard.stall@0#7|epochs=2",
    ),
    "fifo_deadlines": (
        _slo_tenants,
        ServeConfig(
            scheme="PC_X32", shards=2, burst=5, max_batch=16,
            queue_capacity=9, policy="defer", admission="fifo",
        ),
        None,
    ),
    "one_shard": (
        lambda: tenants_for(["gob", "hmmer"], 3, requests=120),
        ServeConfig(
            scheme="PC_X32", shards=1, burst=6, max_batch=5,
            queue_capacity=10, policy="defer",
        ),
        None,
    ),
}

#: Scenarios served by another runner than ``make_runner()``.
RUNNERS = {
    "bench_shape": lambda: SimulationRunner(
        misses_per_benchmark=2000, seed=2015
    ),
}

#: name -> (report digest, per-shard access digests), recorded at the parent.
GOLDENS = {
    # Recorded before admission, execution and accounting were reworked
    # to do per-epoch, not per-request, interpreter work.
    "bench_shape": (
        "68eeb3299506af8799e8146d0b2286a93e511e8cc4f7817cf5c8e3b2c78bda88",
        [
            "7c6422b2a86d9d81ebcc9cef8896dbdd4ad526e01db083329aa8f2f98dcc3e0b",
            "bc1e70ad20552c623374d90a1c44eb1eb49904202fbc693fa621dbaee1204e28",
        ],
    ),
    "defer_mix": (
        "38311033a19895d00a56a4de1b883681a1c32ae77fe55f28d50cf0423f000e04",
        [
            "cbcade82631cbf3bb9e2dfabdddcf361a8f473d371f31a8d84e0561be5c523e4",
            "7890183c5b98540a43723d7187ad9b01a2fe348f95ef29295634887a82803312",
        ],
    ),
    "fifo_deadlines": (
        "e45bb857c627eb1fc195eb165a2bfe7b1fb7e410099dba1d31336a07db204904",
        [
            "5802a6c8dcbf28313e01a4031b1a9fee99d0c2bc5265e723253484668b90bf98",
            "6f9fe0f0d3136206d32daee7a4ddb1e05a41f7e5b84a6c9f4c4d9be628a41620",
        ],
    ),
    "one_shard": (
        "0af9ace44b2fd89fa5cd0929834e95b41c605204e6445fb0d1dd4e2dd3e057e3",
        [
            "5104e79c53fbdb5507d73dc5a65b9d2221991d9b9e25cf67d491ed5f5149d10f",
        ],
    ),
    "shed_deadlines_pic": (
        "89ab0e94e4c09cdbaadc63dd3093a25524938f97f190162ffe8262b2bba0ef0b",
        [
            "5e108e802a7bc72a22f18c5a3ab13875da51bb41b8a545b5697a8e2d1530fe13",
            "6a8e80da789d4441b6bd72a5382e636ab8a54074524976f0646c54f46bbc2419",
        ],
    ),
    "stall_backlog": (
        "9425a2ac3a189b0f263965f31378653f8e35cfc588c32e6aefba424667e45169",
        [
            "af0fa2a6972b7cc06ba33d637b7f01d990cb01b25f03ff89eef163c15065878d",
            "fee4b89215b33dab6febb2334aa24ffda319561973749b10baf16ce71fd083e6",
        ],
    ),
    "throttle_slo": (
        "7127d0c1621cc7d3dcdcab6cd4303eb0e69903b56e15f13c29b1a0d22a7d0f68",
        [
            "d6cd8fa7e20f1eeed241c1d16eb5a2b1ab9ae167cac0c68246dde6cb2a047ecc",
            "d7214eec26067f7f71f45cdf3bf0409c38ec8bea01aa5397e55d8dd00c6bef30",
            "8611920452fc010ef885331ef883302f62fe513c0cfc90f8fcf837be64f5de9f",
        ],
    ),
}


def strip_wall(report):
    """A serve report without the fields that hold host wall time."""
    out = {k: v for k, v in report.items() if k != "wall_seconds"}
    out["tenants"] = [
        {k: v for k, v in tenant.items() if k != "wall_us"}
        for tenant in report["tenants"]
    ]
    return out


def golden_image(name: str, mode: str):
    tenants, config, plan = SCENARIOS[name]
    runner = RUNNERS.get(name, make_runner)()
    service = OramService(tenants(), runner=runner, config=config)
    if plan is None:
        service.run(mode)
    else:
        with injected(parse(plan)):
            service.run(mode)
    blob = json.dumps(strip_wall(service.report()), sort_keys=True)
    return (
        hashlib.sha256(blob.encode()).hexdigest(),
        [s.access_digest for s in service.shard_stats],
    )


@pytest.fixture(params=["fast", "native_off", "unbuilt"])
def tier(request, monkeypatch) -> str:
    """The environment's tier (fast when the extension is built), the
    reference tier by ``REPRO_NATIVE=off``, and the reference tier the
    default falls back to when the extension is missing."""
    if request.param == "native_off":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    elif request.param == "unbuilt":
        monkeypatch.setenv("REPRO_NATIVE", "on")
        monkeypatch.setattr(
            native_pkg, "_CORE_CACHE", [(None, "the native extension is not built")]
        )
    return request.param


class TestGoldens:
    @pytest.mark.parametrize("mode", ["serial", "async"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_report_and_access_digests(self, name, mode, tier):
        assert golden_image(name, mode) == GOLDENS[name]
