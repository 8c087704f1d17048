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

from repro.eval.paper_values import PLATFORMS
from repro.presets import SCHEMES
from repro.sim import native as native_pkg
from repro.sim.runner import SimulationRunner
from repro.sim.system import replay_trace
from repro.serve import (
    OramService,
    ServeConfig,
    serve_replay_equivalent,
    tenants_for,
)
from repro.storage.snapshot import tree_digest

from helpers import strip_wall


def make_runner(seed: int = 11, platform=None) -> SimulationRunner:
    return SimulationRunner(platform, misses_per_benchmark=500, seed=seed)


def frontend_digests(frontend):
    backends = getattr(frontend, "backends", None)
    if backends is not None:
        return [tree_digest(b.storage) for b in backends]
    return [tree_digest(frontend.backend.storage)]


class TestLockstepWithReplay:
    @pytest.mark.parametrize("mode", ["serial", "async"])
    @pytest.mark.parametrize("platform, scheme, lines_per_block", [
        ("table2", "PC_X32", 1),
        ("table2", "PC_X32:block_bytes=128", 2),  # two 64 B lines a block
        ("fig9", "PC_X32", 1),  # 64 B blocks under 128 B lines: the clamp
    ])
    def test_single_tenant_single_shard_is_bit_identical(
        self, platform, scheme, lines_per_block, mode
    ):
        """Serve and replay take the line -> block ratio from one place,
        at every ratio a platform row gives, the clamped one included."""
        runner = make_runner(platform=PLATFORMS[platform])
        trace = runner.trace("hmmer")
        frontend = runner.build(scheme, "hmmer")
        expected = replay_trace(
            frontend, trace, runner.timing_for(frontend), proc=runner.proc,
            scheme=scheme,
        )
        config = ServeConfig(scheme=scheme, shards=1, burst=5, max_batch=13)
        service = OramService(
            tenants_for(["hmmer"], 1), runner=runner, config=config
        )
        shard = service.shards[0]
        assert shard.engine.lines_per_block == lines_per_block
        from repro.sim.system import base_cycles

        shard.engine.cycles = base_cycles(trace, runner.proc)
        service.run(mode=mode)
        result = shard.engine.result(trace, scheme=scheme)
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


class TestLockstepAcrossSchemes:
    """The lockstep property for the paper's other schemes: recursion
    alone (R_X8), the PLB (P_X16), PMMAC without a PLB (PI_X8) and the
    full design (PIC_X32) serve bit-identically to replay too."""

    @pytest.mark.parametrize("mode", ["serial", "async"])
    @pytest.mark.parametrize(
        "scheme", [name for name in SCHEMES if name != "PC_X32"]
    )
    def test_single_tenant_single_shard_is_bit_identical(self, scheme, mode):
        runner = make_runner()
        trace = runner.trace("gob")
        frontend = runner.build(scheme, "gob")
        expected = replay_trace(
            frontend, trace, runner.timing_for(frontend), proc=runner.proc,
            scheme=scheme,
        )
        service = OramService(
            tenants_for(["gob"], 1),
            runner=runner,
            config=ServeConfig(scheme=scheme, shards=1, burst=4, max_batch=9),
        )
        shard = service.shards[0]
        from repro.sim.system import base_cycles

        shard.engine.cycles = base_cycles(trace, runner.proc)
        service.run(mode=mode)
        assert shard.engine.result(trace, scheme=scheme) == expected
        assert frontend_digests(shard.frontend) == frontend_digests(frontend)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_helper_matches_replay_at_every_admission_shape(self, scheme):
        runner = make_runner()
        trace = runner.trace("hmmer")
        frontend = runner.build(scheme, "hmmer")
        expected = replay_trace(
            frontend, trace, runner.timing_for(frontend), proc=runner.proc,
            scheme=scheme,
        )
        for burst, max_batch in ((1, 1), (4, 2), (64, 512)):
            assert serve_replay_equivalent(
                trace, scheme, runner, burst=burst, max_batch=max_batch
            ) == expected


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
# passes. These digests pin the simulated outcome itself: the report minus
# its host-wall fields, and each shard's access digest, on both run()
# modes and both tiers, the reference one reached both ways.


_FIVE = ["hmmer", "gob", "hmmer+gob", "gob", "hmmer"]

#: name -> (tenants, config)
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
    ),
    # The benchmark's shape (perf/workloads.py, serve_mixed_tenants).
    "defer_mix": (
        lambda: tenants_for(["hmmer", "gob", "hmmer+gob", "h264"], 4, requests=150),
        ServeConfig(
            scheme="PC_X32", shards=2, burst=8, max_batch=32,
            queue_capacity=12, policy="defer",
        ),
    ),
    "shed_pic": (
        lambda: tenants_for(["hmmer", "gob"], 3, requests=120),
        ServeConfig(
            scheme="PIC_X32", shards=2, burst=6, max_batch=8,
            queue_capacity=4, policy="shed",
        ),
    ),
    "one_shard": (
        lambda: tenants_for(["gob", "hmmer"], 3, requests=120),
        ServeConfig(
            scheme="PC_X32", shards=1, burst=6, max_batch=5,
            queue_capacity=10, policy="defer",
        ),
    ),
    # Five tenants over three workloads, one of them interleaved.
    "five_tenants": (
        lambda: tenants_for(_FIVE, 5, requests=110),
        ServeConfig(
            scheme="PC_X32", shards=2, burst=5, max_batch=16,
            queue_capacity=9, policy="defer",
        ),
    ),
    # Three shards draining less than a burst per epoch, on the PMMAC
    # scheme without a PLB.
    "three_shards_pi": (
        lambda: tenants_for(_FIVE, 5, requests=110),
        ServeConfig(
            scheme="PI_X8", shards=3, burst=8, max_batch=3,
            queue_capacity=7, policy="defer",
        ),
    ),
    # The recursive baseline behind small batches and a short queue.
    "small_batches_recursive": (
        lambda: tenants_for(["hmmer", "gob", "hmmer+gob"], 3, requests=100),
        ServeConfig(
            scheme="R_X8", shards=2, burst=4, max_batch=4,
            queue_capacity=6, policy="defer",
        ),
    ),
    # Shedding across three shards of the PLB-only scheme.
    "shed_p16": (
        lambda: tenants_for(["gob", "hmmer+gob"], 4, requests=90),
        ServeConfig(
            scheme="P_X16", shards=3, burst=5, max_batch=4,
            queue_capacity=5, policy="shed",
        ),
    ),
}

#: Scenarios served by another runner than ``make_runner()``.
RUNNERS = {
    "bench_shape": lambda: SimulationRunner(
        misses_per_benchmark=2000, seed=2015
    ),
}

#: name -> (report digest, per-shard access digests). The access digests
#: of bench_shape, defer_mix and one_shard were recorded before admission,
#: execution and accounting were reworked to do per-epoch, not
#: per-request, interpreter work; the report digests are those reports
#: with the deleted overload plane's keys (deadlines, throttling,
#: degradation, the shard breaker) stripped. shed_pic, five_tenants,
#: three_shards_pi, small_batches_recursive and shed_p16 were recorded the
#: same way, on the code whose EDF admission without deadlines was FIFO.
GOLDENS = {
    "bench_shape": (
        "21002b35a167034eed83f544adf78f6e8cb3a8ca5f88eaca60544d4cfe4f2fb9",
        [
            "7c6422b2a86d9d81ebcc9cef8896dbdd4ad526e01db083329aa8f2f98dcc3e0b",
            "bc1e70ad20552c623374d90a1c44eb1eb49904202fbc693fa621dbaee1204e28",
        ],
    ),
    "defer_mix": (
        "fa5b0364f63dc7304f39eff5b0613cee1353bc96f0f111394d1cd728e9a64018",
        [
            "cbcade82631cbf3bb9e2dfabdddcf361a8f473d371f31a8d84e0561be5c523e4",
            "7890183c5b98540a43723d7187ad9b01a2fe348f95ef29295634887a82803312",
        ],
    ),
    "five_tenants": (
        "d47d6cf24ceaebd507366c2d02555feab894e197700fa434d2f4a734fddbed7e",
        [
            "181411f490c65e921872e8667defc78e6695a5be50a86a130368e29f811c156d",
            "64a9b0a33a2ca7e553fed4a0d9a8d962b706106400bdb83f8bfb035686f25243",
        ],
    ),
    "one_shard": (
        "5617d6d7b3b93d4f3fb24aa8145c73406e0c1e8b9329f9415c71649677174db1",
        [
            "5104e79c53fbdb5507d73dc5a65b9d2221991d9b9e25cf67d491ed5f5149d10f",
        ],
    ),
    "shed_pic": (
        "5213295dbc938bd17c89341096d9408738fc174388e3847b9298c511ab90b4ca",
        [
            "5e108e802a7bc72a22f18c5a3ab13875da51bb41b8a545b5697a8e2d1530fe13",
            "6a8e80da789d4441b6bd72a5382e636ab8a54074524976f0646c54f46bbc2419",
        ],
    ),
    "shed_p16": (
        "fc1c023f1f1ec2aa251d9f8805f5dda7bd52230856c9bc8191e576143f0bdf17",
        [
            "c563e11143aa1e07ac2594104e968e15d9b7202d828082aa9ae70cdb9de30ff7",
            "1c712d0a458e3ef48d5aad7f82d5a1025329db6eca1aee8ecd19f2b32ca09943",
            "40c5e85d50fa05135764f587fcf7e303257676e3eb2df0b193525fe796ceb3f0",
        ],
    ),
    "small_batches_recursive": (
        "1fe05a9f092d3f5c3fc89dfc3fcb64690b03ecaceaa491a3cb27ccc53099eab9",
        [
            "044d7ce64b9bf0f0170d314e8d382bc7ad20692518060cc574e935270091c726",
            "80bdec7fb764cb11d3f0418de931c8871dc2e27bb273442e2f43c19497e2b65f",
        ],
    ),
    "three_shards_pi": (
        "a55e08f781ed5d4a4d66daea8fa43b2ebca38b4b26d612232cc800a33d22af90",
        [
            "52754a0826cd32d1bec1001636457977f508597c02e145952d06ab6e54ba9395",
            "693f963a6eb57ab4a96915ec0e7c39b5c62a26254698d26821e0cd8eecce903a",
            "ae6c58225149b0b02b683a0bad3c3685360dfe2ee0de8765335fc2ca2868526d",
        ],
    ),
}


def golden_image(name: str, mode: str):
    tenants, config = SCENARIOS[name]
    runner = RUNNERS.get(name, make_runner)()
    service = OramService(tenants(), runner=runner, config=config)
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
