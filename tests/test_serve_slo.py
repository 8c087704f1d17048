"""SLO-driven overload control in the serving layer.

Covers the admission control plane added on top of the epoch scheduler:
earliest-deadline-first admission (proven bit-identical to the
historical FIFO order when no deadlines are configured), per-request
deadline accounting, per-tenant token-bucket quotas, the ``throttle``
backpressure policy, the graceful-degradation ladder, and the
``serve.deadline`` chaos site — with every mechanism shown deterministic
across both ``run()`` modes, and chaos runs shown
bit-identical to their fault-free goldens on all simulated quantities.
"""

import json

import pytest

from repro.faults import injected, parse
from repro.serve import (
    OramService,
    ServeConfig,
    TenantSpec,
    tenants_for,
)
from repro.sim.runner import SimulationRunner


def make_runner(seed: int = 17) -> SimulationRunner:
    return SimulationRunner(misses_per_benchmark=400, seed=seed)


def simulated_image(service: OramService):
    """Every simulated quantity in a run (wall-clock excluded)."""
    return (
        [
            (
                t.name, t.issued, t.completed, t.shed, t.deferred,
                t.throttled, t.missed, t.cycles,
            )
            for t in service.tenant_stats
        ],
        [
            (s.index, s.requests, s.batches, s.busy_cycles, s.access_digest)
            for s in service.shard_stats
        ],
        service.epochs,
    )


class TestEdfAdmission:
    def _service(self, admission: str, **tenant_kwargs) -> OramService:
        return OramService(
            tenants_for(
                ["hmmer", "gob"], 3, requests=90, **tenant_kwargs
            ),
            runner=make_runner(),
            config=ServeConfig(
                scheme="PC_X32", shards=2, burst=3, queue_capacity=5,
                admission=admission,
            ),
        )

    def test_edf_without_deadlines_is_bit_identical_to_fifo(self):
        edf = self._service("edf").run("serial")
        fifo = self._service("fifo").run("serial")
        assert simulated_image(edf) == simulated_image(fifo)

    def test_edf_actually_reorders_across_tenants(self):
        # Opposite-extreme deadlines on one shard: the urgent tenant's
        # offers must jump the queue, which is visible in the access
        # digest (the digest folds tenant indices in execution order).
        def service(admission: str) -> OramService:
            return OramService(
                [
                    TenantSpec(
                        name="lax", benchmark="hmmer", requests=60,
                        deadline_cycles=1e9,
                    ),
                    TenantSpec(
                        name="urgent", benchmark="gob", requests=60,
                        deadline_cycles=1e3,
                    ),
                ],
                runner=make_runner(),
                config=ServeConfig(scheme="PC_X32", admission=admission),
            )

        edf = service("edf").run("serial")
        fifo = service("fifo").run("serial")
        assert (
            edf.shard_stats[0].access_digest
            != fifo.shard_stats[0].access_digest
        )
        # Reordering is a scheduling change only: both orders complete
        # every request.
        for run in (edf, fifo):
            assert all(t.completed == 60 for t in run.tenant_stats)

    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_deadline_misses_are_deterministic(self, mode):
        service = self._service("edf", deadline_cycles=2000.0).run(mode)
        missed = sum(t.missed for t in service.tenant_stats)
        assert missed > 0  # the budget is far below realistic queue waits
        again = self._service("edf", deadline_cycles=2000.0).run(mode)
        assert simulated_image(service) == simulated_image(again)

    def test_serial_and_async_agree_under_deadlines(self):
        serial = self._service("edf", deadline_cycles=2000.0).run("serial")
        concurrent = self._service("edf", deadline_cycles=2000.0).run("async")
        assert simulated_image(serial) == simulated_image(concurrent)
        for a, b in zip(serial.tenant_stats, concurrent.tenant_stats):
            assert a.slack_cycles.to_dict() == b.slack_cycles.to_dict()

    def test_generous_deadlines_never_miss(self):
        service = self._service("edf", deadline_cycles=1e12).run("serial")
        assert sum(t.missed for t in service.tenant_stats) == 0
        # Slack was still recorded for every completed request.
        completed = sum(t.completed for t in service.tenant_stats)
        assert sum(t.slack_cycles.count for t in service.tenant_stats) == completed


class TestThrottleAndQuota:
    def test_throttle_policy_completes_everything(self):
        service = OramService(
            tenants_for(["hmmer"], 3, requests=50),
            runner=make_runner(),
            config=ServeConfig(
                burst=8, queue_capacity=4, policy="throttle",
                throttle_epochs=2,
            ),
        )
        service.run("serial")
        assert sum(t.throttled for t in service.tenant_stats) > 0
        for tenant in service.tenant_stats:
            assert tenant.completed == tenant.issued == 50
            assert tenant.shed == 0
        assert sum(s.throttled for s in service.shard_stats) == sum(
            t.throttled for t in service.tenant_stats
        )

    def test_quota_paces_tenants_without_dropping(self):
        service = OramService(
            tenants_for(["hmmer", "gob"], 2, requests=40, quota=2.0),
            runner=make_runner(),
            config=ServeConfig(burst=8),
        )
        service.run("serial")
        assert sum(t.throttled for t in service.tenant_stats) > 0
        for tenant in service.tenant_stats:
            assert tenant.completed == 40

    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_quota_and_throttle_deterministic_across_drivers(self, mode):
        def run(m: str) -> OramService:
            service = OramService(
                tenants_for(["hmmer", "gob"], 3, requests=40, quota=3.0),
                runner=make_runner(),
                config=ServeConfig(
                    burst=8, queue_capacity=4, policy="throttle",
                ),
            )
            return service.run(m)

        assert simulated_image(run(mode)) == simulated_image(run("serial"))


class TestGracefulDegradation:
    def _overloaded(self, **config_kwargs) -> OramService:
        return OramService(
            tenants_for(
                ["hmmer", "gob"], 3, requests=60, priorities=[0, 1, 1]
            ),
            runner=make_runner(),
            config=ServeConfig(
                burst=8, queue_capacity=4, policy="defer", **config_kwargs
            ),
        )

    def test_disabled_by_default_matches_pre_slo_behaviour(self):
        baseline = self._overloaded().run("serial")
        assert baseline.degradation.level == 0
        assert baseline.degradation.transitions == []
        assert all(t.shed == 0 for t in baseline.tenant_stats)

    def test_ladder_escalates_and_sheds_lowest_priority_first(self):
        service = self._overloaded(degrade_after=2, recover_after=2)
        service.run("serial")
        transitions = service.degradation.transitions
        assert transitions  # sustained overload must escalate
        assert transitions[0]["from"] == "normal"
        assert transitions[0]["to"] == "shed-low"
        # Under shed-low only the priority-0 tenant sheds; it must have
        # shed strictly first (tenant 0 is the only priority-0 tenant).
        assert service.tenant_stats[0].shed > 0
        # Every issued request is accounted: completed or shed.
        for tenant in service.tenant_stats:
            assert tenant.completed + tenant.shed == tenant.issued

    def test_transitions_deterministic_across_drivers(self):
        serial = self._overloaded(degrade_after=2).run("serial")
        concurrent = self._overloaded(degrade_after=2).run("async")
        assert serial.degradation.transitions == concurrent.degradation.transitions
        assert simulated_image(serial) == simulated_image(concurrent)


class TestServeResilienceReport:
    def test_report_block_shape(self):
        service = OramService(
            tenants_for(["hmmer"], 2, requests=30, deadline_cycles=2000.0),
            runner=make_runner(),
            config=ServeConfig(burst=8, queue_capacity=4, policy="throttle"),
        )
        service.run("serial")
        report = json.loads(json.dumps(service.report()))
        res = report["resilience"]
        for key in (
            "deadline_missed", "throttled", "shed", "deferred",
            "breaker_trips", "parked", "stall_epochs", "degradation",
        ):
            assert key in res
        assert res["degradation"]["level"] in (
            "normal", "shed-low", "best-effort"
        )
        assert isinstance(res["degradation"]["transitions"], list)
        assert res["throttled"] == report["totals"]["throttled"]
        assert res["deadline_missed"] == sum(
            t["deadline_missed"] for t in report["tenants"]
        )
        assert "slack_cycles" in report["tenants"][0]
        assert report["config"]["admission"] == "edf"


class TestServeDeadlineChaos:
    def _service(self) -> OramService:
        return OramService(
            tenants_for(["hmmer", "gob"], 3, requests=60, deadline_cycles=1e9),
            runner=make_runner(),
            config=ServeConfig(scheme="PC_X32", shards=2, burst=4),
        )

    def test_injected_pressure_is_pure_bookkeeping(self):
        # A serve.deadline stall tightens one epoch's deadlines; it must
        # provoke misses while leaving every simulated outcome — cycles,
        # digests, epochs — bit-identical to the fault-free golden.
        golden = self._service().run("serial")
        assert sum(t.missed for t in golden.tenant_stats) == 0
        chaotic = self._service()
        with injected("serve.deadline.stall@*#1|cycles=2000000000"):
            chaotic.run("serial")
        assert sum(t.missed for t in chaotic.tenant_stats) > 0
        for healed, clean in zip(chaotic.shard_stats, golden.shard_stats):
            assert healed.access_digest == clean.access_digest
            assert healed.busy_cycles == clean.busy_cycles
        for ht, ct in zip(chaotic.tenant_stats, golden.tenant_stats):
            assert ht.cycles == ct.cycles
            assert ht.completed == ct.completed
        assert chaotic.epochs == golden.epochs

    def test_chaos_identical_across_drivers(self):
        plan_text = "serve.deadline.stall@*#1|cycles=2000000000"
        serial = self._service()
        with injected(plan_text):
            serial.run("serial")
        concurrent = self._service()
        with injected(parse(plan_text)):
            concurrent.run("async")
        assert simulated_image(serial) == simulated_image(concurrent)

    def test_non_stall_actions_fire_normally(self):
        from repro.errors import InjectedFault

        service = self._service()
        with injected("serve.deadline.crash@0#1"):
            with pytest.raises(InjectedFault):
                service.run("serial")
