"""Unit coverage for the :mod:`repro.resilience` control-plane primitives.

The serving and fabric layers exercise these end to end (see
``test_serve_slo.py`` / ``test_fabric_resilience.py``); this file pins
the primitives' own contracts — determinism of the jittered backoff,
breaker lifecycle, bucket arithmetic, and the degradation ladder.
"""

import pytest

from repro.resilience import (
    DEGRADATION_LEVELS,
    CircuitBreaker,
    DegradationController,
    RetryPolicy,
    RpcPolicy,
    TokenBucket,
)
from repro.settings import Settings


class TestRetryPolicy:
    def test_delay_schedule_unchanged(self):
        policy = RetryPolicy(attempts=4, backoff=0.05, factor=2.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == pytest.approx(0.05)
        assert policy.delay(3) == pytest.approx(0.10)


class TestRpcPolicy:
    def test_delay_is_deterministic_per_seed(self):
        a = RpcPolicy(seed=7)
        b = RpcPolicy(seed=7)
        c = RpcPolicy(seed=8)
        delays_a = [a.delay(n) for n in range(1, 6)]
        assert delays_a == [b.delay(n) for n in range(1, 6)]
        assert delays_a != [c.delay(n) for n in range(1, 6)]

    def test_jitter_stays_within_band(self):
        policy = RpcPolicy(backoff=0.1, factor=2.0, max_backoff=2.0, jitter=0.5)
        assert policy.delay(1) == 0.0
        for attempt in range(2, 12):
            base = min(0.1 * 2.0 ** (attempt - 2), 2.0)
            assert base * 0.5 <= policy.delay(attempt) <= base * 1.5

    def test_from_settings_reads_fabric_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONNECT_RETRIES", "5")
        monkeypatch.setenv("REPRO_RPC_TIMEOUT", "1.5")
        policy = RpcPolicy.from_settings(Settings.from_env(), seed=3)
        assert policy.connect_attempts == 5
        assert policy.timeout == 1.5
        assert policy.seed == 3
        # <= 0 disables the per-call deadline entirely.
        monkeypatch.setenv("REPRO_RPC_TIMEOUT", "0")
        assert RpcPolicy.from_settings(Settings.from_env()).timeout is None
        monkeypatch.delenv("REPRO_CONNECT_RETRIES")
        monkeypatch.delenv("REPRO_RPC_TIMEOUT")
        default = RpcPolicy.from_settings(Settings.from_env())
        assert default.connect_attempts == 3
        assert default.timeout == 30.0


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(threshold=3, cooldown=60.0)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(0.0)
        breaker.record_success()  # resets the consecutive count
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.0)  # third consecutive: trips
        assert breaker.open
        assert not breaker.allow(0.0)
        assert breaker.trips == 1

    def test_half_open_probe_and_full_close(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        assert breaker.record_failure(0.0)
        assert not breaker.allow(9.9)
        assert breaker.allow(11.0)  # cooldown elapsed: half-open probe
        # A probe failure re-opens and restarts the cooldown.
        breaker.record_failure(11.0)
        assert not breaker.allow(20.0)
        assert breaker.allow(22.0)
        breaker.record_success()
        assert breaker.allow(0.0)  # success fully closes, whatever the time
        assert not breaker.open


class TestTokenBucket:
    def test_rate_and_capacity(self):
        bucket = TokenBucket(rate=2.0)
        assert bucket.ready
        bucket.take()
        bucket.take()
        assert not bucket.ready
        bucket.refill()
        assert bucket.ready

    def test_fractional_rate_accumulates(self):
        bucket = TokenBucket(rate=0.5)
        bucket.take()
        assert not bucket.ready
        bucket.refill()
        assert not bucket.ready  # 0.5 tokens: not yet a whole request
        bucket.refill()
        assert bucket.ready

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=4.0, burst=4.0)
        for _ in range(10):
            bucket.refill()
        taken = 0
        while bucket.ready:
            bucket.take()
            taken += 1
        assert taken == 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(Exception):
            TokenBucket(rate=0.0)
        with pytest.raises(Exception):
            TokenBucket(rate=1.0, burst=0.5)


class TestDegradationController:
    def test_disabled_by_default(self):
        controller = DegradationController()
        assert not controller.enabled
        for epoch in range(50):
            assert controller.observe(epoch, overloaded=True) is None
        assert controller.level == 0
        assert controller.transitions == []

    def test_escalates_and_recovers_with_recorded_transitions(self):
        controller = DegradationController(degrade_after=2, recover_after=3)
        assert controller.observe(0, True) is None
        shift = controller.observe(1, True)
        assert shift == {"epoch": 1, "from": "normal", "to": "shed-low"}
        assert controller.level_name == DEGRADATION_LEVELS[1]
        # Two more overloaded epochs: one level further, then saturate.
        controller.observe(2, True)
        shift = controller.observe(3, True)
        assert shift == {"epoch": 3, "from": "shed-low", "to": "best-effort"}
        assert controller.observe(4, True) is None  # already at the top
        # Clean epochs walk it back down one level per recover_after.
        assert controller.observe(5, False) is None
        assert controller.observe(6, False) is None
        shift = controller.observe(7, False)
        assert shift == {"epoch": 7, "from": "best-effort", "to": "shed-low"}
        assert len(controller.transitions) == 3

    def test_streaks_must_be_consecutive(self):
        controller = DegradationController(degrade_after=3)
        controller.observe(0, True)
        controller.observe(1, True)
        controller.observe(2, False)  # breaks the overload streak
        controller.observe(3, True)
        controller.observe(4, True)
        assert controller.level == 0
        assert controller.observe(5, True) is not None
        assert controller.level == 1
