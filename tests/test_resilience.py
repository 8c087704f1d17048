"""Unit coverage for the :mod:`repro.resilience` primitives.

The sweep and the fabric exercise these end to end (see
``test_faults_chaos.py`` / ``test_fabric_resilience.py``); this file pins
the primitives' own contracts — determinism of the jittered backoff and
the breaker lifecycle.
"""

import pytest

from repro.resilience import CircuitBreaker, RetryPolicy, RpcPolicy
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

    def test_a_failure_while_open_is_not_a_second_trip(self):
        breaker = CircuitBreaker(threshold=2, cooldown=5.0)
        breaker.record_failure(0.0)
        assert breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)  # open: restarts the clock only
        assert breaker.trips == 1
        assert not breaker.allow(6.0)
        assert breaker.allow(7.0)

    @pytest.mark.parametrize("threshold", [0, -4])
    def test_threshold_is_at_least_one(self, threshold):
        breaker = CircuitBreaker(threshold=threshold)
        assert breaker.threshold == 1
        assert breaker.record_failure(0.0)  # the first failure trips
