"""Unit coverage for :class:`repro.resilience.RetryPolicy`.

The sweep and the fabric exercise it end to end (see
``test_faults_chaos.py`` / ``test_fabric.py``); this file pins its own
contract, the deterministic backoff.
"""

import pytest

from repro.resilience import RetryPolicy
from repro.settings import Settings


class TestRetryPolicy:
    def test_delay_schedule_unchanged(self):
        policy = RetryPolicy(attempts=4, backoff=0.05, factor=2.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == pytest.approx(0.05)
        assert policy.delay(3) == pytest.approx(0.10)

    def test_delays_stop_at_the_ceiling(self):
        policy = RetryPolicy(attempts=10, backoff=0.5, factor=3.0, max_backoff=2.0)
        assert [policy.delay(a) for a in range(2, 6)] == [0.5, 1.5, 2.0, 2.0]

    @pytest.mark.parametrize("attempt", [-1, 0, 1])
    def test_the_first_attempt_is_never_delayed(self, attempt):
        assert RetryPolicy(backoff=5.0).delay(attempt) == 0.0

    def test_a_zero_cell_timeout_is_no_timeout(self):
        settings = Settings.from_env({"REPRO_CELL_TIMEOUT": "0", "REPRO_RETRIES": "0"})
        policy = RetryPolicy.from_settings(settings)
        assert policy.timeout is None and policy.attempts == 1
