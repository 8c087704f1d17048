"""A generic consecutive-failure circuit breaker.

Keyed by any failure-domain identity — the fabric coordinator keeps one
per worker identity so a flapping worker is quarantined instead of re-leased forever. The
breaker is pure scheduling state: opening or closing one never changes
report content, only who gets offered work when.

States: *closed* (normal), *open* (refusing since ``opened_at``), and —
once ``cooldown`` has elapsed — *half-open*: :meth:`allow` admits one
probe; a success closes the breaker, a further failure re-opens it and
restarts the cooldown clock. The breaker reads no clock: its caller
passes the current time (seconds on any monotonic scale) to every call
that needs one.
"""

from __future__ import annotations

from typing import Optional


class CircuitBreaker:
    """Trip after ``threshold`` consecutive failures; cool down for ``cooldown``."""

    def __init__(self, threshold: int = 3, cooldown: float = 60.0):
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self.failures = 0
        self.trips = 0
        self.opened_at: Optional[float] = None

    @property
    def open(self) -> bool:
        return self.opened_at is not None

    def record_failure(self, now: float) -> bool:
        """Count one failure at ``now``; True exactly when it trips the breaker."""
        self.failures += 1
        if self.opened_at is None:
            if self.failures >= self.threshold:
                self.opened_at = now
                self.trips += 1
                return True
        else:
            # A half-open probe failed: re-open and restart the cooldown.
            self.opened_at = now
        return False

    def record_success(self) -> None:
        """A healthy interaction fully closes the breaker."""
        self.failures = 0
        self.opened_at = None

    def allow(self, now: float) -> bool:
        """May the guarded party be engaged at ``now``?

        True while closed; once open, False until ``cooldown`` seconds
        have passed, then True for a half-open probe.
        """
        if self.opened_at is None:
            return True
        return now - self.opened_at >= self.cooldown
