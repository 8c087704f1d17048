"""Retry/backoff policy for sweep cells.

Backoff delays are deterministic, a fixed geometric series. Delays only
pace re-dispatch — they never influence simulated results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed sweep cell is re-dispatched before being quarantined."""

    #: Total attempts per cell (first try included). 1 = no retry.
    attempts: int = 3
    #: Delay before the second attempt, in seconds.
    backoff: float = 0.05
    #: Multiplier applied per further attempt.
    factor: float = 2.0
    #: Ceiling on any single delay.
    max_backoff: float = 2.0
    #: Seconds a forked cell may run before its fabric worker is killed
    #: and respawned (the serial driver cannot preempt a running cell).
    #: None (or 0) = no timeout.
    timeout: Optional[float] = None

    def delay(self, attempt: int) -> float:
        """Pause before dispatching ``attempt`` (2-based; attempt 1 is free)."""
        if attempt <= 1:
            return 0.0
        return min(self.backoff * self.factor ** (attempt - 2), self.max_backoff)

    @classmethod
    def from_settings(cls, settings) -> "RetryPolicy":
        """The policy REPRO_RETRIES / REPRO_RETRY_BASE / REPRO_CELL_TIMEOUT describe."""
        return cls(
            attempts=settings.retries,
            backoff=settings.retry_base,
            timeout=settings.cell_timeout,
        )
