"""Admission-control primitives for the serving layer.

Both classes are driven exclusively from inside serve admission (one
:class:`TokenBucket` refill per tenant per epoch, one
:class:`DegradationController` observation per epoch), so quota and
degradation decisions are deterministic. Neither touches wall-clock
time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError

#: Degradation levels, mildest first. ``shed-low`` turns full-queue
#: events of the lowest-priority tenants into sheds regardless of the
#: configured policy; ``best-effort`` does so for every tenant.
DEGRADATION_LEVELS = ("normal", "shed-low", "best-effort")


class TokenBucket:
    """Per-epoch token bucket: ``rate`` tokens refilled per epoch.

    ``burst`` caps accumulation (default: one epoch's worth, at least
    one token). A tenant with an empty bucket simply stops issuing for
    the epoch — a deterministic pause, not a drop.
    """

    def __init__(self, rate: float, burst: Optional[float] = None):
        if rate <= 0:
            raise ConfigurationError("token bucket rate must be > 0")
        self.rate = float(rate)
        self.capacity = float(burst) if burst is not None else max(self.rate, 1.0)
        if self.capacity < 1.0:
            raise ConfigurationError("token bucket burst must be >= 1")
        self.tokens = self.capacity

    def refill(self) -> None:
        self.tokens = min(self.capacity, self.tokens + self.rate)

    @property
    def ready(self) -> bool:
        return self.tokens >= 1.0

    def take(self) -> None:
        self.tokens -= 1.0


class DegradationController:
    """Graceful-degradation ladder driven by per-epoch overload signals.

    Disabled unless ``degrade_after`` is set (the default — existing
    scenarios are bit-unaffected). When enabled, ``degrade_after``
    consecutive overloaded epochs escalate one level (``normal`` →
    ``shed-low`` → ``best-effort``); ``recover_after`` consecutive clean
    epochs de-escalate one level. Every transition is recorded as a
    JSON-safe ``{"epoch", "from", "to"}`` event, and streaks reset at
    each transition so a further shift needs a fresh run of evidence.
    """

    LEVELS = DEGRADATION_LEVELS

    def __init__(
        self,
        degrade_after: Optional[int] = None,
        recover_after: Optional[int] = None,
    ):
        if degrade_after is not None and degrade_after < 1:
            raise ConfigurationError("degrade_after must be >= 1")
        if recover_after is not None and recover_after < 1:
            raise ConfigurationError("recover_after must be >= 1")
        self.degrade_after = degrade_after
        self.recover_after = (
            recover_after if recover_after is not None else (degrade_after or 1)
        )
        self.level = 0
        self.transitions: List[Dict[str, object]] = []
        self._overloaded_streak = 0
        self._clean_streak = 0

    @property
    def enabled(self) -> bool:
        return self.degrade_after is not None

    @property
    def level_name(self) -> str:
        return self.LEVELS[self.level]

    def observe(self, epoch: int, overloaded: bool) -> Optional[Dict[str, object]]:
        """Feed one epoch's overload signal; returns the transition, if any."""
        if not self.enabled:
            return None
        if overloaded:
            self._overloaded_streak += 1
            self._clean_streak = 0
            if (
                self._overloaded_streak >= self.degrade_after
                and self.level < len(self.LEVELS) - 1
            ):
                return self._shift(epoch, self.level + 1)
        else:
            self._clean_streak += 1
            self._overloaded_streak = 0
            if self._clean_streak >= self.recover_after and self.level > 0:
                return self._shift(epoch, self.level - 1)
        return None

    def _shift(self, epoch: int, to: int) -> Dict[str, object]:
        transition = {
            "epoch": epoch,
            "from": self.LEVELS[self.level],
            "to": self.LEVELS[to],
        }
        self.level = to
        self.transitions.append(transition)
        self._overloaded_streak = 0
        self._clean_streak = 0
        return transition
