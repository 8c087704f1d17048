"""Retry/backoff policies for sweep cells and fabric RPC edges.

Backoff delays are deterministic: cell retry uses a fixed geometric
series, RPC retry adds *seeded* jitter (a CRC32 hash of ``seed|attempt``
mapped into ``[-jitter, +jitter]``) so concurrent workers de-synchronise
their reconnect storms without a single nondeterministic draw. Delays
only pace re-dispatch — they never influence simulated results.
"""

from __future__ import annotations

import zlib
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
    #: Seconds a leased cell may run before its fabric worker is reclaimed
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


@dataclass(frozen=True)
class RpcPolicy:
    """Connect/RPC hardening knobs for one fabric endpoint.

    ``connect_attempts`` bounds both the dial loop and how often a
    worker re-establishes a dropped session; ``timeout`` is the per-call
    deadline applied to coordinator and worker sends (a worker waiting
    for its config or a lease is *not* timed out — waiting for work is
    the normal state, and heartbeats cover liveness).
    """

    #: Total connect attempts per dial (first try included).
    connect_attempts: int = 3
    #: Delay before the second attempt, in seconds.
    backoff: float = 0.1
    #: Multiplier applied per further attempt.
    factor: float = 2.0
    #: Ceiling on the un-jittered delay.
    max_backoff: float = 2.0
    #: Jitter fraction: each delay is scaled by ``1 ± jitter``.
    jitter: float = 0.5
    #: Per-RPC-call deadline in seconds. None = block forever.
    timeout: Optional[float] = 30.0
    #: Seed for the deterministic jitter hash.
    seed: int = 0

    def delay(self, attempt: int) -> float:
        """Seeded-jitter pause before dial ``attempt`` (attempt 1 is free)."""
        if attempt <= 1:
            return 0.0
        base = min(self.backoff * self.factor ** (attempt - 2), self.max_backoff)
        frac = zlib.crc32(f"{self.seed}|{attempt}".encode("utf-8")) / 0xFFFFFFFF
        return base * (1.0 + self.jitter * (2.0 * frac - 1.0))

    @classmethod
    def from_settings(cls, settings, seed: int = 0) -> "RpcPolicy":
        """The policy REPRO_CONNECT_RETRIES / REPRO_RPC_TIMEOUT describe."""
        return cls(
            connect_attempts=settings.connect_retries,
            timeout=settings.rpc_timeout,
            seed=seed,
        )
