"""Overload control and RPC resilience policies (`repro.resilience`).

The control plane shared by the serving layer and the sweep fabric:

- :class:`RetryPolicy` — deterministic exponential backoff for failed
  sweep cells.
- :class:`RpcPolicy` — connect/RPC retry with per-call timeouts and
  seeded, deterministic exponential backoff-with-jitter
  (``REPRO_CONNECT_RETRIES`` / ``REPRO_RPC_TIMEOUT``).
- :class:`CircuitBreaker` — consecutive-failure breaker with a
  monotonic-clock cooldown (the coordinator quarantines flapping
  workers with it; the serve layer's per-shard breaker is the
  epoch-deterministic sibling living on :class:`~repro.serve.server.OramShard`).
- :class:`TokenBucket` — per-epoch tenant quota for serve admission.
- :class:`DegradationController` — graceful-degradation levels under
  sustained overload, every transition a counted deterministic event.

Everything here is *scheduling-only* state: none of it feeds back into
simulated cycles or access sequences, which is what keeps chaos runs
bit-identical to their fault-free goldens.
"""

from repro.resilience.admission import (  # noqa: F401
    DEGRADATION_LEVELS,
    DegradationController,
    TokenBucket,
)
from repro.resilience.breaker import CircuitBreaker  # noqa: F401
from repro.resilience.retry import RetryPolicy, RpcPolicy  # noqa: F401

__all__ = [
    "DEGRADATION_LEVELS",
    "CircuitBreaker",
    "DegradationController",
    "RetryPolicy",
    "RpcPolicy",
    "TokenBucket",
]
