"""Retry and RPC resilience policies of the sweep (`repro.resilience`).

- :class:`RetryPolicy` — deterministic exponential backoff for failed
  sweep cells.
- :class:`RpcPolicy` — connect/RPC retry with per-call timeouts and
  seeded, deterministic exponential backoff-with-jitter
  (``REPRO_CONNECT_RETRIES`` / ``REPRO_RPC_TIMEOUT``).
- :class:`CircuitBreaker` — consecutive-failure breaker with a
  cooldown, told the time by its caller (the fabric coordinator
  quarantines flapping workers with it).

None of it feeds back into simulated cycles or access sequences, which
is what keeps chaos runs bit-identical to their fault-free goldens.
"""

from repro.resilience.breaker import CircuitBreaker  # noqa: F401
from repro.resilience.retry import RetryPolicy, RpcPolicy  # noqa: F401

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "RpcPolicy",
]
