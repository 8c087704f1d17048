"""The retry policy of the sweep (`repro.resilience`).

- :class:`RetryPolicy` — deterministic exponential backoff for failed
  sweep cells, and the fabric's per-cell timeout.

None of it feeds back into simulated cycles or access sequences, which
is what keeps chaos runs bit-identical to their fault-free goldens.
"""

from repro.resilience.retry import RetryPolicy  # noqa: F401

__all__ = [
    "RetryPolicy",
]
