"""Seed-deterministic fault injection (`repro.faults`).

Public surface:

- :func:`fault_hook` — the zero-overhead injection point instrumented code
  calls; a no-op unless a plan is installed.
- :func:`parse` / :class:`FaultPlan` / :class:`FaultSpec` — plan grammar.
- :func:`install` / :func:`install_from` / :func:`clear` /
  :func:`active` — process-wide plan management (workers re-install from
  the ``REPRO_FAULTS`` env var, as :class:`~repro.settings.Settings`
  reads it).
- :class:`injected` — context manager scoping a plan to a test block.

Recovery policies (``RetryPolicy`` and its RPC siblings) live in
:mod:`repro.resilience`.
"""

from repro.faults.plan import (  # noqa: F401
    FaultPlan,
    FaultSpec,
    active,
    clear,
    fault_hook,
    injected,
    install,
    install_from,
    parse,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "active",
    "clear",
    "fault_hook",
    "injected",
    "install",
    "install_from",
    "parse",
]
