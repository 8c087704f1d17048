"""Replay tier selection and the column helpers of the fast replay loop.

A trace is replayed on one of two tiers, bit-identical in every
simulated outcome (``tests/test_replay_differential.py`` compares them
after every batch):

- **reference** (``REPRO_REPLAY=scalar``) — the per-event loop of
  :meth:`ReplayEngine.run_trace_scalar
  <repro.sim.engine.ReplayEngine.run_trace_scalar>` over object storage
  and the interpreted ``Frontend.access``; what the lockstep suites
  compare against.
- **fast** (``REPRO_REPLAY=compiled``, and what runs when the variable
  is unset) — :meth:`ReplayEngine.run_batch
  <repro.sim.engine.ReplayEngine.run_batch>` over the trace's columns
  and columnar storage: one vectorised line->block translation, the
  access loop, a memoised latency per tree-access count, an
  event-ordered left fold for the cycles. With the C extension of
  :mod:`repro.sim.native` importable those stages and the whole
  ``access`` run in C; without it the same loop runs interpreted.

``resolve_tier`` resolves ``"scalar"`` or ``"compiled"`` and nothing
else. A missing extension is silent when the fast tier was
merely the default, a :class:`RuntimeWarning` when ``compiled`` was
asked for by name, and :class:`~repro.errors.NativeKernelUnavailable`
under ``REPRO_NATIVE=require``. Any other ``mode`` raises, naming the
two that exist; the variables' own grammar is :mod:`repro.settings`'s.
"""

from __future__ import annotations

import warnings
from typing import List

from repro.settings import Settings

try:  # pragma: no cover - exercised indirectly on both branches
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Replay tiers: ``scalar`` is the reference, ``compiled`` the fast tier.
REPLAY_MODES = ("scalar", "compiled")


def resolve_tier(mode=None):
    """``(mode, core)``: the tier a replay runs on, from one read of the
    environment. ``core`` is the extension the fast tier runs on, ``None``
    on the reference tier or when the fast tier runs interpreted.

    An explicit ``mode`` is validated, ``None`` falls back to the
    environment. The fast tier runs interpreted when the C extension is
    unbuilt or switched off via ``REPRO_NATIVE``. That is silent when
    nothing asked for ``compiled`` by name, a :class:`RuntimeWarning`
    when ``mode`` or ``REPRO_REPLAY`` did, and under
    ``REPRO_NATIVE=require`` a
    :class:`~repro.errors.NativeKernelUnavailable` error either way.
    """
    settings = Settings.from_env()
    named = mode is not None or settings.replay is not None
    if mode is None:
        mode = settings.replay or "compiled"
    elif mode not in REPLAY_MODES:
        raise ValueError(
            f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}"
        )
    core = None
    if mode == "compiled":
        from repro.sim.native import build_hint, native_core

        core = native_core(settings.native)
        if core is None:
            if settings.native == "require":
                from repro.errors import NativeKernelUnavailable

                raise NativeKernelUnavailable(
                    "the native extension is required "
                    f"(REPRO_NATIVE=require is set); {build_hint()}"
                )
            if named:
                warnings.warn(
                    "REPRO_REPLAY=compiled requested but the native "
                    "extension is not built; running the fast tier "
                    f"interpreted ({build_hint()})",
                    RuntimeWarning,
                    stacklevel=3,
                )
    return mode, core


def resolve_replay_mode(mode=None) -> str:
    """The ``mode`` half of :func:`resolve_tier`."""
    return resolve_tier(mode)[0]


def translate_block_addrs(
    line_addrs, lines_per_block: int
) -> List[int]:
    """Line-address column -> plain-int block addresses, vectorised.

    ``line_addr // lines_per_block`` for every event in one sweep; a
    power-of-two divisor (the common geometry) becomes a single shift.
    The result is a plain Python list — the access loop's operand — whose
    elements are exactly the scalar per-event divisions.
    """
    if lines_per_block < 1:
        raise ValueError(
            f"lines_per_block must be >= 1, got {lines_per_block}"
        )
    if _np is not None and isinstance(line_addrs, _np.ndarray):
        if lines_per_block == 1:
            return line_addrs.tolist()
        if lines_per_block & (lines_per_block - 1) == 0:
            return (line_addrs >> (lines_per_block.bit_length() - 1)).tolist()
        return (line_addrs // lines_per_block).tolist()
    if lines_per_block == 1:
        return list(line_addrs)
    return [addr // lines_per_block for addr in line_addrs]
