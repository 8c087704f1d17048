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

``resolve_replay_mode`` returns ``"scalar"`` or ``"compiled"`` and
nothing else. A missing extension is silent when the fast tier was
merely the default, a :class:`RuntimeWarning` when ``compiled`` was
asked for by name, and :class:`~repro.errors.NativeKernelUnavailable`
under ``REPRO_NATIVE=require``. Any other value raises, naming the two
that exist.
"""

from __future__ import annotations

import os
import warnings
from typing import List

try:  # pragma: no cover - exercised indirectly on both branches
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Environment variable selecting the replay tier.
REPLAY_ENV = "REPRO_REPLAY"

#: Replay tiers: ``scalar`` is the reference, ``compiled`` the fast tier.
REPLAY_MODES = ("scalar", "compiled")


def default_replay_mode() -> str:
    """Replay tier from ``REPRO_REPLAY``; the fast tier when it is unset.

    An unrecognised value raises — a typo (``REPRO_REPLAY=scaler``) aborts
    the run instead of silently measuring the other tier.
    """
    value = os.environ.get(REPLAY_ENV, "").strip().lower()
    if not value:
        return "compiled"
    if value not in REPLAY_MODES:
        raise ValueError(
            f"unknown replay mode {value!r} in {REPLAY_ENV}; "
            f"choose from {REPLAY_MODES}"
        )
    return value


def resolve_replay_mode(mode=None) -> str:
    """Validate an explicit mode, or fall back to the environment.

    The fast tier runs interpreted when the C extension is unbuilt or
    switched off via ``REPRO_NATIVE``. That is silent when nothing asked
    for ``compiled`` by name, a :class:`RuntimeWarning` when ``mode`` or
    ``REPRO_REPLAY`` did, and under ``REPRO_NATIVE=require`` a
    :class:`~repro.errors.NativeKernelUnavailable` error either way.
    """
    named = mode is not None or bool(os.environ.get(REPLAY_ENV, "").strip())
    if mode is None:
        mode = default_replay_mode()
    elif mode not in REPLAY_MODES:
        raise ValueError(
            f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}"
        )
    if mode == "compiled":
        from repro.sim.native import (
            build_hint,
            load_native_core,
            native_policy,
        )

        if load_native_core() is None:
            if native_policy() == "require":
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
                    stacklevel=2,
                )
    return mode


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
