"""Replay tier selection and the column helpers of the fast replay loop.

A trace is replayed on one of two tiers, bit-identical in every
simulated outcome (``tests/test_replay_differential.py`` compares them
after every batch):

- **reference** (``mode="scalar"``) — the per-event loop of
  :meth:`ReplayEngine.run_trace_scalar
  <repro.sim.engine.ReplayEngine.run_trace_scalar>` over object storage
  and the interpreted ``Frontend.access``, with no kernel enabled; what
  the lockstep suites compare against.
- **fast** (``mode="compiled"``) — the C extension of
  :mod:`repro.sim.native`: :meth:`ReplayEngine.run_batch
  <repro.sim.engine.ReplayEngine.run_batch>` over the trace's columns
  and columnar storage, where the translation, the access loop, every
  tree access (a columnar backend *is* its ``AccessKernel``) and, where
  they engage, the frontends' accesses run in C.

``REPRO_NATIVE`` alone picks the tier (:func:`resolve_tier`): ``on``, the
default, is fast when the extension is built and current and reference
otherwise; ``off`` is reference; ``require`` is fast or
:class:`~repro.errors.NativeKernelUnavailable`. Storage follows the tier:
a frontend whose spec leaves it at ``default`` gets ``columnar`` on the
fast tier and ``object`` on the reference tier.
"""

from __future__ import annotations

from typing import List

from repro.sim.native import load_native_core, require_core

try:  # pragma: no cover - exercised indirectly on both branches
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Replay tiers: ``scalar`` is the reference, ``compiled`` the fast tier.
REPLAY_MODES = ("scalar", "compiled")


def resolve_tier(mode=None):
    """``(mode, core)``: the tier a replay runs on. ``core`` is the
    extension the fast tier runs on, ``None`` on the reference tier.

    ``None`` takes the environment's tier: ``compiled`` when
    ``REPRO_NATIVE`` finds a usable extension, ``scalar`` otherwise (and
    :class:`~repro.errors.NativeKernelUnavailable` under ``require``).
    An explicit ``"scalar"`` is the reference tier whatever the
    environment says; an explicit ``"compiled"`` raises without the core.
    Any other ``mode`` raises, naming the two that exist.
    """
    if mode not in (None, *REPLAY_MODES):
        raise ValueError(
            f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}"
        )
    if mode == "scalar":
        return mode, None
    core = require_core() if mode == "compiled" else load_native_core()
    return ("scalar" if core is None else "compiled"), core


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
