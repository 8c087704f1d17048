"""Replay tier selection and the column helpers of the replay loop.

A trace is replayed on one of two tiers, bit-identical in every
simulated outcome (``tests/test_replay_differential.py`` compares them
after every batch). Both run the one loop, :meth:`ReplayEngine.run_trace
<repro.sim.engine.ReplayEngine.run_trace>` over the trace's columns —
translate, access each event, look up latencies, fold the cycles — and
differ in who runs each stage:

- **reference** (``mode="scalar"``) — interpreted end to end:
  :func:`translate_block_addrs`, the engine's Python access loop, its
  latency-table reads and its fold, over object storage and the
  interpreted ``Frontend.access``, with no kernel enabled; what the
  lockstep suites compare against.
- **fast** (``mode="compiled"``) — the C extension of
  :mod:`repro.sim.native`: a slice is one ``run_access_loop`` call (the
  translation, the access loop, the latency lookups, the fold), every
  tree access runs in C (a columnar backend *is* its ``AccessKernel``)
  and, where they engage, so do the frontends' accesses.

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
    if mode is None:
        core = load_native_core()
    elif mode == "compiled":
        core = require_core()
    elif mode == "scalar":
        return mode, None
    else:
        raise ValueError(
            f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}"
        )
    return ("scalar" if core is None else "compiled"), core


def resolve_replay_mode(mode=None) -> str:
    """The ``mode`` half of :func:`resolve_tier`."""
    return resolve_tier(mode)[0]


def line_block_ratio(line_bytes: int, block_bytes: int) -> int:
    """Cache lines per ORAM block, ``block_bytes // line_bytes``: the one
    line ↔ block map. Its clamp to 1 is today's model, a block smaller than
    the line serving a miss in one access; ROADMAP 10(b) removes it."""
    return max(block_bytes // line_bytes, 1)


def translate_block_addrs(
    line_addrs, lines_per_block: int
) -> List[int]:
    """Line addresses -> plain-int block addresses.

    ``line_addr // lines_per_block`` for every event of any int sequence
    (a trace's ``array('q')`` column, a list). The result is a plain
    Python list — the reference tier's access-loop operand; the fast
    tier translates inside its one C call per slice, with the same floor
    semantics.
    """
    if lines_per_block < 1:
        raise ValueError(
            f"lines_per_block must be >= 1, got {lines_per_block}"
        )
    if lines_per_block == 1:
        return list(line_addrs)
    return [addr // lines_per_block for addr in line_addrs]
