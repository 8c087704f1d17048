"""The per-access replay core, as a reusable engine object.

:func:`repro.sim.system.replay_trace` and the serving layer
(:mod:`repro.serve`) drive the same core — translate, access, look up
latencies, accumulate cycles in event order — the first with one offline
trace, the second with live request batches. :class:`ReplayEngine` is
that core:

- ``run_trace(trace)`` replays a whole trace's columns — its
  ``array('q')`` line addresses and ``array('b')`` write flags — onto
  ``cycles``;
- ``run_batch(addrs, writes)`` does the same for one run of block-level
  requests and also returns the per-event latencies, so callers can do
  per-request accounting;
- ``result(trace, scheme)`` assembles the :class:`SimResult` from the
  counters the engine snapshotted at construction.

On the fast tier either is one call of the C core's ``run_access_loop``
(translation, the requests, the latency lookup in the timing model's
``latency_table`` and the event-ordered left fold, all in C); on the
reference tier it is the interpreted loop over the same table. Because a
sequence of calls performs the identical per-event operations in the
identical order as one whole-trace call (float accumulation is a left
fold either way), serving a trace in admission-queue batches is
bit-identical to replaying it offline — the property
``tests/test_serve_lockstep.py`` pins against ``replay_trace``.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence

from repro.backend.ops import Op
from repro.config import ProcessorConfig
from repro.proc.hierarchy import MissTrace
from repro.sim.metrics import SimResult
from repro.sim.replay import line_block_ratio, resolve_tier, translate_block_addrs
from repro.sim.timing import OramTimingModel
from repro.utils.stats import LEDGERS

#: The two requests a replay makes (an enum member lookup costs as much
#: as the rest of an empty slice's C call).
_READ, _WRITE = Op.READ, Op.WRITE

#: The frontend ledger's slots a result reads (straight off the column:
#: one result per replay slice).
_PLB_HITS, _PLB_MISSES, _DATA_TREE, _POSMAP_TREE = map(
    LEDGERS["frontend"].slots.index,
    ("plb_hits", "plb_misses", "data_tree_accesses", "posmap_tree_accesses"),
)


def _typed(column, typecode: str):
    """``column`` itself when it is a buffer of ``typecode`` items — an
    ``array`` of it or a memoryview over one — else a copy as one."""
    if type(column) is memoryview:
        if column.format == typecode:
            return column
    elif getattr(column, "typecode", None) == typecode:
        return column
    return array(typecode, column)


def frontend_block_bytes(frontend) -> int:
    """Block size of a frontend's (first) ORAM configuration."""
    config = getattr(frontend, "config", None)
    if config is not None:
        return config.block_bytes
    configs = getattr(frontend, "configs", None)
    if not configs:
        raise TypeError(
            f"{type(frontend).__name__} exposes neither 'config' nor "
            "'configs' to read block_bytes from"
        )
    return configs[0].block_bytes


class ReplayEngine:
    """Stateful access core: one frontend, one timing model, running cycles.

    ``cycles`` starts at 0.0; callers that need the full processor model
    seed it (``engine.cycles = base_cycles(trace, proc)``) before the
    first batch, so the accumulation fold is exactly the historical
    kernel's (base value first, then per-event latencies in event order).
    """

    def __init__(
        self,
        frontend,
        timing: OramTimingModel,
        proc: ProcessorConfig = ProcessorConfig(),
    ):
        block_bytes = frontend_block_bytes(frontend)
        crypto = getattr(frontend, "crypto", None)
        self.frontend = frontend
        self.timing = timing
        self.proc = proc
        self.lines_per_block = line_block_ratio(proc.line_bytes, block_bytes)
        self.payload = bytes(block_bytes)
        self.cycles: float = 0.0
        self.events = 0
        #: Replay tier this engine was resolved for (see for_mode).
        self.mode = "compiled"
        # Baselines for delta counters: a caller may hand the engine a
        # frontend (or crypto suite) that has already served traffic.
        self._data_bytes0 = frontend.data_bytes_moved
        self._posmap_bytes0 = frontend.posmap_bytes_moved
        self._crypto = crypto
        self._prf_calls0 = crypto.prf.call_count if crypto is not None else 0
        # Compiled core (repro.sim.native._replay_core) — None until
        # enable_native() is handed one; every simulated outcome is
        # bit-identical either way.
        self._native = None

    @classmethod
    def for_mode(
        cls,
        frontend,
        timing: OramTimingModel,
        mode: Optional[str] = None,
        proc: ProcessorConfig = ProcessorConfig(),
    ) -> "ReplayEngine":
        """An engine with the replay tier resolved and switched on.

        The one place ``mode`` (or ``REPRO_NATIVE`` when it is ``None``)
        turns into engine state, shared by :func:`replay_trace` and the
        serving layer: ``engine.mode`` is the resolved tier and
        ``compiled`` has the native core enabled on the engine and on the
        frontend; ``scalar`` enables nothing. The tier is resolved anew on
        every call, so a change to the environment takes effect at the
        next engine.
        """
        engine = cls(frontend, timing, proc)
        engine.mode, core = resolve_tier(mode)
        engine.enable_native(core)
        return engine

    # -- compiled-core opt-in --------------------------------------------------

    def enable_native(self, core) -> None:
        """Route every replay slice through the compiled core.

        The engine's loop becomes one ``run_access_loop`` call per slice,
        and the frontend is handed the core for its own kernel
        (``FrontendKernel``: PLB frontends on a columnar backend — whose
        ``AccessKernel`` it was built with — and the fast crypto suite;
        ``RecursiveKernel``: R_X8 with every level columnar; anything else
        declines and keeps its Python ``access``, which the C loop then
        calls per event). Passing ``None`` is a no-op so callers can write
        ``enable_native(load_native_core())`` unconditionally.
        """
        if core is None:
            return
        self._native = core
        enable = getattr(self.frontend, "enable_native_kernel", None)
        if enable is not None:
            enable(core)

    # -- address translation ---------------------------------------------------

    def translate(self, line_addrs) -> List[int]:
        """Line-address column -> block addresses by ``lines_per_block`` (the
        reference tier's; the fast tier translates inside its C loop)."""
        return translate_block_addrs(line_addrs, self.lines_per_block)

    # -- the replay loop ------------------------------------------------------

    def run_batch(self, addrs: Sequence[int], writes: Sequence[bool]) -> List[float]:
        """Drive one batch of block-level requests through the frontend.

        Each event's latency is read from the timing model's
        ``latency_table`` and accumulated onto ``self.cycles`` as an
        event-ordered left fold, so splitting a trace across successive
        calls is bit-identical to one whole-trace call; requests pair up
        as ``zip(addrs, writes)`` does, and ``writes`` are bools (or 0 / 1:
        the fast tier hands both to C as ``array('q')`` and ``array('b')``
        — as they are when they already are such columns, or memoryviews
        over them, and copied otherwise).

        Returns the per-event latencies (the serving layer's per-request
        service times). The kernels count in the owners' ledger columns in
        place, so every counter is current whenever Python can look: after
        the batch, and inside any callback it runs. A request that raises
        leaves ``cycles`` and ``events`` as they were before the batch.
        """
        latencies: List[float] = []
        if self._native is not None:
            self._run_columns(
                _typed(addrs, "q"), _typed(writes, "b"), 1, latencies
            )
        else:
            self._run_reference(addrs, writes, latencies)
        return latencies

    def run_trace(self, trace: MissTrace) -> None:
        """Whole-trace replay, on either tier, straight off its columns."""
        line_addrs, is_write = trace.columns()
        if self._native is not None:
            self._run_columns(line_addrs, is_write, self.lines_per_block, None)
        else:
            self._run_reference(self.translate(line_addrs), is_write, None)

    def _run_columns(self, line_addrs, is_write, lines_per_block, latencies) -> None:
        """The fast tier: the slice is one C call, which boxes nothing per
        event when the frontend's own kernel is engaged."""
        timing = self.timing
        self.cycles = self._native.run_access_loop(
            self.frontend.access, line_addrs, is_write, lines_per_block,
            _READ, _WRITE, self.payload,
            timing.latency_table, timing.miss_latency, self.cycles, latencies,
        )
        self.events += min(len(line_addrs), len(is_write))

    def _run_reference(self, addrs, writes, latencies) -> None:
        """The reference tier: the same loop, interpreted."""
        access = self.frontend.access
        payload = self.payload
        counts = []
        record = counts.append
        for addr, w in zip(addrs, writes):
            if w:
                result = access(addr, _WRITE, payload)
            else:
                result = access(addr, _READ)
            record(result.tree_accesses)
        latency = self.timing.latency
        cycles = self.cycles
        for n in counts:
            value = latency(n)
            cycles += value
            if latencies is not None:
                latencies.append(value)
        self.cycles = cycles
        self.events += len(counts)

    # -- result assembly -------------------------------------------------------

    def result(self, trace: MissTrace, scheme: str = "oram") -> SimResult:
        """Assemble the :class:`SimResult` for a trace this engine served."""
        frontend = self.frontend
        ledger = frontend.stats.ledger
        hits = ledger[_PLB_HITS]
        lookups = hits + ledger[_PLB_MISSES]
        crypto = self._crypto
        # Positional, in SimResult's field order: a result per replay
        # slice, where keywords cost as much as the rest of this method.
        return SimResult(
            trace.name,
            scheme,
            self.cycles,
            trace.instructions,
            trace.llc_misses,
            trace.num_events,
            ledger[_DATA_TREE] + ledger[_POSMAP_TREE],
            frontend.data_bytes_moved - self._data_bytes0,
            frontend.posmap_bytes_moved - self._posmap_bytes0,
            hits / lookups if lookups else 0.0,
            trace.mpki,
            crypto.prf.call_count - self._prf_calls0 if crypto is not None else 0,
        )
