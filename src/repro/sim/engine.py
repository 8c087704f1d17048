"""The per-access replay core, as a reusable engine object.

:func:`repro.sim.system.replay_trace` and the serving layer
(:mod:`repro.serve`) drive the same core — translate, access, look up
latencies, accumulate cycles in event order — the first with one offline
trace, the second with live request batches. :class:`ReplayEngine` is
that core:

- ``run_batch(addrs, writes)`` executes one run of block-level requests
  through the frontend (hoisted-constant access loop, memoised latency
  lookup, event-ordered left-fold accumulation — interpreted on the
  reference tier, in C once ``enable_native`` has been handed the
  extension) and returns the per-event latencies so callers can do
  per-request accounting;
- ``run_trace(trace)`` is ``translate`` and ``run_batch`` over a whole
  trace's columns: the one replay loop of both tiers;
- ``result(trace, scheme)`` assembles the :class:`SimResult` from the
  counters the engine snapshotted at construction.

Because a sequence of ``run_batch`` calls performs the identical
per-event operations in the identical order as one whole-trace call
(float accumulation is a left fold either way), serving a trace in
admission-queue batches is bit-identical to replaying it offline — the
property ``tests/test_serve_lockstep.py`` pins against ``replay_trace``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backend.ops import Op
from repro.config import ProcessorConfig
from repro.proc.hierarchy import MissTrace
from repro.sim.metrics import SimResult
from repro.sim.replay import resolve_tier, translate_block_addrs
from repro.sim.timing import OramTimingModel


def frontend_block_bytes(frontend) -> int:
    """Block size of a frontend's (first) ORAM configuration."""
    config = getattr(frontend, "config", None)
    if config is not None:
        return config.block_bytes
    configs = getattr(frontend, "configs", None)
    if not configs:
        raise TypeError(
            f"{type(frontend).__name__} exposes neither 'config' nor "
            "'configs'; pass block_bytes explicitly"
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
        block_bytes: Optional[int] = None,
        lines_per_block: Optional[int] = None,
        payload: Optional[bytes] = None,
    ):
        self.frontend = frontend
        self.timing = timing
        self.proc = proc
        if block_bytes is None:
            block_bytes = frontend_block_bytes(frontend)
        self.block_bytes = block_bytes
        self.lines_per_block = (
            lines_per_block
            if lines_per_block is not None
            else max(block_bytes // proc.line_bytes, 1)
        )
        self.payload = payload if payload is not None else bytes(block_bytes)
        self.cycles: float = 0.0
        self.events = 0
        #: Replay tier this engine was resolved for (see for_mode).
        self.mode = "compiled"
        # Baselines for delta counters: a caller may hand the engine a
        # frontend (or crypto suite) that has already served traffic.
        self._data_bytes0 = frontend.data_bytes_moved
        self._posmap_bytes0 = frontend.posmap_bytes_moved
        crypto = getattr(frontend, "crypto", None)
        self._crypto = crypto
        self._prf_calls0 = crypto.prf.call_count if crypto is not None else 0
        # Tree-access count -> latency, filled on a miss: the latency
        # model is a pure function of a count that takes a handful of
        # values.
        self._latency_memo: dict = {}
        # Compiled core (repro.sim.native._replay_core) — None until
        # enable_native() is handed one; every simulated outcome is
        # bit-identical either way.
        self._native = None

    @classmethod
    def for_mode(cls, frontend, timing, mode=None, **kwargs) -> "ReplayEngine":
        """An engine with the replay tier resolved and switched on.

        The one place ``mode`` (or ``REPRO_NATIVE`` when it is ``None``)
        turns into engine state, shared by :func:`replay_trace` and the
        serving layer: ``engine.mode`` is the resolved tier and
        ``compiled`` has the native core enabled on the engine and on the
        frontend; ``scalar`` enables nothing.
        """
        engine = cls(frontend, timing, **kwargs)
        engine.mode, core = resolve_tier(mode)
        engine.enable_native(core)
        return engine

    # -- compiled-core opt-in --------------------------------------------------

    def enable_native(self, core) -> None:
        """Route the fused inner loop through the compiled core.

        The engine's own stages (translate, access driver, accumulate)
        switch to the C spellings, and the frontend is handed the core
        for its own kernel (``FrontendKernel``: PLB frontends on a
        columnar backend — whose ``AccessKernel`` it was built with —
        and the fast crypto suite; ``RecursiveKernel``: R_X8 with every
        level columnar; anything else declines and keeps its Python
        ``access``). Passing ``None`` is a no-op so callers can write
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
        """Line-address column -> block addresses for this geometry."""
        if self._native is not None:
            return self._native.translate_block_addrs(
                line_addrs, self.lines_per_block
            )
        return translate_block_addrs(line_addrs, self.lines_per_block)

    # -- the replay loop ------------------------------------------------------

    def run_batch(self, addrs: Sequence[int], writes: Sequence[bool]) -> List[float]:
        """Drive one batch of block-level requests through the frontend.

        The batch is accessed event by event with hoisted constants —
        one C call for the whole batch when the frontend kernel is
        engaged. Its latencies are read from the per-count memo and
        then accumulated onto ``self.cycles`` as an event-ordered left
        fold, so splitting a trace across successive ``run_batch`` calls
        is bit-identical to one whole-trace call.

        Returns the per-event latencies (the serving layer's per-request
        service times). The kernels count in the owners' ledger columns in
        place, so every counter is current whenever Python can look: after
        the batch, and inside any callback it runs.
        """
        access = self.frontend.access
        native = self._native
        if native is not None:
            # The C driver performs the identical per-event calls in the
            # identical order; only interpreter dispatch is removed (and,
            # handed an engaged frontend's own bound ``access``, the
            # Python frame and the AccessResult of every event).
            ns = native.run_access_loop(
                access, addrs, writes, Op.READ, Op.WRITE, self.payload
            )
        else:
            read_op, write_op, payload = Op.READ, Op.WRITE, self.payload
            ns = []
            record = ns.append
            for addr, w in zip(addrs, writes):
                if w:
                    result = access(addr, write_op, payload)
                else:
                    result = access(addr, read_op)
                record(result.tree_accesses)
        memo = self._latency_memo
        try:
            latencies = [memo[n] for n in ns]
        except KeyError:
            for n in set(ns).difference(memo):
                memo[n] = self.timing.miss_latency(n)
            latencies = [memo[n] for n in ns]
        if native is not None:
            # Same event-ordered left fold, in C doubles (IEEE-754 adds
            # identical to CPython float +=).
            self.cycles = native.accumulate(self.cycles, latencies)
        else:
            for latency in latencies:
                self.cycles += latency
        self.events += len(ns)
        return latencies

    def run_trace(self, trace: MissTrace) -> None:
        """Whole-trace replay, on either tier: one batch of columns."""
        line_addrs, is_write = trace.columns()
        self.run_batch(self.translate(line_addrs), is_write.tolist())

    # -- result assembly -------------------------------------------------------

    def result(self, trace: MissTrace, scheme: str = "oram") -> SimResult:
        """Assemble the :class:`SimResult` for a trace this engine served."""
        frontend = self.frontend
        stats = frontend.stats
        plb_hit_rate = (
            stats.plb_hits / (stats.plb_hits + stats.plb_misses)
            if (stats.plb_hits + stats.plb_misses)
            else 0.0
        )
        crypto = self._crypto
        return SimResult(
            benchmark=trace.name,
            scheme=scheme,
            cycles=self.cycles,
            instructions=trace.instructions,
            llc_misses=trace.llc_misses,
            oram_accesses=trace.num_events,
            tree_accesses=stats.tree_accesses,
            data_bytes=frontend.data_bytes_moved - self._data_bytes0,
            posmap_bytes=frontend.posmap_bytes_moved - self._posmap_bytes0,
            plb_hit_rate=plb_hit_rate,
            mpki=trace.mpki,
            prf_calls=(
                crypto.prf.call_count - self._prf_calls0
                if crypto is not None
                else 0
            ),
        )
