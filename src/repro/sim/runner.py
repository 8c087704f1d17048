"""Experiment orchestration: benchmarks x schemes with trace caching.

One cache simulation per benchmark produces a :class:`MissTrace`; the
trace is then replayed against every requested scheme (and the insecure
baseline), so all schemes see byte-identical miss streams — the paper's
methodology, and the property that makes scheme-vs-scheme ratios
meaningful at simulation scale.

Schemes are addressed declaratively: every run accepts a registered name
(``"PIC_X32"``), a spec mini-language string
(``"PIC_X32:plb=32KiB,storage=object"``, ``"P_X16:storage=columnar"``), or
a :class:`~repro.spec.SchemeSpec` value. Because the result-cache key is
the sized spec's canonical serialization, every storage backend (object,
columnar) keys its own cells automatically. The runner sizes the spec
*underneath* any explicit deltas — ``num_blocks`` from the benchmark's
working set, ``block_bytes`` and ``onchip_entries`` from its
:class:`~repro.config.Platform` row — builds the frontend via
``spec.build()``, and keys the result cache on the sized spec's
canonical serialization — there is no hand-maintained override list
anywhere in the cache-key path.

Trace seeding is fully deterministic: the per-benchmark RNG fork salt is
a CRC32 of the benchmark name, never the salted builtin ``hash`` (which
varies with ``PYTHONHASHSEED`` and across processes). That determinism
is what allows the scale-out layers stacked on top:

- traces are persisted to an on-disk trace store
  (:mod:`repro.sim.store`) keyed by (benchmark, seed, processor config,
  miss budget, warmup), so repeated invocations skip cache simulation;
  cold traces are synthesised in this process (10-120 ms each), which
  the forked workers inherit;
- finished cells are persisted to the result store, so :meth:`execute`
  only replays a :class:`Cell` whose configuration it has never seen — a
  repeated invocation performs zero ``replay_trace`` calls;
- :meth:`execute` fans the remaining cold cells out over the sweep
  fabric with that many forked local workers (``workers=`` or
  ``REPRO_WORKERS``), streaming completed cells through an optional
  ``progress`` callback, with results bitwise identical to the serial
  path. :meth:`run_one` is one cell of it; a matrix of cells with a
  report is :func:`repro.sim.sweep.run_sweep`.

``force=True`` (or ``REPRO_FORCE=1``, or ``python -m repro --force ...``)
bypasses *loads* from both on-disk caches without disabling them: every
cell is recomputed and the fresh trace/result overwrites the cached entry
— a refresh, not an opt-out.

Scale is controlled by ``misses_per_benchmark``; set the environment
variable ``REPRO_FULL=1`` (or pass explicit values) for longer runs.
Every default a keyword leaves open is a field of
:class:`repro.settings.Settings`, read when the call is made.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import Platform, ProcessorConfig
from repro.errors import ConfigurationError
from repro.faults import fault_hook
from repro.proc.hierarchy import MAX_REFS_PER_MISS, CacheHierarchy, MissTrace
from repro.resilience import RetryPolicy
from repro.settings import Settings
from repro.sim.metrics import SimResult
from repro.sim.native import load_native_core
from repro.sim.store import ResultCache, TraceCache, result_key, trace_key
from repro.sim.system import insecure_cycles, replay_trace
from repro.sim.timing import OramTimingModel, timing_for_frontend
from repro.spec import (
    SchemeSpec,
    decompose_spec,
    get_spec,
    parse_scheme_string,
    render_scheme_string,
    resolve_spec,
)
from repro.utils.bitops import next_pow2
from repro.utils.rng import DeterministicRng
from repro.utils.units import format_bytes
from repro.workloads.spec import SpecStandIn, benchmark

#: A scheme argument: registered name, spec string, or SchemeSpec value.
SchemeLike = Union[str, SchemeSpec]

#: Streamed-cell callback: (scheme label, benchmark, result, from_cache).
ProgressCallback = Callable[[str, str, SimResult, bool], None]


@dataclass(frozen=True)
class Cell:
    """One unit of work: a benchmark replayed against one sized scheme.

    ``key`` is the cell's result-store address (see
    :meth:`SimulationRunner.result_key`) — also its fabric task id.
    ``spec`` is the scheme sized for the benchmark; ``None`` is the
    insecure-DRAM baseline (``label == "insecure"``).
    Picklable and self-contained: a worker needs neither the scheme
    registry nor the sizing rules to run it.
    """

    key: str
    label: str
    bench: str
    spec: Optional[SchemeSpec]

    def task(self, misses: int) -> Dict[str, object]:
        """The fabric lease task that computes this cell at ``misses``."""
        return {
            "id": self.key,
            "label": self.label,
            "bench": self.bench,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "misses": misses,
        }


def stable_trace_salt(bench_name: str) -> int:
    """Process-independent RNG fork salt for a benchmark name.

    The builtin ``hash`` is salted per process (``PYTHONHASHSEED``), which
    would make traces — and therefore every scheme-vs-scheme ratio — vary
    between runs; CRC32 is stable everywhere.
    """
    return zlib.crc32(bench_name.encode("utf-8")) & 0xFFFF


def blocks_needed(bench_name: str, block_bytes: int) -> int:
    """The blocks a benchmark's ORAM is sized to: its working set, rounded
    up to a power of two (the capacity simulated, not the paper's)."""
    return next_pow2(max(benchmark(bench_name).wss_bytes // block_bytes, 2))


def synthesize_trace(
    spec: SpecStandIn,
    rng: DeterministicRng,
    proc: ProcessorConfig,
    name: str,
    max_llc_misses: int,
    warmup_refs: int,
) -> MissTrace:
    """LLC miss trace of a stand-in's reference stream (§7.1.1).

    The one place a trace is made. With the extension built it is one C
    call — mixture, MT19937 draws and both cache levels — resumed from
    the states of the same forked streams :meth:`SpecStandIn.refs`
    draws from, so the trace is the same bytes as the interpreted
    ``CacheHierarchy.run(spec.refs(rng))``, which is the reference and
    what runs without the extension or for a stand-in outside the
    kernel's 32-bit draw range (it answers ``OverflowError``). The
    kernel refuses ``max_llc_misses <= 0`` with ``ValueError``: the
    stream is infinite. A stand-in that stops missing (its working set
    fits in the L2) ends both tiers short of the budget after
    :data:`~repro.proc.hierarchy.MAX_REFS_PER_MISS` measured references
    per miss, and raises :class:`~repro.errors.ConfigurationError`.
    """
    trace = None
    core = load_native_core()
    if core is not None:
        states = rng.fork(0xF00D).mt_state()
        rows = []
        for i, (_weight, p) in enumerate(spec.patterns):
            states.extend(rng.fork(i).mt_state())
            rows.append(
                (p.kind, p.wss(spec.wss_bytes), p.step, p.alpha,
                 p.hot_fraction, p.hot_probability, p.offset)
            )
        try:
            line_addrs, is_write, *counters = core.synthesize_trace(
                rows,
                spec.cumulative_weights(),
                spec.write_fraction,
                spec.gap_instructions,
                states,
                (proc.line_bytes, proc.l1_bytes, proc.l1_ways,
                 proc.l2_bytes, proc.l2_ways),
                warmup_refs,
                max_llc_misses,
            )
        except OverflowError:
            pass
        else:
            trace = MissTrace.from_columns(name, counters, line_addrs, is_write)
    if trace is None:
        trace = CacheHierarchy(proc).run(
            spec.refs(rng),
            name=name,
            max_llc_misses=max_llc_misses,
            warmup_refs=warmup_refs,
        )
    if trace.llc_misses < max_llc_misses:
        raise ConfigurationError(
            f"trace {name!r} stops missing: {trace.mem_refs} references made "
            f"{trace.llc_misses} of its {max_llc_misses} LLC misses (at most "
            f"{MAX_REFS_PER_MISS} per miss): its working set is "
            f"{format_bytes(spec.wss_bytes)} against a "
            f"{format_bytes(proc.l2_bytes)} L2"
        )
    return trace


class SimulationRunner:
    """Caches miss traces and replay results (in memory and on disk), at
    ``platform`` (default :data:`repro.eval.paper_values.TABLE1`)."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        seed: int = 2015,
        misses_per_benchmark: Optional[int] = None,
        cache_dir: Union[str, Path, None] = "auto",
        result_cache_dir: Union[str, Path, None] = "auto",
        force: Optional[bool] = None,
    ):
        if platform is None:
            from repro.eval.paper_values import TABLE1  # repro.eval imports this module

            platform = TABLE1
        self.platform = platform
        self.proc = platform.proc
        self.dram = platform.dram
        self.seed = seed
        settings = Settings.from_env()
        self.misses = (
            misses_per_benchmark
            if misses_per_benchmark is not None
            else settings.miss_budget
        )
        self.force = settings.force if force is None else bool(force)
        if cache_dir == "auto":
            cache_dir = settings.trace_cache
        self.trace_cache = TraceCache(cache_dir) if cache_dir is not None else None
        if result_cache_dir == "auto":
            result_cache_dir = settings.result_cache
        self.result_cache = (
            ResultCache(result_cache_dir) if result_cache_dir is not None else None
        )
        self._traces: Dict[str, MissTrace] = {}
        self.fabric_stats: Optional[Dict[str, object]] = None  # see execute()

    # -- traces -----------------------------------------------------------------

    def _warmup_refs(self, bench_name: str) -> int:
        """Warm the caches over ~2.5 working-set sweeps (capped) so the
        measured region excludes compulsory misses, mirroring the paper's
        1B-instruction warmup."""
        wss_lines = benchmark(bench_name).wss_bytes // self.proc.line_bytes
        return min(int(2.5 * wss_lines), 900_000)

    def trace_cache_key(self, bench_name: str) -> str:
        """Disk-cache key for a benchmark under this runner's config."""
        return trace_key(
            bench_name, self.seed, self.proc, self.misses, self._warmup_refs(bench_name)
        )

    def trace(self, bench_name: str) -> MissTrace:
        """Miss trace for a benchmark (cached in memory and on disk)."""
        cached = self._traces.get(bench_name)
        if cached is not None:
            return cached
        loaded = self._trace_from_disk(bench_name)
        if loaded is not None:
            return loaded
        rng = DeterministicRng(self.seed).fork(stable_trace_salt(bench_name))
        trace = synthesize_trace(
            benchmark(bench_name),
            rng,
            self.proc,
            name=bench_name,
            max_llc_misses=self.misses,
            warmup_refs=self._warmup_refs(bench_name),
        )
        if self.trace_cache is not None:
            self.trace_cache.store(self.trace_cache_key(bench_name), trace)
        self._traces[bench_name] = trace
        return trace

    def _trace_from_disk(self, bench_name: str) -> Optional[MissTrace]:
        """Disk-cache lookup only (no generation); memoises on hit.

        ``force`` treats the disk cache as cold so the trace is
        re-simulated (and the entry refreshed by :meth:`trace`).
        """
        if self.trace_cache is None or self.force:
            return None
        loaded = self.trace_cache.load(self.trace_cache_key(bench_name))
        if loaded is not None and loaded.name == bench_name:
            self._traces[bench_name] = loaded
            return loaded
        return None

    # -- scheme specs -----------------------------------------------------------

    def sized_spec(
        self, scheme: SchemeLike, bench_name: str, **overrides
    ) -> Tuple[SchemeSpec, str]:
        """(spec sized for the benchmark, display label) for one cell.

        Runner-level sizing — ``num_blocks`` from the benchmark's working
        set, ``block_bytes`` and ``onchip_entries`` from the platform row
        — is applied to the scheme's registered base (whose own
        ``plb_capacity_bytes`` stands), *underneath* the scheme's own explicit
        deltas (a spec-string suffix or SchemeSpec field changes) and the
        per-call ``overrides``. Unknown override keys raise
        :class:`~repro.errors.SpecError` naming the valid spec fields.

        The label is the spec's normalized mini-language image before
        sizing (``"PC_X32"``, ``"PIC_X32:plb_capacity_bytes=8192"``), so
        result tables stay keyed by the paper's scheme names.

        Spec *strings* keep every delta they wrote, even one equal to the
        registry default (``"PC_X32:onchip=2048"`` pins 2048 though the
        base already says 2048) — the parse is authoritative. A bare
        ``SchemeSpec`` value carries no record of which fields were set
        deliberately, so its deltas are recovered by diffing against the
        nearest base; to pin a field *at* a registry default, spell the
        scheme as a string or pass a per-call override.
        """
        base_name, deltas, label = self._resolve(scheme)
        merged = dict(deltas)
        merged.update(overrides)
        block_bytes = merged.get("block_bytes", self.platform.block_bytes)
        sizing = dict(
            block_bytes=block_bytes,
            num_blocks=blocks_needed(bench_name, block_bytes),
            onchip_entries=self.platform.onchip_entries,
        )
        sizing.update(merged)
        return get_spec(base_name).with_(**sizing), label

    @staticmethod
    def _resolve(scheme: SchemeLike) -> Tuple[str, Dict[str, object], str]:
        """(base name, explicit deltas, normalized label) for a scheme.

        Strings go through the mini-language parser so their deltas are
        exactly what the user wrote; SchemeSpec values are decomposed
        against the registry (see :meth:`sized_spec`).
        """
        if isinstance(scheme, str):
            name, deltas = parse_scheme_string(scheme)
        else:
            name, deltas = decompose_spec(resolve_spec(scheme))
        return name, deltas, render_scheme_string(name, deltas)

    def build(self, scheme: SchemeLike, bench_name: str, **overrides):
        """Instantiate a scheme sized for a benchmark's working set."""
        spec, _label = self.sized_spec(scheme, bench_name, **overrides)
        return self._build_spec(spec)

    def _build_spec(self, spec: SchemeSpec):
        return spec.build(rng=DeterministicRng(self.seed ^ 0xA5A5))

    def timing_for(self, frontend) -> OramTimingModel:
        """Timing model matched to a frontend's tree geometry."""
        return timing_for_frontend(frontend, self.dram, self.proc.core_ghz)

    # -- cells --------------------------------------------------------------------

    def _cell(self, label: str, bench_name: str, spec: Optional[SchemeSpec]) -> Cell:
        canonical = "insecure" if spec is None else f"{label}::{spec.canonical()}"
        key = result_key(
            canonical,
            bench_name,
            self.seed,
            self.proc,
            self.dram,
            self.misses,
            self._warmup_refs(bench_name),
        )
        return Cell(key, label, bench_name, spec)

    def cells(
        self, schemes: Iterable[SchemeLike], benchmarks: Iterable[str], **overrides
    ) -> List[Cell]:
        """One :class:`Cell` per (scheme, benchmark), scheme-major.

        ``schemes`` entries may be registered names, spec strings, or
        SchemeSpec values; schemes that normalise to one label collapse to
        its first occurrence. Each cell carries its own benchmark-sized
        spec (:meth:`sized_spec`).
        """
        names = list(benchmarks)
        out: List[Cell] = []
        seen = set()
        for scheme in schemes:
            label = self._resolve(scheme)[2]
            if label in seen:
                continue
            seen.add(label)
            for name in names:
                spec, _label = self.sized_spec(scheme, name, **overrides)
                out.append(self._cell(label, name, spec))
        return out

    def baseline_cells(self, benchmarks: Iterable[str]) -> List[Cell]:
        """The insecure-DRAM baseline cell of each benchmark."""
        return [self._cell("insecure", name, None) for name in benchmarks]

    def result_key(self, scheme: SchemeLike, bench_name: str, **overrides) -> str:
        """Result-store key for one cell under this runner's config.

        ``scheme="insecure"`` keys the DRAM baseline (no spec involved);
        anything else is keyed on the display label plus the
        benchmark-sized spec's canonical serialization, so every
        construction knob re-keys automatically — and two spellings of
        one configuration with different labels (``"PC_X32"`` plus an
        override vs ``"PC_X32:plb=8KiB"``) occupy distinct entries
        instead of overwriting each other (``SimResult.scheme`` carries
        the label, so the label is part of the result's identity).
        """
        if scheme == "insecure":
            return self.baseline_cells([bench_name])[0].key
        return self.cells([scheme], [bench_name], **overrides)[0].key

    def _load_cached(self, cell: Cell) -> Optional[SimResult]:
        """Result-store lookup for one cell (None on miss/force/no store)."""
        if self.result_cache is None or self.force:
            return None
        cached = self.result_cache.load(cell.key)
        if cached is not None and (cached.scheme, cached.benchmark) == (
            cell.label,
            cell.bench,
        ):
            return cached
        return None

    def run_cell(
        self, cell: Cell, attempt: int = 1, *, missed: bool = False
    ) -> SimResult:
        """Compute one cell in this process, through the result store.

        ``missed=True`` says the caller has just looked the cell up and
        found nothing (:meth:`execute`'s serial path), so the store is
        not asked again; a fabric worker and :meth:`run_one` ask it here.
        """
        fault_hook("cell", f"{cell.label}/{cell.bench}/{attempt}")
        if not missed:
            cached = self._load_cached(cell)
            if cached is not None:
                return cached
        trace = self.trace(cell.bench)
        if cell.spec is None:
            result = insecure_cycles(trace, self.proc)
        else:
            frontend = self._build_spec(cell.spec)
            result = replay_trace(
                frontend, trace, self.timing_for(frontend), proc=self.proc,
                scheme=cell.label,
            )
        if self.result_cache is not None:
            self.result_cache.store(cell.key, result)
        return result

    def run_one(
        self, scheme: SchemeLike, bench_name: str, **overrides
    ) -> SimResult:
        """Replay one benchmark against one scheme (result-cached)."""
        return self.run_cell(self.cells([scheme], [bench_name], **overrides)[0])

    def derive(self, **changes) -> "SimulationRunner":
        """A runner with constructor fields replaced, caches shared.

        The derived runner keeps this runner's platform, seed and on-disk cache locations (the same payload a worker
        process is built from) with ``changes`` applied on top — e.g.
        ``runner.derive(misses_per_benchmark=2000)`` for a sweep axis
        over the miss budget. In-memory trace state is *not* shared: a
        different budget means different traces by construction.
        """
        payload = self._spawn_payload()
        unknown = sorted(set(changes) - set(payload))
        if unknown:
            raise TypeError(
                f"unknown runner field(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(payload))}"
            )
        payload.update(changes)
        return SimulationRunner(**payload)  # type: ignore[arg-type]

    def _spawn_payload(self) -> Dict[str, object]:
        """Constructor kwargs that recreate this runner in a worker process."""
        return dict(
            platform=self.platform,
            seed=self.seed,
            misses_per_benchmark=self.misses,
            cache_dir=self.trace_cache.root if self.trace_cache is not None else None,
            result_cache_dir=(
                self.result_cache.root if self.result_cache is not None else None
            ),
            force=self.force,
        )

    # -- experiments ------------------------------------------------------------------

    def execute(
        self,
        cells: Sequence[Cell],
        *,
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
    ) -> Dict[str, SimResult]:
        """Get-or-compute every cell; returns ``{cell.key: result}``.

        Incremental: cells present in the result store are served without
        touching traces or frontends; only cold cells are computed — with
        ``workers > 1`` and two or more of them, scheme cells run on a
        :class:`~repro.fabric.FabricCoordinator` with ``workers`` forked
        local workers for the duration of the call (baselines are
        arithmetic on the trace and stay in this process). This is the
        one parallel path: :func:`~repro.sim.sweep.run_sweep` and the
        CLI's ``--workers`` come here. Each cell is looked up once, here,
        and the coordinator gets the cold ones as its tasks. Missing
        traces are synthesised here first; the forks inherit them with
        this runner and its own stores (none when it has none), so
        workers only replay and send each result back in a frame. Every
        task derives its RNG from the runner seed alone (never from
        scheduling), so parallel results are bitwise identical to the
        serial path. ``progress`` is invoked once per cell, as it
        completes, with (scheme label, benchmark, result, cached). After
        a call, ``self.fabric_stats`` is its coordinator's ``stats()``,
        or None when it needed none.

        Self-healing: a cell that raises is re-dispatched under ``retry``
        (default :meth:`RetryPolicy.from_settings`) — serially with
        exponential backoff; on the fabric a dead worker is respawned, and
        one whose cell runs longer than ``retry.timeout`` is reclaimed and
        respawned. A cell that fails every attempt is quarantined into
        ``failures`` (and omitted from the returned mapping) when a list
        is supplied; with ``failures=None`` its last error propagates —
        on the fabric rebuilt from the worker's report, with the same type
        whenever that is one of :data:`~repro.errors.CELL_FAILURES`.
        """
        settings = Settings.from_env()
        if workers is None:
            workers = settings.workers
        if retry is None:
            retry = RetryPolicy.from_settings(settings)
        out: Dict[str, SimResult] = {}
        self.fabric_stats = None

        def done(cell: Cell, result: SimResult, cached: bool) -> None:
            out[cell.key] = result
            if progress is not None:
                progress(cell.label, cell.bench, result, cached)

        cold: List[Cell] = []
        for cell in cells:
            cached = self._load_cached(cell)
            if cached is not None:
                done(cell, cached, True)
            else:
                cold.append(cell)
        for name in dict.fromkeys(cell.bench for cell in cold):
            self.trace(name)
        forked = [cell for cell in cold if cell.spec is not None]
        if workers <= 1 or len(forked) < 2:
            forked = []
        serial = [cell for cell in cold if cell.spec is None] if forked else cold
        for cell in serial:
            result = self._with_retry(cell, retry, failures)
            if result is not None:  # else quarantined
                done(cell, result, False)
        if forked:
            from repro.fabric import FabricCoordinator

            # Already looked up and their traces made: the forks only replay.
            cell_of = {(cell.label, cell.bench): cell for cell in forked}
            with FabricCoordinator(
                self, spawn=min(workers, len(forked))
            ) as coordinator:
                coordinator.execute(
                    [cell.task(self.misses) for cell in forked],
                    retry=retry,
                    failures=failures,
                    progress=lambda label, bench, result, cached: done(
                        cell_of[label, bench], result, cached
                    ),
                )
                self.fabric_stats = coordinator.stats()
        return out

    def _with_retry(
        self,
        cell: Cell,
        retry: RetryPolicy,
        failures: Optional[List[dict]],
    ) -> Optional[SimResult]:
        """Run one cell with deterministic backoff; None when quarantined.

        ``KeyboardInterrupt`` always propagates (Ctrl-C must reach the
        sweep's interrupt handler, never burn retry budget). With
        ``failures=None`` the final error re-raises; otherwise the cell is
        quarantined into ``failures`` and the suite continues.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(1, retry.attempts + 1):
            delay = retry.delay(attempt)
            if delay:
                time.sleep(delay)
            try:
                return self.run_cell(cell, attempt, missed=True)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                last_error = exc
        if failures is None:
            raise last_error
        failures.append({
            "scheme": cell.label,
            "benchmark": cell.bench,
            "attempts": retry.attempts,
            "error": f"{type(last_error).__name__}: {last_error}",
        })
        return None
