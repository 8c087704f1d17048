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
columnar) keys its own cells automatically. The runner sizes the spec for the
benchmark's working set (``num_blocks``, ``block_bytes``,
``onchip_entries``, ``plb_capacity_bytes``) *underneath* any explicit
deltas, builds the frontend via ``spec.build()``, and keys the result
cache on the sized spec's canonical serialization — there is no
hand-maintained override list anywhere in the cache-key path.

Trace seeding is fully deterministic: the per-benchmark RNG fork salt is
a CRC32 of the benchmark name, never the salted builtin ``hash`` (which
varies with ``PYTHONHASHSEED`` and across processes). That determinism
is what allows the scale-out layers stacked on top:

- traces are persisted to an on-disk :class:`TraceCache` keyed by
  (benchmark, seed, processor config, miss budget, warmup), so repeated
  invocations — and every worker process — skip cache simulation;
- trace *generation* itself is sharded across the worker pool: each cold
  benchmark is simulated by one worker and shipped back packed, instead
  of being generated serially in the parent;
- finished cells are persisted to an on-disk :class:`ResultCache`, so
  ``run_suite`` only replays cells whose configuration it has never seen
  — a repeated invocation performs zero ``replay_trace`` calls;
- ``run_suite`` fans the remaining cold (scheme, benchmark) matrix out
  over a process pool (``workers=`` or ``REPRO_WORKERS``), streaming
  completed cells through an optional ``progress`` callback, with
  results bitwise identical to the serial path.

``force=True`` (or ``REPRO_FORCE=1``, or ``python -m repro --force ...``)
bypasses *loads* from both on-disk caches without disabling them: every
cell is recomputed and the fresh trace/result overwrites the cached entry
— a refresh, not an opt-out.

Scale is controlled by ``misses_per_benchmark``; set the environment
variable ``REPRO_FULL=1`` (or pass explicit values) for longer runs.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
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

from repro.config import ProcessorConfig
from repro.dram.config import DramConfig
from repro.faults import fault_hook, install_from_env
from repro.proc.hierarchy import CacheHierarchy, MissTrace
from repro.resilience import RetryPolicy
from repro.sim.metrics import SimResult
from repro.sim.native import load_native_core
from repro.sim.result_cache import ResultCache, default_result_cache_dir, result_key
from repro.sim.system import insecure_cycles, replay_trace
from repro.sim.timing import OramTimingModel, timing_for_frontend
from repro.sim.trace_cache import TraceCache, default_cache_dir, trace_key
from repro.spec import (
    SchemeSpec,
    decompose_spec,
    get_spec,
    parse_scheme_string,
    render_scheme_string,
    resolve_spec,
)
from repro.utils.rng import DeterministicRng
from repro.workloads.spec import SPEC_BENCHMARKS, SpecStandIn, benchmark

#: Environment variable supplying the default ``run_suite`` worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable enabling cache-bypassing (refresh) runs.
FORCE_ENV = "REPRO_FORCE"

#: A scheme argument: registered name, spec string, or SchemeSpec value.
SchemeLike = Union[str, SchemeSpec]

#: Streamed-cell callback: (scheme label, benchmark, result, from_cache).
ProgressCallback = Callable[[str, str, SimResult, bool], None]


def _quarantine_entry(label: str, name: str, attempts: int, error: BaseException):
    """Report record for a cell that failed every re-dispatch."""
    return {
        "scheme": label,
        "benchmark": name,
        "attempts": attempts,
        "error": f"{type(error).__name__}: {error}",
    }


def default_miss_budget() -> int:
    """Per-benchmark LLC miss budget (env-tunable)."""
    if os.environ.get("REPRO_FULL"):
        return 50_000
    return 6_000


def default_workers() -> int:
    """Worker-pool size from ``REPRO_WORKERS`` (defaults to serial)."""
    try:
        return max(int(os.environ.get(WORKERS_ENV, "1")), 1)
    except ValueError:
        return 1


def default_force() -> bool:
    """Cache-refresh default from ``REPRO_FORCE`` (off unless truthy)."""
    return os.environ.get(FORCE_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def stable_trace_salt(bench_name: str) -> int:
    """Process-independent RNG fork salt for a benchmark name.

    The builtin ``hash`` is salted per process (``PYTHONHASHSEED``), which
    would make traces — and therefore every scheme-vs-scheme ratio — vary
    between runs; CRC32 is stable everywhere.
    """
    return zlib.crc32(bench_name.encode("utf-8")) & 0xFFFF


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
    stream is infinite.
    """
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
            return MissTrace.from_columns(name, counters, line_addrs, is_write)
    return CacheHierarchy(proc).run(
        spec.refs(rng),
        name=name,
        max_llc_misses=max_llc_misses,
        warmup_refs=warmup_refs,
    )


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 1).bit_length() if n > 1 else 1


class SimulationRunner:
    """Caches miss traces and replay results (in memory and on disk)."""

    def __init__(
        self,
        proc: ProcessorConfig = ProcessorConfig(),
        dram: Optional[DramConfig] = None,
        proc_ghz: float = 1.3,
        seed: int = 2015,
        misses_per_benchmark: Optional[int] = None,
        plb_capacity_bytes: int = 64 * 1024,
        onchip_entries: int = 2**10,
        cache_dir: Union[str, Path, None] = "auto",
        result_cache_dir: Union[str, Path, None] = "auto",
        force: Optional[bool] = None,
    ):
        self.proc = proc
        self.dram = dram if dram is not None else DramConfig()
        self.proc_ghz = proc_ghz
        self.seed = seed
        self.misses = (
            misses_per_benchmark
            if misses_per_benchmark is not None
            else default_miss_budget()
        )
        self.plb_capacity_bytes = plb_capacity_bytes
        self.onchip_entries = onchip_entries
        self.force = default_force() if force is None else bool(force)
        if cache_dir == "auto":
            cache_dir = default_cache_dir()
        self.trace_cache = TraceCache(cache_dir) if cache_dir is not None else None
        if result_cache_dir == "auto":
            result_cache_dir = default_result_cache_dir()
        self.result_cache = (
            ResultCache(result_cache_dir) if result_cache_dir is not None else None
        )
        self._traces: Dict[str, MissTrace] = {}

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
        return self._generate_trace(bench_name)

    def _trace_from_disk(self, bench_name: str) -> Optional[MissTrace]:
        """Disk-cache lookup only (no generation); memoises on hit.

        ``force`` treats the disk cache as cold so the trace is
        re-simulated (and the entry refreshed by :meth:`_generate_trace`).
        """
        if self.trace_cache is None or self.force:
            return None
        loaded = self.trace_cache.load(self.trace_cache_key(bench_name))
        if loaded is not None and loaded.name == bench_name:
            self._traces[bench_name] = loaded
            return loaded
        return None

    def _generate_trace(self, bench_name: str) -> MissTrace:
        """Simulate the cache hierarchy to produce (and persist) a trace."""
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

    def _ensure_traces(self, names: Sequence[str], workers: int) -> None:
        """Materialise every named trace, sharding generation over workers.

        Benchmarks already in memory or on disk are loaded in-process;
        only genuinely cold traces are simulated, each by one worker (the
        worker also persists it to the shared disk cache). Generation is
        seeded per benchmark, never by pool scheduling, so sharded traces
        are bitwise identical to locally generated ones.
        """
        cold = [
            name
            for name in dict.fromkeys(names)
            if name not in self._traces and self._trace_from_disk(name) is None
        ]
        if len(cold) < 2 or workers <= 1:
            for name in cold:
                self._generate_trace(name)
            return
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cold)),
            initializer=_worker_init,
            initargs=(self._spawn_payload(), {}),
        ) as pool:
            futures = [pool.submit(_worker_trace, name) for name in cold]
            for future in as_completed(futures):
                name, packed = future.result()
                self._traces[name] = MissTrace.from_bytes(packed)

    # -- scheme specs -----------------------------------------------------------

    def _blocks_needed(self, bench_name: str, block_bytes: int) -> int:
        wss = benchmark(bench_name).wss_bytes
        return _next_pow2(max(wss // block_bytes, 2))

    def sized_spec(
        self, scheme: SchemeLike, bench_name: str, **overrides
    ) -> Tuple[SchemeSpec, str]:
        """(spec sized for the benchmark, display label) for one cell.

        Runner-level sizing — ``block_bytes`` from the processor line,
        ``num_blocks`` from the benchmark's working set, this runner's
        ``onchip_entries``/``plb_capacity_bytes`` — is applied to the
        scheme's registered base, *underneath* the scheme's own explicit
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
        block_bytes = merged.get("block_bytes", self.proc.line_bytes)
        sizing = dict(
            block_bytes=block_bytes,
            num_blocks=self._blocks_needed(bench_name, block_bytes),
            onchip_entries=self.onchip_entries,
            plb_capacity_bytes=self.plb_capacity_bytes,
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
        return timing_for_frontend(frontend, self.dram, self.proc_ghz)

    # -- experiments ------------------------------------------------------------------

    def result_key(self, scheme: SchemeLike, bench_name: str, **overrides) -> str:
        """Result-cache key for one cell under this runner's config.

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
            canonical = "insecure"
        else:
            spec, label = self.sized_spec(scheme, bench_name, **overrides)
            canonical = f"{label}::{spec.canonical()}"
        return result_key(
            canonical,
            bench_name,
            self.seed,
            self.proc,
            self.dram,
            self.proc_ghz,
            self.misses,
            self._warmup_refs(bench_name),
        )

    def _load_cached(self, key: str, label: str, bench_name: str):
        """Result-cache lookup for one cell (None on miss/force/no cache)."""
        if self.result_cache is None or self.force:
            return None
        cached = self.result_cache.load(key)
        if cached is not None and (cached.scheme, cached.benchmark) == (
            label,
            bench_name,
        ):
            return cached
        return None

    def _cell_key(self, spec: SchemeSpec, label: str, bench_name: str) -> str:
        return result_key(
            f"{label}::{spec.canonical()}",
            bench_name,
            self.seed,
            self.proc,
            self.dram,
            self.proc_ghz,
            self.misses,
            self._warmup_refs(bench_name),
        )

    def _run_cell(
        self, spec: SchemeSpec, label: str, bench_name: str, attempt: int = 1
    ) -> SimResult:
        """Replay one benchmark against one sized spec (result-cached)."""
        fault_hook("cell", f"{label}/{bench_name}/{attempt}")
        key = self._cell_key(spec, label, bench_name)
        cached = self._load_cached(key, label, bench_name)
        if cached is not None:
            return cached
        trace = self.trace(bench_name)
        frontend = self._build_spec(spec)
        timing = self.timing_for(frontend)
        result = replay_trace(
            frontend, trace, timing, proc=self.proc, scheme=label
        )
        if self.result_cache is not None:
            self.result_cache.store(key, result)
        return result

    def run_one(
        self, scheme: SchemeLike, bench_name: str, **overrides
    ) -> SimResult:
        """Replay one benchmark against one scheme (result-cached)."""
        spec, label = self.sized_spec(scheme, bench_name, **overrides)
        return self._run_cell(spec, label, bench_name)

    def run_insecure(self, bench_name: str, attempt: int = 1) -> SimResult:
        """Insecure-DRAM baseline for one benchmark (result-cached)."""
        fault_hook("cell", f"insecure/{bench_name}/{attempt}")
        key = self.result_key("insecure", bench_name)
        cached = self._load_cached(key, "insecure", bench_name)
        if cached is not None:
            return cached
        result = insecure_cycles(self.trace(bench_name), self.proc)
        if self.result_cache is not None:
            self.result_cache.store(key, result)
        return result

    def derive(self, **changes) -> "SimulationRunner":
        """A runner with constructor fields replaced, caches shared.

        The derived runner keeps this runner's processor/DRAM config,
        seed and on-disk cache locations (the same payload a worker
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
            proc=self.proc,
            dram=self.dram,
            proc_ghz=self.proc_ghz,
            seed=self.seed,
            misses_per_benchmark=self.misses,
            plb_capacity_bytes=self.plb_capacity_bytes,
            onchip_entries=self.onchip_entries,
            cache_dir=self.trace_cache.root if self.trace_cache is not None else None,
            result_cache_dir=(
                self.result_cache.root if self.result_cache is not None else None
            ),
            force=self.force,
        )

    def _with_retry(
        self,
        run_attempt: Callable[[int], SimResult],
        label: str,
        name: str,
        retry: RetryPolicy,
        failures: Optional[List[dict]],
    ) -> Optional[SimResult]:
        """Run one cell with deterministic backoff; None when quarantined.

        ``KeyboardInterrupt`` always propagates (Ctrl-C must reach the
        sweep's checkpoint handler, never burn retry budget). With
        ``failures=None`` the final error re-raises; otherwise the cell is
        quarantined into ``failures`` and the suite continues.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(1, retry.attempts + 1):
            delay = retry.delay(attempt)
            if delay:
                time.sleep(delay)
            try:
                return run_attempt(attempt)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                last_error = exc
        if failures is None:
            raise last_error
        failures.append(_quarantine_entry(label, name, retry.attempts, last_error))
        return None

    def run_suite(
        self,
        schemes: Sequence[SchemeLike],
        benchmarks: Optional[Iterable[str]] = None,
        *,
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
        **overrides,
    ) -> Dict[str, Dict[str, SimResult]]:
        """All (scheme, benchmark) pairs; results[scheme label][benchmark].

        ``schemes`` entries may be registered names, spec strings, or
        SchemeSpec values; the output is keyed by each scheme's normalized
        label (duplicates collapse to one row). Incremental: cells present
        in the result cache are served without touching traces or
        frontends; only cold cells are replayed — with ``workers > 1``,
        fanned out over a process pool (trace generation included). Every
        task derives its RNG from the runner seed alone (never from pool
        scheduling), so parallel results are bitwise identical to the
        serial path. ``progress`` is invoked once per cell, as it
        completes, with (scheme label, benchmark, result, cached).

        Self-healing: a cell that raises is re-dispatched under ``retry``
        (default :meth:`RetryPolicy.from_env`) with exponential backoff —
        a crashed pool worker rebuilds the pool, and (pool mode only)
        ``retry.timeout`` bounds how long the suite waits without any cell
        completing before the stalled pool is abandoned and rebuilt. A
        cell that fails every attempt is quarantined into ``failures``
        (and omitted from the returned mapping) when a list is supplied;
        with ``failures=None`` the last error propagates.
        """
        names = list(benchmarks) if benchmarks is not None else list(SPEC_BENCHMARKS)
        if workers is None:
            workers = default_workers()
        if retry is None:
            retry = RetryPolicy.from_env()
        # One sized spec per (scheme row, benchmark) cell; rows keyed by
        # normalized label, first occurrence wins.
        rows: Dict[str, Dict[str, SchemeSpec]] = {}
        for scheme in schemes:
            _name, _deltas, label = self._resolve(scheme)
            if label in rows:
                continue
            rows[label] = {
                name: self.sized_spec(scheme, name, **overrides)[0]
                for name in names
            }
        out: Dict[str, Dict[str, SimResult]] = {label: {} for label in rows}
        cold: List[Tuple[str, str, SchemeSpec]] = []
        for label, cell_specs in rows.items():
            for name, spec in cell_specs.items():
                cached = self._load_cached(
                    self._cell_key(spec, label, name), label, name
                )
                if cached is not None:
                    out[label][name] = cached
                    if progress is not None:
                        progress(label, name, cached, True)
                else:
                    cold.append((label, name, spec))
        if cold:
            self._ensure_traces([name for _label, name, _spec in cold], workers)
        if cold and (workers <= 1 or len(cold) < 2):
            for label, name, spec in cold:
                result = self._with_retry(
                    lambda attempt, s=spec, l=label, n=name: self._run_cell(
                        s, l, n, attempt=attempt
                    ),
                    label,
                    name,
                    retry,
                    failures,
                )
                if result is None:
                    continue  # quarantined
                out[label][name] = result
                if progress is not None:
                    progress(label, name, result, False)
        elif cold:
            self._run_cold_pool(
                cold, workers, out, progress, retry, failures
            )
        # Restore submission order (dicts preserve insertion order);
        # quarantined cells are simply absent from their row.
        return {
            label: {name: out[label][name] for name in names if name in out[label]}
            for label in rows
        }

    def _run_cold_pool(
        self,
        cold: List[Tuple[str, str, SchemeSpec]],
        workers: int,
        out: Dict[str, Dict[str, SimResult]],
        progress: Optional[ProgressCallback],
        retry: RetryPolicy,
        failures: Optional[List[dict]],
    ) -> None:
        """Fan cold cells over a process pool that survives worker death.

        Each round builds a fresh pool for the cells still owed. A cell
        whose future raises is re-dispatched next round at ``attempt + 1``
        (or quarantined once the budget is spent); a ``BrokenProcessPool``
        or a ``retry.timeout`` window with no completion abandons the
        whole round — never-ran cells keep their attempt number so fault
        plans keyed on attempts stay deterministic. Workers persist
        results to the shared on-disk result cache themselves, so a cell
        completed by a round that later breaks is served from the cache
        when re-dispatched.
        """
        # Ship the packed traces to every worker so no process ever
        # re-simulates one.
        packed_traces = {
            name: self._traces[name].to_bytes()
            for name in dict.fromkeys(name for _label, name, _spec in cold)
        }
        todo: List[Tuple[str, str, SchemeSpec, int]] = [
            (label, name, spec, 1) for label, name, spec in cold
        ]

        def requeue(cell, error: BaseException) -> None:
            label, name, spec, attempt = cell
            if attempt >= retry.attempts:
                if failures is None:
                    raise error
                failures.append(_quarantine_entry(label, name, attempt, error))
            else:
                todo.append((label, name, spec, attempt + 1))

        round_no = 1
        while todo:
            if round_no > 1:
                time.sleep(retry.delay(round_no))
            batch, todo = todo, []
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(batch)),
                initializer=_worker_init,
                initargs=(self._spawn_payload(), packed_traces),
            )
            broken = False
            try:
                fut_map = {
                    pool.submit(_worker_cell, label, name, spec, attempt): (
                        label,
                        name,
                        spec,
                        attempt,
                    )
                    for label, name, spec, attempt in batch
                }
                pending = set(fut_map)
                while pending:
                    done, pending = wait(
                        pending, timeout=retry.timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:
                        # Nothing completed inside the timeout window: the
                        # pool is stalled. Abandon it (a truly hung worker
                        # is left behind; a finite stall drains on its own)
                        # and charge every in-flight cell one attempt.
                        broken = True
                        stall = TimeoutError(
                            f"no cell completed within {retry.timeout}s"
                        )
                        for future in pending:
                            requeue(fut_map[future], stall)
                        break
                    for future in done:
                        cell = fut_map[future]
                        try:
                            label, name, result = future.result()
                        except KeyboardInterrupt:
                            raise
                        except BrokenProcessPool as exc:
                            broken = True
                            requeue(cell, exc)
                        except Exception as exc:
                            requeue(cell, exc)
                        else:
                            out[label][name] = result
                            if progress is not None:
                                progress(label, name, result, False)
                    if broken:
                        # The pool is dead; cells still queued never ran,
                        # so they re-dispatch at their current attempt.
                        for future in pending:
                            todo.append(fut_map[future])
                        break
            finally:
                pool.shutdown(wait=not broken, cancel_futures=True)
            round_no += 1

    def baselines(
        self,
        benchmarks: Optional[Iterable[str]] = None,
        *,
        workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
    ) -> Dict[str, SimResult]:
        """Insecure baselines keyed by benchmark (cached and fanned out).

        The baseline arithmetic itself is trivial; what costs time is
        generating any missing trace, so cold benchmarks shard their
        trace generation across the worker pool exactly like
        :meth:`run_suite` — and finished baselines land in the result
        cache so ``python -m repro all`` has no serial tail work. Retry
        and quarantine semantics match :meth:`run_suite` (quarantined
        benchmarks are absent from the returned mapping).
        """
        names = list(benchmarks) if benchmarks is not None else list(SPEC_BENCHMARKS)
        if workers is None:
            workers = default_workers()
        if retry is None:
            retry = RetryPolicy.from_env()
        out: Dict[str, SimResult] = {}
        cold: List[str] = []
        for name in names:
            cached = self._load_cached(
                self.result_key("insecure", name), "insecure", name
            )
            if cached is not None:
                out[name] = cached
                if progress is not None:
                    progress("insecure", name, cached, True)
            else:
                cold.append(name)
        if cold:
            self._ensure_traces(cold, workers)
            for name in cold:
                result = self._with_retry(
                    lambda attempt, n=name: self.run_insecure(n, attempt=attempt),
                    "insecure",
                    name,
                    retry,
                    failures,
                )
                if result is None:
                    continue  # quarantined
                out[name] = result
                if progress is not None:
                    progress("insecure", name, result, False)
        return {name: out[name] for name in names if name in out}


# -- worker-process plumbing (module level for picklability) -------------------

_WORKER_RUNNER: Optional[SimulationRunner] = None


def _worker_init(
    payload: Dict[str, object], packed_traces: Dict[str, bytes]
) -> None:
    """Build one runner per worker process, pre-seeded with the traces."""
    global _WORKER_RUNNER
    # A freshly spawned (or respawned-after-crash) worker re-installs the
    # fault plan from REPRO_FAULTS; occurrence counters restart with the
    # process, which is why cross-process plans key on the attempt number.
    install_from_env()
    _WORKER_RUNNER = SimulationRunner(**payload)  # type: ignore[arg-type]
    _WORKER_RUNNER._traces = {
        name: MissTrace.from_bytes(data) for name, data in packed_traces.items()
    }


def _worker_cell(label: str, bench_name: str, spec: SchemeSpec, attempt: int = 1):
    """Execute one sized (spec, benchmark) cell in the worker's runner.

    The parent ships the fully-sized spec, so the worker neither re-sizes
    nor consults the scheme registry — custom registered schemes work
    without re-registration in the pool.
    """
    assert _WORKER_RUNNER is not None, "worker pool not initialised"
    fault_hook("worker", f"{label}/{bench_name}/{attempt}")
    return (
        label,
        bench_name,
        _WORKER_RUNNER._run_cell(spec, label, bench_name, attempt=attempt),
    )


def _worker_trace(bench_name: str):
    """Generate (or disk-load) one miss trace in a worker; returns it packed."""
    assert _WORKER_RUNNER is not None, "worker pool not initialised"
    return bench_name, _WORKER_RUNNER.trace(bench_name).to_bytes()
