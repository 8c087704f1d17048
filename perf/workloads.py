"""The benchmark's workloads: seeded inputs, set-up, timed reps, checks.

Every workload measures a *fixed* amount of work for a given ``--seed``
and ``--seconds``: the number of reps is ``seconds`` divided by the rep's
time at definition (``nominal_rep_s``), never a deadline. The program has
costs that move with how much has been replayed so far (the tree fills,
the PRF leaf cache reaches its limit and starts evicting), so a loop that
ran "until time is up" would measure a different stretch of that
trajectory on a fast host than on a slow one.

The fast tier is pinned by ``run.py`` through the environment only, so
nothing here passes ``storage=`` or ``mode=``.

Every rep starts from a freshly built system (a new frontend, a new
service, a cold result cache) and is given exactly the same inputs, so
reps are the same work done again: their simulated results must agree to
the last bit, and what differs between their times is the host.

Each class exposes the same steps to ``run.py``:

``make_inputs()``
    derive every input from the seed (untimed);
``setup(index)``
    build the system under test for one rep and warm it up (timed: the
    median over reps is ``setup_s``);
``run_rep(clock, index)``
    the rep's timed part, cut into calibrated slices; returns its work
    and records a fingerprint of its simulated results;
``check()``
    output checks after the reps;
``layer_metrics(tracer)``
    the ``--trace 1`` run: ``(counts, times)``, each by metric name.
    Counts are made by the program and repeat bit-for-bit for a seed;
    times (and what depends on them, like fabric steals) are the host's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

from perf import layers
from perf.calibrate import LONG_SLICE_ITERS, SLICE_ITERS, Calibrator, SliceClock

Metrics = Dict[str, float]


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _scaled_reps(seconds: float, nominal_rep_s: float, quick: bool) -> int:
    """Timed reps in a run; rep 0 is an extra, discarded warm-up."""
    if quick:
        return 3
    return 1 + max(3, round(seconds / nominal_rep_s))


class Workload:
    """Shared bookkeeping; see the module docstring for the protocol."""

    name = ""
    unit = ""  # what one unit of ``ops_per_s`` work is
    #: Kernel iterations in each calibration slice around a timed slice.
    cal_iters = SLICE_ITERS

    def __init__(self, seed: int, seconds: float, quick: bool, tmp: Path,
                 calibrator: Calibrator):
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.tmp = tmp
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: One digest of simulated results per rep; all must be equal.
        self.fingerprints: List[str] = []

    def clock(self) -> SliceClock:
        """A clock for one rep's timed slices."""
        return SliceClock(self.calibrator, self.cal_iters)

    def setup_clock(self) -> SliceClock:
        """A clock for a region that is one slice, like a set-up."""
        return SliceClock(self.calibrator, LONG_SLICE_ITERS)

    def times_setup(self, index: int) -> bool:
        """Whether rep ``index`` contributes a ``setup_s`` sample."""
        return True

    def expect(self, ok: bool, note: str, weight: int = 1) -> None:
        """One output check: counts as ``weight`` attempted operations."""
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(note)

    def check(self) -> None:
        """Output checks after the timed reps."""
        self.expect(
            len(set(self.fingerprints)) == 1,
            "reps on identical inputs produced different simulated results",
        )


# -- replay --------------------------------------------------------------------


class ReplayWorkload(Workload):
    """``replay_trace`` on a fresh frontend per rep, in 400-event slices."""

    unit = "LLC events"
    scheme = ""
    num_blocks = 2**18
    rep_events = 0
    write_share = 0.0
    nominal_rep_s = 1.0
    slice_events = 400
    warmup_events = 2000
    probe_addrs = 256

    def _addresses(self, rng: random.Random, count: int) -> List[int]:
        raise NotImplementedError

    def _prepare(self, rng: random.Random) -> None:
        """Seeded address-pattern state (hot sets, scan origins)."""

    def _trace(self, rng: random.Random, count: int, label: str):
        from repro.proc.hierarchy import MissEvent, MissTrace

        trace = MissTrace(name=f"{self.name}:{label}")
        write_share = self.write_share
        trace.events = [
            MissEvent(addr, rng.random() < write_share)
            for addr in self._addresses(rng, count)
        ]
        return trace

    def make_inputs(self) -> None:
        rng = random.Random(self.seed)
        shrink = 10 if self.quick else 1
        if self.quick:
            self.num_blocks = 2**14  # building 2^18 blocks is most of a quick run
        self._prepare(rng)
        self.reps = _scaled_reps(self.seconds, self.nominal_rep_s, self.quick)
        self.warmup = self._trace(rng, self.warmup_events // shrink, "warmup")
        self.slices = [
            self._trace(rng, self.slice_events, f"slice{start}")
            for start in range(0, self.rep_events // shrink, self.slice_events)
        ]
        self.events = sum(len(trace.events) for trace in self.slices)
        self.probe = rng.sample(range(self.num_blocks), self.probe_addrs // shrink)

    def _fresh_frontend(self):
        """A new frontend, warmed by the warm-up trace: one rep's set-up."""
        from repro.presets import build_frontend
        from repro.sim.system import replay_trace
        from repro.sim.timing import timing_for_frontend
        from repro.utils.rng import DeterministicRng

        frontend = build_frontend(
            self.scheme, num_blocks=self.num_blocks,
            rng=DeterministicRng(self.seed),
        )
        self.timing = timing_for_frontend(frontend)
        replay_trace(frontend, self.warmup, self.timing, scheme=self.scheme)
        return frontend

    def setup(self, index: int) -> None:
        self.frontend = None  # the last rep's tree goes before the next is built
        self.frontend = self._fresh_frontend()

    def _replay_slice(self, frontend, trace):
        from repro.sim.system import replay_trace

        result = replay_trace(frontend, trace, self.timing, scheme=self.scheme)
        self.expect(
            result.oram_accesses == len(trace.events),
            f"{trace.name}: replayed {result.oram_accesses} of "
            f"{len(trace.events)} events",
            weight=len(trace.events),
        )
        return result

    @staticmethod
    def _state_digest(frontend, results) -> str:
        from repro.storage.snapshot import tree_digest

        return _digest([
            [dataclasses.astuple(result) for result in results],
            tree_digest(frontend.backend.storage),
            frontend.backend.stash_snapshot(),
        ])

    def run_rep(self, clock: SliceClock, index: int) -> int:
        results = [
            clock.time(self._replay_slice, self.frontend, trace)
            for trace in self.slices
        ]
        self.fingerprints.append(self._state_digest(self.frontend, results))
        return self.events

    def _read_your_writes(self, frontend) -> None:
        from repro.backend.ops import Op

        block_bytes = frontend.config.block_bytes
        pattern = {
            addr: (addr ^ self.seed).to_bytes(8, "little") * (block_bytes // 8)
            for addr in self.probe
        }
        for addr, data in pattern.items():
            frontend.access(addr, Op.WRITE, data)
        for addr, data in pattern.items():
            self.expect(
                frontend.access(addr, Op.READ).data == data,
                f"read-your-writes: block {addr:#x} read back wrong",
            )

    def check(self) -> None:
        super().check()
        self._read_your_writes(self.frontend)

    # -- the traced run --------------------------------------------------------

    @staticmethod
    def _counters(frontend) -> Dict[str, float]:
        stats = frontend.stats
        crypto = frontend.crypto
        backend = frontend.backend
        return {
            "plb_hits": stats.plb_hits,
            "plb_misses": stats.plb_misses,
            "posmap_accesses": stats.posmap_tree_accesses,
            "plb_refills": stats.plb_refills,
            "plb_evictions": stats.plb_evictions,
            "group_remaps": stats.group_remaps,
            "prf_calls": crypto.prf.call_count,
            "prf_hits": crypto.prf.cache_hits,
            "mac_calls": crypto.mac.call_count,
            "mac_bytes": crypto.mac.bytes_hashed,
            "tree_accesses": backend.tree_access_count,
            "bytes_moved": backend.storage.bytes_moved,
        }

    def layer_metrics(self, tracer: layers.Tracer) -> Tuple[Metrics, Metrics]:
        from repro.sim.engine import ReplayEngine
        from repro.sim.native import load_native_core
        from repro.sim.replay import resolve_replay_mode
        from repro.sim.system import base_cycles

        # One rep twice from the same state: untraced through the public
        # entry point, then through a shimmed engine.
        plain = self._fresh_frontend()
        plain_clock = self.clock()
        plain_results = [
            plain_clock.time(self._replay_slice, plain, trace)
            for trace in self.slices
        ]

        traced = self._fresh_frontend()
        core = load_native_core() if resolve_replay_mode() == "compiled" else None
        layers.install_frontend(tracer, traced)
        engine = ReplayEngine(traced, self.timing)
        layers.install_engine(tracer, engine, core)
        run_slice = tracer.wrap(layers.ROOT, engine.run_trace)
        before = self._counters(traced)
        traced_clock = self.clock()
        traced_results = []
        for rep, trace in enumerate(self.slices):
            tracer.rep = rep
            engine.cycles = base_cycles(trace, engine.proc)
            traced_clock.time(run_slice, trace)
            traced_results.append(engine.result(trace, self.scheme))
        after = self._counters(traced)
        delta = {key: after[key] - before[key] for key in after}
        events = self.events
        cycles = sum(result.cycles for result in plain_results)

        stable = (
            self._state_digest(plain, plain_results)
            == self._state_digest(traced, plain_results)
            and [r.cycles for r in traced_results]
            == [r.cycles for r in plain_results]
        )
        self.expect(
            stable, "traced and untraced replays disagree", weight=events
        )
        self._read_your_writes(plain)

        lookups = delta["plb_hits"] + delta["plb_misses"]
        counts = {
            "frontend.plb_hit_rate": delta["plb_hits"] / lookups if lookups else 0.0,
            "frontend.posmap_accesses_per_event": delta["posmap_accesses"] / events,
            "frontend.plb_refills_per_event": delta["plb_refills"] / events,
            "frontend.plb_evictions_per_event": delta["plb_evictions"] / events,
            "frontend.group_remaps": delta["group_remaps"],
            "crypto.prf_calls_per_event": delta["prf_calls"] / events,
            "crypto.prf_cache_hit_rate": (
                delta["prf_hits"] / delta["prf_calls"] if delta["prf_calls"] else 0.0
            ),
            "crypto.mac_calls_per_event": delta["mac_calls"] / events,
            "crypto.mac_bytes_per_event": delta["mac_bytes"] / events,
            "backend.accesses_per_event": delta["tree_accesses"] / events,
            "backend.stash_peak": tracer.stash_peak,
            "storage.bytes_moved_per_event": delta["bytes_moved"] / events,
            "sim.cycles_per_event": cycles / events,
            "sim.result_digest_stable": 1.0 if stable else 0.0,
        }
        times = {"trace.overhead_ratio": traced_clock.norm_s / plain_clock.norm_s}
        span_metrics(tracer, events, traced_clock, counts, times)
        return counts, times


def span_metrics(
    tracer: layers.Tracer, events: int, clock: SliceClock,
    counts: Metrics, times: Metrics,
) -> None:
    """``<layer>.calls_per_event`` into ``counts``; ``.self_us`` and
    ``.share`` into ``times``.

    Self times are scaled to reference host speed by the traced slices'
    own normalised/raw ratio; shares are of the traced wall, so they sum
    to 1 once the root span's own share is added.
    """
    rows = tracer.by_layer()
    wall = sum(row["self_s"] for row in rows.values())
    scale = clock.norm_s / clock.raw_s if clock.raw_s else 1.0
    for name in layers.LAYERS:
        row = rows.get(name, {"self_s": 0.0, "calls": 0})
        counts[f"{name}.calls_per_event"] = row["calls"] / events
        times[f"{name}.self_us"] = 1e6 * scale * row["self_s"] / events
        times[f"{name}.share"] = row["self_s"] / wall if wall else 0.0


class ReplayPosmapBound(ReplayWorkload):
    """Uniform addresses over 2^18 blocks: the working set dwarfs the PLB's
    reach (hit ~10%), so PosMap remap, PRF, PMMAC and PLB refill do most of
    the work."""

    name = "replay_posmap_bound"
    scheme = "PIC_X32"
    rep_events = 6000
    write_share = 0.3
    nominal_rep_s = 1.0

    def _addresses(self, rng, count):
        return [rng.randrange(self.num_blocks) for _ in range(count)]


class ReplayBackendBound(ReplayWorkload):
    """P_X16 has no PRF and no MAC, and 95% of reads fall in a 256-block hot
    set: crypto does nothing, the PLB mostly hits, and Path ORAM drain/evict
    and path I/O dominate."""

    name = "replay_backend_bound"
    scheme = "P_X16"
    rep_events = 12000
    write_share = 0.0
    nominal_rep_s = 1.0

    def _prepare(self, rng):
        self.hot = rng.sample(range(self.num_blocks), 256)

    def _addresses(self, rng, count):
        hot = self.hot
        return [
            hot[rng.randrange(256)] if rng.random() < 0.95
            else rng.randrange(self.num_blocks)
            for _ in range(count)
        ]


class ReplayWriteScan(ReplayWorkload):
    """A sequential scan of writes: the PLB hits (~97%) but every address is
    new, so whatever memoises per address (chain cache, ``plan_batch``, the
    PRF LRU) is always cold, and every event verifies and seals a MAC."""

    name = "replay_write_scan"
    scheme = "PIC_X32"
    rep_events = 12000
    write_share = 1.0
    nominal_rep_s = 1.0

    def _prepare(self, rng):
        self.cursor = rng.randrange(self.num_blocks)

    def _addresses(self, rng, count):
        start = self.cursor
        self.cursor = (start + count) % self.num_blocks
        return [(start + i) % self.num_blocks for i in range(count)]


# -- serve ---------------------------------------------------------------------


def strip_serve_report(report: Dict) -> Dict:
    """A serve report without the fields that hold host wall time."""
    out = {k: v for k, v in report.items() if k != "wall_seconds"}
    out["tenants"] = [
        {k: v for k, v in tenant.items() if k != "wall_us"}
        for tenant in report["tenants"]
    ]
    return out


class ServeMixedTenants(Workload):
    """Closed loop: 4 tenant clients, each offers ``burst`` per epoch."""

    name = "serve_mixed_tenants"
    unit = "requests"
    cal_iters = LONG_SLICE_ITERS  # a rep is one slice
    mode = "serial"
    other_mode = "async"
    benchmarks = ("hmmer", "gob", "hmmer+gob", "h264")
    requests = 2000
    nominal_rep_s = 0.8

    def _runner(self):
        from repro.sim.runner import SimulationRunner

        return SimulationRunner(
            seed=self.seed,
            misses_per_benchmark=self.requests_per_tenant,
            cache_dir=self.tmp / "traces",
            result_cache_dir=None,
        )

    def _service(self):
        """A fresh runner (traces come off the disk cache) and service."""
        from repro.serve import OramService, ServeConfig, TenantSpec

        tenants = [
            TenantSpec(
                name=f"t{i}:{bench}", benchmark=bench,
                requests=self.requests_per_tenant,
            )
            for i, bench in enumerate(self.benchmarks)
        ]
        # burst x tenants exceeds the two queues' capacity, so some
        # offers are deferred every epoch and none is shed.
        config = ServeConfig(
            scheme="PC_X32", shards=2, burst=8, max_batch=32,
            queue_capacity=12, policy="defer",
        )
        return OramService(tenants, self._runner(), config)

    def make_inputs(self) -> None:
        self.requests_per_tenant = self.requests // (10 if self.quick else 1)
        self.reps = _scaled_reps(self.seconds, self.nominal_rep_s, self.quick)
        # Warm the trace cache: synthesis is the input, not the service.
        start = time.perf_counter()
        runner = self._runner()
        self.trace_gen_misses = sum(
            len(runner.trace(bench).events) for bench in self.benchmarks
        )
        self.trace_gen_s = time.perf_counter() - start

    def setup(self, index: int) -> None:
        self.service = None  # the last rep's shards go before the next are built
        self.service = self._service()

    def _checked_report(self, service) -> Dict:
        report = service.report()
        totals = report["totals"]
        expected = self.requests_per_tenant * len(self.benchmarks)
        self.expect(
            totals["requests"] == totals["issued"] == expected,
            f"serve completed {totals['requests']} of {expected}",
            weight=expected,
        )
        self.expect(totals["shed"] == 0, f"serve shed {totals['shed']} requests")
        self.expect(totals["deferred"] > 0, "serve never deferred: no backpressure")
        return report

    def run_rep(self, clock: SliceClock, index: int) -> int:
        clock.time(self.service.run, self.mode)
        report = self._checked_report(self.service)
        self.fingerprints.append(_digest(strip_serve_report(report)))
        return report["totals"]["requests"]

    def check(self) -> None:
        self.service = None
        other = self._service()
        other.run(self.other_mode)
        self.fingerprints.append(
            _digest(strip_serve_report(self._checked_report(other)))
        )
        super().check()

    def layer_metrics(self, tracer: layers.Tracer) -> Tuple[Metrics, Metrics]:
        walls = {}
        for mode in (self.mode, self.other_mode):
            plain = self._service()
            plain_clock = self.clock()
            plain_clock.time(plain.run, mode)
            walls[mode] = plain_clock.norm_s
            self.fingerprints.append(
                _digest(strip_serve_report(self._checked_report(plain)))
            )

        service = self._service()
        for shard in service.shards:
            shard.engine.run_batch = tracer.wrap(
                layers.ENGINE, shard.engine.run_batch
            )
        clock = self.clock()
        clock.time(tracer.wrap(layers.ROOT, service.run), self.mode)
        report = self._checked_report(service)
        self.fingerprints.append(_digest(strip_serve_report(report)))
        stable = len(set(self.fingerprints)) == 1
        self.expect(stable, "traced, serial and async serve runs disagree")

        rows = tracer.by_layer()
        execute = rows[layers.ENGINE]["total_s"] / rows[layers.ROOT]["total_s"]
        requests = report["totals"]["requests"]
        shards = report["shards"]
        counts = {
            "serve.epochs": report["epochs"],
            "serve.mean_batch": requests / sum(s["batches"] for s in shards),
            "serve.queue_depth_mean": statistics.fmean(
                s["queue_depth"]["mean"] for s in shards
            ),
            "serve.deferred": report["totals"]["deferred"],
            "serve.shed": report["totals"]["shed"],
            "serve.latency_cycles_p95_bound": max(
                t["latency_cycles"]["p95_bound"] for t in report["tenants"]
            ),
            "sim.cycles_per_event": report["totals"]["cycles"] / requests,
            "sim.result_digest_stable": 1.0 if stable else 0.0,
        }
        times = {
            "serve.execute_share": execute,
            "serve.control_share": 1.0 - execute,
            "serve.async_overhead_ratio": walls["async"] / walls["serial"],
            "proc.trace_gen_misses_per_s": self.trace_gen_misses / self.trace_gen_s,
            "trace.overhead_ratio": clock.norm_s / walls[self.mode],
        }
        span_metrics(tracer, requests, clock, counts, times)
        return counts, times


class ServeMixedTenantsAsync(ServeMixedTenants):
    """The same tenants and shards through the asyncio driver."""

    name = "serve_mixed_tenants_async"
    mode = "async"
    other_mode = "serial"


# -- sweep ---------------------------------------------------------------------


def strip_sweep_report(report: Dict) -> Dict:
    """A sweep report without its executor-dependent counters."""
    return {k: v for k, v in report.items() if k != "resilience"}


class SweepFig6Cold(Workload):
    """``run_sweep`` on the serial executor, one slice per cell.

    The end-to-end number is taken on one process because the sandbox's
    two vCPUs are at times multiplexed on one hardware thread (two
    calibration kernels side by side then run at half their solo speed):
    a pool's wall time doubles and halves within a second with nothing in
    the program changed, and no calibration around a 2 s slice can see a
    flip inside it. The pool and the fabric are checked against the
    serial report here and timed in the traced run, without a bound.
    """

    name = "sweep_fig6_cold"
    unit = "sweep cells"
    cal_iters = 6 * SLICE_ITERS  # ~18 ms around cells of ~100 ms
    schemes = ("R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32")
    benchmarks = ("gob", "hmmer")
    misses = 2000
    nominal_rep_s = 1.6
    #: Trace synthesis is this workload's set-up and its dearest step, so
    #: only the first reps pay (and time) it; later reps reuse the cache.
    setup_samples = 3

    @property
    def cells(self) -> int:
        return (len(self.schemes) + 1) * len(self.benchmarks)

    def make_inputs(self) -> None:
        from repro.sim.sweep import SweepSpec

        self.miss_budget = self.misses // (10 if self.quick else 1)
        self.reps = _scaled_reps(self.seconds, self.nominal_rep_s, self.quick)
        self.workers = min(2, os.cpu_count() or 1)
        self.sweep = SweepSpec.from_args(self.schemes, benchmarks=self.benchmarks)
        self.sweeps = 0

    def times_setup(self, index: int) -> bool:
        return index <= self.setup_samples  # rep 0 is the discarded warm-up

    def _runner(self, results):
        from repro.sim.runner import SimulationRunner

        return SimulationRunner(
            seed=self.seed,
            misses_per_benchmark=self.miss_budget,
            cache_dir=self.trace_dir,
            result_cache_dir=results,
        )

    def setup(self, index: int) -> None:
        """Warm a trace cache of its own: synthesise both traces."""
        self.trace_dir = self.tmp / f"traces-{index}"
        runner = self._runner(None)
        for bench in self.benchmarks:
            runner.trace(bench)

    def _cold_runner(self):
        """A runner whose result cache is an empty directory."""
        self.sweeps += 1
        return self._runner(self.tmp / f"results-{self.sweeps}")

    def _sweep(self, **kwargs) -> Dict:
        from repro.sim.sweep import run_sweep

        return run_sweep(self.sweep, self._cold_runner(), **kwargs)

    def _serial_sweep(self, clock: SliceClock, sweep, runner) -> Dict:
        """A serial sweep cut into slices at ``run_sweep``'s own per-cell
        ``progress`` hook, plus one for what follows the last cell."""
        clock.start()
        report = sweep(
            self.sweep, runner, workers=1,
            progress=lambda label, bench, result, cached: clock.split(),
        )
        clock.split()
        return report

    def _checked(self, report: Dict) -> Dict:
        resilience = report["resilience"]
        self.expect(
            resilience["quarantined"] == [],
            f"sweep quarantined {resilience['quarantined']}",
        )
        done = len(report["cells"]) + len(report["baselines"])
        self.expect(
            done == self.cells,
            f"sweep finished {done} of {self.cells} cells",
            weight=self.cells,
        )
        self.fingerprints.append(_digest(strip_sweep_report(report)))
        return report

    def run_rep(self, clock: SliceClock, index: int) -> int:
        from repro.sim.sweep import run_sweep

        report = self._checked(
            self._serial_sweep(clock, run_sweep, self._cold_runner())
        )
        self.expect(
            report["resilience"]["executed"] == self.cells,
            "sweep did not start from a cold result cache",
        )
        return self.cells

    def check(self) -> None:
        self._checked(self._sweep(workers=self.workers))  # the pool must match
        super().check()

    def layer_metrics(self, tracer: layers.Tracer) -> Tuple[Metrics, Metrics]:
        from repro.fabric import FabricCoordinator, FabricExecutor
        from repro.proc.hierarchy import MissTrace
        from repro.sim.sweep import run_sweep

        times: Metrics = {}

        # Trace synthesis, the trace container and the trace cache.
        self.trace_dir = self.tmp / "traces-traced"
        runner = self._runner(None)
        cache = runner.trace_cache
        cache.store = tracer.wrap("sim.trace_cache.store", cache.store)
        cache.load = tracer.wrap("sim.trace_cache.load", cache.load)
        start = time.perf_counter()
        traces = [runner.trace(bench) for bench in self.benchmarks]
        gen_s = time.perf_counter() - start
        times["proc.trace_gen_misses_per_s"] = sum(
            len(t.events) for t in traces
        ) / gen_s
        start = time.perf_counter()
        blobs = [trace.to_bytes() for trace in traces]
        times["proc.trace_encode_ms"] = 1e3 * (time.perf_counter() - start) / len(blobs)
        start = time.perf_counter()
        decoded = [MissTrace.from_bytes(blob) for blob in blobs]
        times["proc.trace_decode_ms"] = 1e3 * (time.perf_counter() - start) / len(blobs)
        self.expect(decoded == traces, "trace container round trip changed a trace")
        for bench, trace in zip(self.benchmarks, traces):
            self.expect(
                cache.load(runner.trace_cache_key(bench)) == trace,
                f"trace cache did not return {bench} as stored",
            )

        # Serial (the end-to-end configuration) untraced, then with spans
        # around the sweep and the result-cache calls; both cut per cell.
        plain_clock = self.clock()
        self._checked(self._serial_sweep(plain_clock, run_sweep, self._cold_runner()))
        runner = self._cold_runner()
        results = runner.result_cache
        results.load = tracer.wrap("sim.result_cache.load", results.load)
        results.store = tracer.wrap("sim.result_cache.store", results.store)
        serial_clock = self.clock()
        self._checked(self._serial_sweep(
            serial_clock, tracer.wrap(layers.ROOT, run_sweep), runner
        ))
        cell_s = [wall for wall, _, _ in serial_clock.slices[:self.cells]]
        warm_clock = self.setup_clock()
        warm = self._checked(
            warm_clock.time(run_sweep, self.sweep, runner, workers=1)
        )
        self.expect(
            warm["resilience"]["from_cache"] == self.cells,
            "warm re-run did not come from the result cache",
        )

        # The process pool, then the fabric: a coordinator plus spawned
        # workers over loopback. One slice each.
        pool_clock = self.setup_clock()
        self._checked(pool_clock.time(self._sweep, workers=self.workers))
        fabric_runner = self._cold_runner()
        coordinator = FabricCoordinator(fabric_runner, spawn=self.workers)
        fabric_clock = self.setup_clock()
        coordinator.start()
        try:
            fabric = self._checked(fabric_clock.time(
                run_sweep, self.sweep, fabric_runner,
                executor=FabricExecutor(coordinator),
            ))
        finally:
            coordinator.close()
        counters = fabric["resilience"]["fabric"]
        stable = len(set(self.fingerprints)) == 1
        self.expect(stable, "serial, pool, warm and fabric sweep reports disagree")

        rows = tracer.by_layer()

        def per_call(name: str, scale: float) -> float:
            row = rows.get(name)
            return scale * row["total_s"] / row["calls"] if row else 0.0

        serial_rate = self.cells / plain_clock.norm_s
        pool_rate = self.cells / pool_clock.norm_s
        fabric_rate = self.cells / fabric_clock.norm_s
        counts = {
            "sim.sweep.cells": self.cells,
            "sim.sweep.quarantined": len(fabric["resilience"]["quarantined"]),
            "sim.result_digest_stable": 1.0 if stable else 0.0,
            "sim.cycles_per_event": statistics.fmean(
                cell["result"]["cycles"] / cell["result"]["oram_accesses"]
                for cell in fabric["cells"]
            ),
        }
        # Which worker takes which lease is a race, so the fabric's
        # counters are the host's, like its times.
        times.update({
            "sim.sweep.serial_cells_per_s": serial_rate,
            "sim.sweep.pool_speedup": pool_rate / serial_rate,
            "sim.sweep.warm_rerun_ms": 1e3 * warm_clock.norm_s,
            "sim.runner.cell_s_p50": statistics.median(cell_s),
            "sim.runner.cell_s_max": max(cell_s),
            "sim.trace_cache.load_ms": per_call("sim.trace_cache.load", 1e3),
            "sim.trace_cache.store_ms": per_call("sim.trace_cache.store", 1e3),
            "sim.result_cache.load_us": per_call("sim.result_cache.load", 1e6),
            "sim.result_cache.store_us": per_call("sim.result_cache.store", 1e6),
            "fabric.cells_per_s": fabric_rate,
            "fabric.speedup_vs_pool": fabric_rate / pool_rate,
            "fabric.leases": counters["dispatched"],
            "fabric.steals": counters["stolen"],
            "fabric.rpc_timeouts": counters["rpc_timeouts"],
            "fabric.reconnects": counters["reconnects"],
            "trace.overhead_ratio": serial_clock.norm_s / plain_clock.norm_s,
        })
        return counts, times


WORKLOADS: Tuple[type, ...] = (
    ReplayPosmapBound,
    ReplayBackendBound,
    ReplayWriteScan,
    ServeMixedTenants,
    ServeMixedTenantsAsync,
    SweepFig6Cold,
)

BY_NAME = {cls.name: cls for cls in WORKLOADS}
