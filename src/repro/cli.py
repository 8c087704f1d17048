"""Command-line entry point: run any paper experiment by name.

Usage::

    python -m repro list
    python -m repro fig6
    python -m repro table2 fig3 hashbw
    python -m repro --workers 8 fig6 fig7
    python -m repro --no-trace-cache fig6
    python -m repro --force fig6
    python -m repro --replay scalar fig6
    python -m repro sweep --scheme PIC_X32 --grid plb=4KiB,8KiB,16KiB
    REPRO_FULL=1 python -m repro all

``--workers N`` fans each experiment's (scheme, benchmark) matrix out
over N processes (equivalent to ``REPRO_WORKERS=N``); results are bitwise
identical to serial runs. ``--trace-cache DIR`` / ``--no-trace-cache``
control the on-disk miss-trace cache (``REPRO_TRACE_CACHE``), and
``--result-cache DIR`` / ``--no-result-cache`` the on-disk replay-result
cache (``REPRO_RESULT_CACHE``) that makes repeated runs incremental.
``--force`` (``REPRO_FORCE=1``) recomputes every cell, refreshing — not
disabling — both caches. ``--replay scalar`` (``REPRO_REPLAY``) runs the
reference tier — the per-event loop over object storage — instead of
the fast tier, which is the default: the columnar loop, on the native
kernels when the extension is built (``python setup.py build_ext
--inplace``) and interpreted when it is not. ``--storage
object|columnar`` (``REPRO_STORAGE``) pins the tree storage apart from
the tier. Bit-identical, performance-only; every run names the tier it
resolved on one stderr line.

The ``sweep`` subcommand expands a parameter grid over scheme specs
(``--scheme`` accepts registry names or spec strings like
``"PIC_X32:plb=32KiB"``; ``--grid field=v1,v2`` adds an axis — spec
fields, the benchmark parameters ``misses``/``wss``, or the serving
scenario ``tenants``/``shards``), prints the slowdown table, and writes
a JSON report (``--out``, default ``SWEEP.json``). ``--saved
fig5|fig7|fig8`` runs the corresponding saved figure sweep from
:mod:`repro.eval.sweeps` (fig8 on [26]'s platform runner) and defaults
the report to ``SWEEP_<figure>.json``; an unknown name lists the
available sweeps. Global flags go *before* the subcommand; everything
after it belongs to the subcommand.

The ``serve`` subcommand runs the multi-tenant serving layer
(:mod:`repro.serve`): N simulated tenant clients round-robined over a
``--bench`` roster, multiplexed onto M ORAM shards with bounded
admission queues, printing per-tenant/per-shard stats and writing the
full JSON report (``--out``, default ``SERVE.json``). ``--demo`` is the
small fixed-seed smoke scenario CI runs and archives.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError, SweepInterrupted
from repro.faults import FAULTS_ENV, install_from_env
from repro.eval import (
    ablation_plb,
    compression,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    hashbw,
    table2,
    table3,
)
from repro.sim.native import build_hint, native_available
from repro.sim.replay import REPLAY_ENV, REPLAY_MODES, resolve_replay_mode
from repro.sim.runner import FORCE_ENV, WORKERS_ENV
from repro.sim.store import CACHE_ENV, RESULT_CACHE_ENV
from repro.storage import STORAGE_ENV

EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "fig3": fig3.main,
    "table2": table2.main,
    "fig5": fig5.main,
    "fig6": fig6.main,
    "fig7": fig7.main,
    "fig8": fig8.main,
    "fig9": fig9.main,
    "table3": table3.main,
    "hashbw": hashbw.main,
    "compression": compression.main,
    "ablation-plb": ablation_plb.main,
}

#: Cheap, purely analytic experiments run first under ``all``.
_ORDER = (
    "fig3", "table2", "table3", "compression", "hashbw",
    "fig6", "fig5", "fig7", "fig8", "fig9", "ablation-plb",
)

#: Default JSON report path for the ``sweep`` subcommand.
DEFAULT_SWEEP_OUT = "SWEEP.json"

#: Default JSON report path for the ``serve`` subcommand.
DEFAULT_SERVE_OUT = "SERVE.json"

#: Subcommands with their own flag namespace after the name.
_SUBCOMMANDS = ("sweep", "serve", "fabric")

#: Global flags that consume a separate value token (``--flag VALUE``).
_VALUE_FLAGS = (
    "--workers", "--trace-cache", "--result-cache", "--storage", "--replay",
    "--faults",
)


def _find_subcommand(raw: List[str]) -> Optional[int]:
    """Index of a *positional* leading subcommand token, else None.

    Flag values are skipped, so a cache directory literally named
    ``sweep`` (``--trace-cache sweep fig6``) is never mistaken for the
    subcommand; a subcommand after another experiment name falls through
    to the normal unknown-experiment error.
    """
    skip_value = False
    for index, token in enumerate(raw):
        if skip_value:
            skip_value = False
            continue
        if token in _VALUE_FLAGS:
            skip_value = True
            continue
        if token.startswith("--"):
            continue
        return index if token in _SUBCOMMANDS else None
    return None


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    print(
        f"choose from: {', '.join(_ORDER)}, 'sweep', 'serve' or 'all'",
        file=sys.stderr,
    )
    return 2


def _parse_flags(args: List[str]) -> Optional[List[str]]:
    """Consume option flags, applying them via the environment.

    Returns the remaining positional arguments, or None after printing an
    error (exit code 2). Flags map onto the same environment variables the
    library reads, so every ``run_suite`` call downstream inherits them.
    """
    positional: List[str] = []
    it = iter(args)
    for arg in it:
        value: Optional[str] = None
        if arg == "--workers" or arg.startswith("--workers="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value is None or not value.isdigit() or int(value) < 1:
                print("--workers requires a positive integer", file=sys.stderr)
                return None
            os.environ[WORKERS_ENV] = value
        elif arg == "--no-trace-cache":
            os.environ[CACHE_ENV] = "off"
        elif arg == "--trace-cache" or arg.startswith("--trace-cache="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--trace-cache requires a directory path", file=sys.stderr)
                return None
            os.environ[CACHE_ENV] = value
        elif arg == "--no-result-cache":
            os.environ[RESULT_CACHE_ENV] = "off"
        elif arg == "--result-cache" or arg.startswith("--result-cache="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--result-cache requires a directory path", file=sys.stderr)
                return None
            os.environ[RESULT_CACHE_ENV] = value
        elif arg == "--force":
            os.environ[FORCE_ENV] = "1"
        elif arg == "--storage" or arg.startswith("--storage="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value not in ("object", "columnar"):
                print("--storage requires 'object' or 'columnar'", file=sys.stderr)
                return None
            os.environ[STORAGE_ENV] = value
        elif arg == "--replay" or arg.startswith("--replay="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value not in REPLAY_MODES:
                print("--replay requires 'scalar' or 'compiled'", file=sys.stderr)
                return None
            os.environ[REPLAY_ENV] = value
        elif arg == "--faults" or arg.startswith("--faults="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print(
                    "--faults requires a fault plan "
                    "(e.g. 'cell.crash@PC_X32*/gob/1#1')",
                    file=sys.stderr,
                )
                return None
            os.environ[FAULTS_ENV] = value
            try:
                # Install now: imports happened before flag parsing, so the
                # env hook alone would only reach pool workers.
                install_from_env()
            except ReproError as exc:
                print(f"--faults: {exc}", file=sys.stderr)
                return None
        elif arg.startswith("--"):
            print(f"unknown option {arg}", file=sys.stderr)
            return None
        else:
            positional.append(arg)
    return positional


def _announce_tier() -> bool:
    """Name the resolved replay tier on stderr; False if it cannot resolve.

    Stderr only: the tier is performance-only, so it never reaches a
    report, a digest or a cache key.
    """
    try:
        mode = resolve_replay_mode()
    except (ValueError, ReproError) as exc:
        print(exc, file=sys.stderr)
        return False
    if mode == "scalar":
        tier = "reference"
    elif native_available():
        tier = "fast: native kernels"
    else:
        tier = f"fast: interpreted — {build_hint()}"
    print(f"replay tier {tier}", file=sys.stderr)
    return True


def _sweep_main(args: List[str]) -> int:
    """The ``sweep`` subcommand: grid x schemes x benchmarks -> table+JSON."""
    from pathlib import Path

    from repro.eval.sweeps import fig8_runner, saved_sweep
    from repro.sim.checkpoint import default_checkpoint_path
    from repro.sim.runner import SimulationRunner
    from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

    schemes: List[str] = []
    benches: List[str] = []
    grid: List[str] = []
    out: Optional[str] = None
    misses: Optional[int] = None
    saved: Optional[str] = None
    checkpoint: Optional[str] = None
    resume = False
    fabric: Optional[int] = None
    connect: Optional[str] = None
    it = iter(args)
    for arg in it:
        value: Optional[str] = None
        if arg == "--saved" or arg.startswith("--saved="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--saved requires a figure sweep name", file=sys.stderr)
                return 2
            saved = value
        elif arg == "--scheme" or arg.startswith("--scheme="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--scheme requires a name or spec string", file=sys.stderr)
                return 2
            schemes.append(value)
        elif arg == "--bench" or arg.startswith("--bench="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--bench requires a benchmark name", file=sys.stderr)
                return 2
            benches.append(value)
        elif arg == "--grid" or arg.startswith("--grid="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--grid requires field=v1,v2,...", file=sys.stderr)
                return 2
            grid.append(value)
        elif arg == "--out" or arg.startswith("--out="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--out requires a file path", file=sys.stderr)
                return 2
            out = value
        elif arg == "--misses" or arg.startswith("--misses="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value is None or not value.isdigit() or int(value) < 1:
                print("--misses requires a positive integer", file=sys.stderr)
                return 2
            misses = int(value)
        elif arg == "--checkpoint" or arg.startswith("--checkpoint="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--checkpoint requires a file path", file=sys.stderr)
                return 2
            checkpoint = value
        elif arg == "--resume":
            resume = True
        elif arg == "--fabric" or arg.startswith("--fabric="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value is None or not value.isdigit() or int(value) < 0:
                print(
                    "--fabric requires a worker count (0 allowed with "
                    "--connect: attached workers only)",
                    file=sys.stderr,
                )
                return 2
            fabric = int(value)
        elif arg == "--connect" or arg.startswith("--connect="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--connect requires HOST:PORT", file=sys.stderr)
                return 2
            connect = value
        else:
            print(f"unknown sweep option {arg}", file=sys.stderr)
            return 2
    if fabric == 0 and connect is None:
        print(
            "--fabric 0 spawns no workers, so it needs --connect HOST:PORT "
            "for external workers to attach",
            file=sys.stderr,
        )
        return 2
    if saved is not None:
        if schemes or grid:
            print(
                "--saved names a complete figure sweep; it cannot be "
                "combined with --scheme or --grid",
                file=sys.stderr,
            )
            return 2
        if out is None:
            out = f"SWEEP_{saved}.json"
    elif not schemes:
        schemes = ["PIC_X32"]
    if out is None:
        out = DEFAULT_SWEEP_OUT
    # Every CLI sweep journals completed cells beside the report; a clean
    # finish with nothing quarantined removes the journal, an interrupt
    # or crash leaves it for ``--resume``.
    if checkpoint is None:
        checkpoint = str(default_checkpoint_path(out))
    try:
        if saved is not None:
            # Unknown names raise a ReproError listing every saved sweep.
            sweep = saved_sweep(saved)(benchmarks=benches if benches else None)
            # fig8 pins [26]'s platform (4 channels, 2.6 GHz, 128 B lines);
            # the other figure sweeps run on the paper's default runner.
            runner = (
                fig8_runner(misses)
                if saved == "fig8"
                else SimulationRunner(misses_per_benchmark=misses)
            )
        else:
            sweep = SweepSpec.from_args(
                schemes, grid, benches if benches else None
            )
            runner = SimulationRunner(misses_per_benchmark=misses)
        if fabric is not None or connect is not None:
            from repro.fabric import FabricCoordinator, FabricExecutor, parse_address

            host, port = (
                parse_address(connect) if connect else ("127.0.0.1", 0)
            )
            coordinator = FabricCoordinator(
                runner, spawn=fabric or 0, host=host, port=port
            )
            bound = coordinator.start()
            print(
                f"fabric: coordinator on {bound[0]}:{bound[1]}, "
                f"spawned {fabric or 0} worker(s)"
                + (" (accepting attached workers)" if connect else "")
            )
            try:
                report = run_sweep(
                    sweep,
                    runner,
                    checkpoint=checkpoint,
                    resume=resume,
                    executor=FabricExecutor(coordinator),
                )
            finally:
                coordinator.close()
        else:
            report = run_sweep(
                sweep, runner, checkpoint=checkpoint, resume=resume
            )
    except SweepInterrupted as exc:
        if exc.report is not None:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(exc.report, fh, indent=2, sort_keys=True)
            print(f"\nsweep interrupted; wrote partial report to {out}", file=sys.stderr)
        print(
            f"completed cells are journaled in {checkpoint}; "
            f"re-run the same sweep with --resume to finish it",
            file=sys.stderr,
        )
        return 130
    except ReproError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    print(sweep_table(report))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")
    resilience = report.get("resilience", {})
    if resilience.get("quarantined"):
        print(
            f"{len(resilience['quarantined'])} cell(s) quarantined after "
            f"repeated failures (see report['resilience']); journal kept "
            f"at {checkpoint} for --resume",
            file=sys.stderr,
        )
    else:
        Path(checkpoint).unlink(missing_ok=True)
    return 0


#: ``serve --demo`` presets: a small, fixed-seed 4-tenant / 2-shard
#: scenario (mixed workloads including an interleaved ``"a+b"`` entry)
#: that finishes in seconds — the CI smoke scenario.
_SERVE_DEMO = dict(
    tenants=4,
    shards=2,
    requests=400,
    misses=600,
    benches=["hmmer", "gob", "hmmer+gob", "h264"],
)


def _serve_main(args: List[str]) -> int:
    """The ``serve`` subcommand: N tenants on M shards -> stats + JSON."""
    from repro.serve import (
        ADMISSION_ORDERS,
        OramService,
        POLICIES,
        ServeConfig,
        tenants_for,
    )
    from repro.sim.runner import SimulationRunner

    values: Dict[str, Optional[int]] = {
        "tenants": None, "shards": None, "requests": None, "burst": None,
        "max-batch": None, "queue-cap": None, "seed": None, "misses": None,
        "deadline": None, "quota": None, "throttle-epochs": None,
        "degrade-after": None, "recover-after": None,
    }
    scheme = "PC_X32"
    benches: List[str] = []
    policy: Optional[str] = None
    admission: Optional[str] = None
    mode = "serial"
    out: Optional[str] = None
    demo = False
    it = iter(args)
    for arg in it:
        value: Optional[str] = None
        name = arg[2:].split("=", 1)[0] if arg.startswith("--") else ""
        if name in values:
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value is None or not value.isdigit() or int(value) < 1:
                print(f"--{name} requires a positive integer", file=sys.stderr)
                return 2
            values[name] = int(value)
        elif arg == "--demo":
            demo = True
        elif arg == "--scheme" or arg.startswith("--scheme="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--scheme requires a name or spec string", file=sys.stderr)
                return 2
            scheme = value
        elif arg == "--bench" or arg.startswith("--bench="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--bench requires a benchmark name", file=sys.stderr)
                return 2
            benches.append(value)
        elif arg == "--policy" or arg.startswith("--policy="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value not in POLICIES:
                print(
                    f"--policy requires one of: {', '.join(POLICIES)}",
                    file=sys.stderr,
                )
                return 2
            policy = value
        elif arg == "--admission" or arg.startswith("--admission="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value not in ADMISSION_ORDERS:
                print(
                    f"--admission requires one of: {', '.join(ADMISSION_ORDERS)}",
                    file=sys.stderr,
                )
                return 2
            admission = value
        elif arg == "--mode" or arg.startswith("--mode="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value not in ("serial", "async"):
                print("--mode requires 'serial' or 'async'", file=sys.stderr)
                return 2
            mode = value
        elif arg == "--out" or arg.startswith("--out="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--out requires a file path", file=sys.stderr)
                return 2
            out = value
        else:
            print(f"unknown serve option {arg}", file=sys.stderr)
            return 2
    if demo:
        # Presets fill anything not given explicitly; the seed stays at
        # the runner default, so demo artifacts are reproducible.
        for key in ("tenants", "shards", "requests", "misses"):
            if values[key] is None:
                values[key] = _SERVE_DEMO[key]  # type: ignore[assignment]
        if not benches:
            benches = list(_SERVE_DEMO["benches"])  # type: ignore[arg-type]
    if not benches:
        benches = ["hmmer", "gob"]
    try:
        runner = SimulationRunner(
            misses_per_benchmark=values["misses"],
            **({"seed": values["seed"]} if values["seed"] is not None else {}),
        )
        config = ServeConfig(
            scheme=scheme,
            shards=values["shards"] if values["shards"] is not None else 1,
            burst=values["burst"] if values["burst"] is not None else 4,
            max_batch=(
                values["max-batch"] if values["max-batch"] is not None else 32
            ),
            queue_capacity=(
                values["queue-cap"] if values["queue-cap"] is not None else 64
            ),
            policy=policy if policy is not None else "defer",
            admission=admission if admission is not None else "edf",
            throttle_epochs=(
                values["throttle-epochs"]
                if values["throttle-epochs"] is not None
                else 1
            ),
            degrade_after=values["degrade-after"],
            recover_after=values["recover-after"],
        )
        service = OramService(
            tenants_for(
                benches,
                values["tenants"] if values["tenants"] is not None else 2,
                requests=values["requests"],
                deadline_cycles=(
                    float(values["deadline"])
                    if values["deadline"] is not None
                    else None
                ),
                quota=(
                    float(values["quota"]) if values["quota"] is not None else None
                ),
            ),
            runner=runner,
            config=config,
        )
        service.run(mode=mode)
    except ReproError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # unknown benchmark names in --bench
        print(f"serve error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    report = service.report()
    totals = report["totals"]
    print(
        f"serve: scheme {report['scheme']}, "
        f"{len(report['tenants'])} tenant(s) on {len(report['shards'])} "
        f"shard(s), policy {config.policy}, mode {mode}"
    )
    for tenant in report["tenants"]:
        print(
            f"  {tenant['name']:<16} completed {tenant['completed']:>6}"
            f"  shed {tenant['shed']:>4}"
            f"  cycles {tenant['cycles']:>14.1f}"
            f"  p95<={tenant['latency_cycles']['p95_bound']:.0f}cyc"
        )
    for shard in report["shards"]:
        depth = shard["queue_depth"]
        print(
            f"  shard {shard['shard']}: requests {shard['requests']}"
            f"  batches {shard['batches']}"
            f"  mean depth {depth['mean']:.1f} (max {depth['max']})"
            f"  shed {shard['shed']}  deferred {shard['deferred']}"
        )
    print(
        f"  totals: {totals['requests']} requests in {report['epochs']} "
        f"epochs, {totals['cycles'] / 1e6:.2f} Mcycles"
    )
    res = report["resilience"]
    print(
        f"  resilience: missed {res['deadline_missed']}"
        f"  throttled {res['throttled']}  shed {res['shed']}"
        f"  deferred {res['deferred']}"
        f"  degradation {res['degradation']['level']}"
        f" ({len(res['degradation']['transitions'])} transition(s))"
    )
    if out is None:
        out = DEFAULT_SERVE_OUT
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"wrote {out}")
    return 0


def _fabric_main(args: List[str]) -> int:
    """The ``fabric`` subcommand: worker-side entry points.

    ``fabric serve-worker --connect HOST:PORT`` dials a sweep
    coordinator (``python -m repro sweep --fabric N`` binds one; add
    ``--connect`` there to listen on a fixed address) and executes
    leased cells until the coordinator shuts it down.
    """
    from repro.fabric import serve_worker

    if not args or args[0] != "serve-worker":
        print(
            "usage: python -m repro fabric serve-worker --connect HOST:PORT "
            "[--timeout SECS]",
            file=sys.stderr,
        )
        return 2
    connect: Optional[str] = None
    timeout = 10.0
    it = iter(args[1:])
    for arg in it:
        value: Optional[str] = None
        if arg == "--connect" or arg.startswith("--connect="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not value:
                print("--connect requires HOST:PORT", file=sys.stderr)
                return 2
            connect = value
        elif arg == "--timeout" or arg.startswith("--timeout="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            try:
                timeout = float(value) if value else -1.0
            except ValueError:
                timeout = -1.0
            if timeout <= 0:
                print("--timeout requires a positive number", file=sys.stderr)
                return 2
        else:
            print(f"unknown fabric option {arg}", file=sys.stderr)
            return 2
    if connect is None:
        print("fabric serve-worker requires --connect HOST:PORT", file=sys.stderr)
        return 2
    try:
        return serve_worker(connect, connect_timeout=timeout)
    except ReproError as exc:
        print(f"fabric error: {exc}", file=sys.stderr)
        return 2


_SUBCOMMAND_MAINS = {"sweep": _sweep_main, "serve": _serve_main, "fabric": _fabric_main}


def main(argv=None) -> int:
    """Dispatch experiment names; returns a process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    split = _find_subcommand(raw)
    if split is not None:
        if _parse_flags(raw[:split]) is None:
            return 2
        if raw[split] != "fabric" and not _announce_tier():
            return 2
        return _SUBCOMMAND_MAINS[raw[split]](raw[split + 1 :])
    args = _parse_flags(raw)
    if args is None:
        return 2
    if not args or args == ["list"]:
        print("Available experiments (python -m repro [options] <name> [...]):")
        for name in _ORDER:
            doc = EXPERIMENTS[name].__module__.rsplit(".", 1)[-1]
            print(f"  {name:<13} repro.eval.{doc}")
        print("  all           run everything in order")
        print("  sweep         parameter-grid sweep over scheme specs (SWEEP.json)")
        print("  serve         multi-tenant ORAM serving scenario (SERVE.json)")
        print("  fabric        distributed-sweep worker endpoints")
        print("Options:")
        print("  --workers N         parallel (scheme, benchmark) fan-out")
        print("  --trace-cache DIR   miss-trace cache location")
        print("  --no-trace-cache    disable the on-disk trace cache")
        print("  --result-cache DIR  replay-result cache location")
        print("  --no-result-cache   disable the on-disk result cache")
        print("  --force             recompute (and refresh) every cached cell")
        print("  --replay MODE       replay tier: compiled (default; the fast tier,")
        print("                      native kernels when built, else interpreted)")
        print("                      | scalar (the reference per-event loop)")
        print("  --storage KIND      tree storage: object | columnar (default: the")
        print("                      tier's — columnar, or object under scalar)")
        print("  --faults PLAN       deterministic fault-injection plan (testing;")
        print("                      e.g. 'cell.crash@*/1#1;sweep.interrupt@*#4')")
        print("Sweep options (after 'sweep'):")
        print("  --scheme NAME|SPEC  base scheme (repeatable; spec strings ok)")
        print("  --grid F=V1,V2      grid axis over a spec field, the benchmark")
        print("                      parameters 'misses' / 'wss', or the serving")
        print("                      scenario 'tenants' / 'shards'")
        print("  --saved FIGURE      run a saved figure sweep: fig5 | fig7 | fig8")
        print("  --bench NAME        benchmark subset (repeatable)")
        print("  --misses N          per-benchmark LLC miss budget")
        print(f"  --out FILE          JSON report path (default {DEFAULT_SWEEP_OUT})")
        print("  --checkpoint FILE   cell journal path (default <out>.ckpt.jsonl)")
        print("  --resume            recompute only cells missing from the journal")
        print("  --fabric N          distribute cells over N spawned fabric workers")
        print("  --connect HOST:PORT bind the fabric coordinator there so external")
        print("                      'fabric serve-worker' processes can attach")
        print("Fabric options (after 'fabric'):")
        print("  serve-worker --connect HOST:PORT [--timeout SECS]")
        print("                      run one worker against a sweep coordinator")
        print("                      (REPRO_CONNECT_RETRIES bounds each dial loop;")
        print("                      REPRO_RPC_TIMEOUT bounds individual RPC calls)")
        print("Serve options (after 'serve'):")
        print("  --tenants N         simulated tenant clients (round-robin roster)")
        print("  --shards M          ORAM instances in the pool")
        print("  --scheme NAME|SPEC  ORAM scheme for every shard")
        print("  --bench NAME        tenant workload roster entry (repeatable;")
        print("                      interleaved 'a+b' mixes allowed)")
        print("  --requests N        per-tenant request cap")
        print("  --burst/--max-batch/--queue-cap N   admission & batching knobs")
        print("  --policy defer|shed|throttle   backpressure at a full shard queue")
        print("  --admission edf|fifo admission order (edf == fifo with no deadlines)")
        print("  --deadline N        per-request SLO deadline in simulated cycles")
        print("  --quota N           per-tenant token-bucket quota (requests/epoch)")
        print("  --throttle-epochs N cooldown epochs charged by the throttle policy")
        print("  --degrade-after N / --recover-after N   graceful-degradation")
        print("                      thresholds in consecutive (clean) epochs")
        print("  --mode serial|async epoch driver (identical simulated results)")
        print("  --seed N / --misses N   runner seed and trace miss budget")
        print("  --demo              small fixed scenario (the CI smoke artifact)")
        print(f"  --out FILE          JSON report path (default {DEFAULT_SERVE_OUT})")
        return 0
    if args == ["all"]:
        args = list(_ORDER)
    unknown = [a for a in args if a not in EXPERIMENTS]
    if unknown:
        return _usage_error(f"unknown experiment(s): {', '.join(unknown)}")
    if not _announce_tier():
        return 2
    for name in args:
        print(f"==== {name} " + "=" * max(60 - len(name), 0))
        EXPERIMENTS[name]()
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
