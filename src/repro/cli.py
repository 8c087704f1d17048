"""Command-line entry point: run any paper experiment by name.

Usage::

    python -m repro --help                # commands and global options
    python -m repro sweep --help          # ... and each subcommand's own
    python -m repro list                  # all of it on one page
    python -m repro --workers 8 table2 fig6 fig7
    python -m repro sweep --scheme PIC_X32 --grid plb=4KiB,8KiB,16KiB
    REPRO_FULL=1 python -m repro all

Every command line is parsed by :mod:`argparse`. A global option is a
field of :class:`repro.settings.Settings` — the flag and its ``REPRO_*``
variable mean the same thing, the flag wins — and :func:`main` exports
the result once (:meth:`Settings.export`), so the library underneath
and its forked workers all read what was typed. Global
options go before ``sweep`` / ``serve`` (everything after one of those
belongs to it) and anywhere around experiment names. Every
run that replays names the tier it resolved on one stderr line; the tier
is performance-only and never reaches a report. What each subcommand
does is its ``--help``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigurationError, ReproError, SweepInterrupted
from repro.eval import ORDER as _ORDER, SAVED_SWEEPS
from repro.eval.saved import figure_runner
from repro.faults import install_from
from repro.serve import POLICIES
from repro.settings import Settings
from repro.sim.native import build_hint
from repro.sim.replay import resolve_tier

#: The experiments, one ``repro.eval`` module each, in the order ``all``
#: runs them: the cheap, purely analytic ones first.
EXPERIMENTS: Dict[str, Callable[[], None]] = {
    name: import_module(f"repro.eval.{name.replace('-', '_')}").main
    for name in _ORDER
}

#: Default JSON report paths of the ``sweep`` and ``serve`` subcommands.
DEFAULT_SWEEP_OUT = "SWEEP.json"
DEFAULT_SERVE_OUT = "SERVE.json"

#: What ``serve`` runs when a flag is not given — and, under ``--demo``,
#: the small 4-tenant / 2-shard scenario (an interleaved ``"a+b"`` entry
#: among its workloads) CI archives; the seed stays the runner's default,
#: so the artifacts are reproducible. Anything absent here is the default
#: of ``ServeConfig`` / ``tenants_for`` / ``SimulationRunner`` itself.
_SERVE_PLAIN = dict(tenants=2, bench=["hmmer", "gob"])
_SERVE_DEMO = dict(
    tenants=4, shards=2, requests=400, misses=600,
    bench=["hmmer", "gob", "hmmer+gob", "h264"],
)

_SETTINGS_FIELDS = {f.name: f for f in dataclasses.fields(Settings)}


def _text(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("requires a non-empty value")
    return value


def _experiment(value: str) -> str:
    # Not ``choices=``: argparse checks an empty ``nargs="*"`` against them.
    if value not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {value!r} (choose from {', '.join(_ORDER)})"
        )
    return value


def _int_at_least(minimum: int, what: str) -> Callable[[str], int]:
    def parse(value: str) -> int:
        if not value.isdigit() or int(value) < minimum:
            raise argparse.ArgumentTypeError(f"requires {what}")
        return int(value)

    return parse


_positive_int = _int_at_least(1, "a positive integer")


def _global_options() -> argparse.ArgumentParser:
    """The parent parser: one flag per :class:`Settings` field it can set.

    Defaults are suppressed, so the namespace holds exactly what was typed
    (a command's own parser would otherwise reset an earlier flag).
    """
    parent = argparse.ArgumentParser(
        add_help=False, allow_abbrev=False, argument_default=argparse.SUPPRESS
    )
    group = parent.add_argument_group(
        "global options (each sets the REPRO_* variable it names, for this "
        "process and its workers; see repro.settings)"
    )

    def setting(flag: str, field: str, help: str = "", **kwargs) -> None:
        meta = _SETTINGS_FIELDS[field].metadata
        group.add_argument(
            flag, dest=field,
            help=f"{help or meta['meaning']} ({meta['env']})", **kwargs,
        )

    setting("--workers", "workers", type=_positive_int, metavar="N")
    setting("--trace-cache", "trace_cache", type=_text, metavar="DIR")
    setting("--no-trace-cache", "trace_cache", action="store_const", const=None,
            help="disable the on-disk trace cache")
    setting("--result-cache", "result_cache", type=_text, metavar="DIR")
    setting("--no-result-cache", "result_cache", action="store_const",
            const=None, help="disable the on-disk result cache")
    setting("--force", "force", action="store_const", const=True)
    setting("--faults", "faults", type=_text, metavar="PLAN",
            help="deterministic fault-injection plan, testing only, e.g. "
                 "'cell.crash@*/1#1;sweep.interrupt@*#4'")
    return parent


def _add_sweep_parser(commands) -> argparse.ArgumentParser:
    parser = commands.add_parser(
        "sweep", allow_abbrev=False,
        help=f"parameter-grid sweep over scheme specs ({DEFAULT_SWEEP_OUT})",
        description="Expand a grid over schemes x benchmarks, print the "
                    "slowdown table, write a JSON report.",
    )
    parser.set_defaults(run=_sweep_main)
    add = parser.add_argument
    add("--scheme", action="append", default=[], type=_text, metavar="NAME|SPEC",
        help="base scheme (repeatable; spec strings ok; default PIC_X32)")
    add("--grid", action="append", default=[], type=_text, metavar="F=V1,V2",
        help="grid axis (repeatable): a spec field or the benchmark "
             "parameters 'misses' / 'wss'")
    add("--saved", choices=SAVED_SWEEPS, metavar="FIGURE",
        help="a simulated figure's saved sweep, on its platform: "
             f"{' | '.join(SAVED_SWEEPS)} (to SWEEP_<figure>.json; a figure "
             "of several sweeps writes a list of reports)")
    add("--bench", action="append", default=[], type=_text, metavar="NAME",
        help="benchmark subset (repeatable)")
    add("--misses", type=_positive_int, metavar="N",
        help="per-benchmark LLC miss budget")
    add("--out", type=_text, metavar="FILE",
        help=f"JSON report path (default {DEFAULT_SWEEP_OUT})")
    return parser


#: ``serve``'s positive-integer flags: flag -> (destination, help).
_SERVE_COUNTS = {
    "--tenants": ("tenants", "simulated tenant clients (round-robin over the roster)"),
    "--shards": ("shards", "ORAM instances in the pool"),
    "--requests": ("requests", "per-tenant request cap"),
    "--burst": ("burst", "requests a tenant offers per epoch"),
    "--max-batch": ("max_batch", "requests per replay call (a shard runs its "
                    "whole epoch queue, N at a time)"),
    "--queue-cap": ("queue_capacity", "bound of a shard's admission queue"),
    "--seed": ("seed", "runner seed"),
    "--misses": ("misses", "trace miss budget per benchmark"),
}


def _add_serve_parser(commands) -> argparse.ArgumentParser:
    parser = commands.add_parser(
        "serve", allow_abbrev=False, argument_default=argparse.SUPPRESS,
        help=f"multi-tenant ORAM serving scenario ({DEFAULT_SERVE_OUT})",
        description="Serve N simulated tenants on M ORAM shards; print their "
                    "stats, write a JSON report. A flag left out is ServeConfig's "
                    "/ tenants_for's default (2 tenants over hmmer, gob).",
    )
    parser.set_defaults(run=_serve_main)
    add = parser.add_argument
    for flag, (dest, help) in _SERVE_COUNTS.items():
        add(flag, dest=dest, type=_positive_int, metavar="N", help=help)
    add("--scheme", type=_text, metavar="NAME|SPEC", help="every shard's scheme")
    add("--bench", action="append", type=_text, metavar="NAME",
        help="tenant workload roster entry (repeatable; 'a+b' interleaves two)")
    add("--policy", choices=POLICIES, help="backpressure at a full shard queue")
    add("--demo", action="store_true", default=False,
        help="the CI smoke scenario: 4 tenants, 2 shards, 400 requests each")
    add("--out", type=_text, default=DEFAULT_SERVE_OUT, metavar="FILE",
        help=f"JSON report path (default {DEFAULT_SERVE_OUT})")
    return parser


def build_parser() -> Tuple[argparse.ArgumentParser, List[argparse.ArgumentParser]]:
    """The top-level parser, and every parser ``list`` prints the help of."""
    options = _global_options()
    parser = argparse.ArgumentParser(
        prog="python -m repro", parents=[options], allow_abbrev=False,
        description="Run the paper's experiments by name (several names run "
                    "in the order given), or one of the subcommands.",
    )
    commands = parser.add_subparsers(
        dest="command", metavar="COMMAND", title="commands"
    )
    for name in _ORDER:
        experiment = commands.add_parser(
            name, parents=[options], allow_abbrev=False,
            help=EXPERIMENTS[name].__module__,
        )
        experiment.add_argument(
            "names", nargs="*", type=_experiment, metavar="NAME",
            help="further experiments to run after this one",
        )
        experiment.set_defaults(run=_experiments_main)
    commands.add_parser(
        "all", parents=[options], allow_abbrev=False,
        help="run everything in order",
    ).set_defaults(run=_experiments_main)
    commands.add_parser(
        "list", allow_abbrev=False, help="print every command's help (the default)"
    )
    return parser, [
        parser,
        _add_sweep_parser(commands),
        _add_serve_parser(commands),
    ]


def _announce_tier() -> None:
    """Name the resolved replay tier on stderr.

    Stderr only: the tier is performance-only, so it never reaches a
    report, a digest or a cache key. Raises what resolving it raises
    (``REPRO_NATIVE=require`` with the extension unbuilt or stale); a
    reference tier the default fell back to says how to build the fast
    one.
    """
    if resolve_tier()[0] == "compiled":
        tier = "fast: native kernels"
    elif Settings.from_env().native == "off":
        tier = "reference"
    else:
        tier = f"reference — {build_hint()}"
    print(f"replay tier {tier}", file=sys.stderr)


def _experiments_main(args: argparse.Namespace) -> int:
    _announce_tier()
    names = _ORDER if args.command == "all" else (args.command, *args.names)
    for name in names:
        print(f"==== {name} " + "=" * max(60 - len(name), 0))
        EXPERIMENTS[name]()
        print()
    return 0


def _write_report(report: object, out: str) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


def _sweep_main(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: grid x schemes x benchmarks -> table+JSON."""
    from repro.sim.runner import SimulationRunner
    from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

    _announce_tier()
    out = args.out or (
        f"SWEEP_{args.saved}.json" if args.saved is not None else DEFAULT_SWEEP_OUT
    )
    benches = args.bench or None
    reports: List[dict] = []
    try:
        if args.saved is not None and (args.scheme or args.grid):
            raise ConfigurationError(
                "--saved names a complete figure sweep; it cannot be "
                "combined with --scheme or --grid"
            )
        if args.saved is not None:
            runner = figure_runner(args.saved, args.misses)
            sweeps = SAVED_SWEEPS[args.saved].sweep(benches)
        else:
            runner = SimulationRunner(misses_per_benchmark=args.misses)
            sweeps = SweepSpec.from_args(
                args.scheme or ["PIC_X32"], args.grid, benches
            )
        # A figure of several sweeps writes the list of their reports.
        several = isinstance(sweeps, list)
        sweeps = sweeps if several else [sweeps]
        # --workers N reaches runner.execute through the environment:
        # each call forks its own N workers.
        for sweep in sweeps:
            reports.append(run_sweep(sweep, runner))
    except SweepInterrupted as exc:
        if exc.report is not None:
            reports.append(exc.report)
            _write_report(reports if several else exc.report, out)
            print(f"\nsweep interrupted; wrote partial report to {out}", file=sys.stderr)
        print(_rerun_hint(runner), file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    # The report first: it is the sweep's record, the table only a view.
    _write_report(reports if several else reports[0], out)
    for report in reports:
        print(sweep_table(report))
    print(f"wrote {out}")
    quarantined = sum(len(r["resilience"]["quarantined"]) for r in reports)
    if quarantined:
        print(
            f"{quarantined} cell(s) quarantined after repeated failures (see "
            f"report['resilience']); {_rerun_hint(runner)}",
            file=sys.stderr,
        )
    return 0


def _rerun_hint(runner) -> str:
    """How to finish a sweep that stopped short: run it again."""
    store = runner.result_cache
    if store is None:
        return "the result store is off, so re-running the sweep recomputes every cell"
    again = "the same sweep" + (" without --force" if runner.force else "")
    return (
        f"finished cells are in the result store {store.root}; "
        f"re-run {again} to finish it"
    )


def _serve_main(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: N tenants on M shards -> stats + JSON."""
    from repro.serve import OramService, ServeConfig, serve_table, tenants_for
    from repro.sim.runner import SimulationRunner

    _announce_tier()
    # Typed flags over the scenario's presets; whatever neither names is
    # left to the constructor that owns the default.
    given = {**(_SERVE_DEMO if args.demo else _SERVE_PLAIN), **vars(args)}

    def only(*names: str) -> Dict[str, object]:
        return {name: given[name] for name in names if name in given}

    try:
        runner = SimulationRunner(
            misses_per_benchmark=given.get("misses"), **only("seed")
        )
        config = ServeConfig(
            **only(*(f.name for f in dataclasses.fields(ServeConfig)))
        )
        service = OramService(
            tenants_for(
                given["bench"], given["tenants"],
                **only("requests"),
            ),
            runner=runner,
            config=config,
        )
        service.run()
    except ReproError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # unknown benchmark names in --bench
        print(f"serve error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    report = service.report()
    print(serve_table(report))
    _write_report(report, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    """Parse, export the settings, dispatch; returns a process exit code."""
    parser, documented = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (2), already printed
        return exc.code
    overrides = {k: v for k, v in vars(args).items() if k in _SETTINGS_FIELDS}
    try:
        settings = dataclasses.replace(Settings.from_env(), **overrides)
        settings.export()
        if "faults" in overrides:
            # Install now: workers re-install from the exported variable,
            # this process has to be told.
            install_from(settings)
        if args.command in (None, "list"):
            print("Available experiments (python -m repro [options] <name> [...]):")
            for documented_parser in documented:
                print(documented_parser.format_help())
            return 0
        return args.run(args)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
