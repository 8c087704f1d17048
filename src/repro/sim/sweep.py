"""Parameter-grid sweeps over declarative scheme specs.

A :class:`SweepSpec` names base schemes (registry names, spec strings, or
:class:`~repro.spec.SchemeSpec` values), a grid of spec-field axes, the
benchmark-parameter axes ``misses`` / ``wss``, and a benchmark list.
Every point of it is a replay cell: :func:`run_sweep` expands the
cartesian product into sized ``SchemeSpec`` points and drives them, one
way, through :meth:`~repro.sim.runner.SimulationRunner.execute` — so
sweeps inherit the whole experiment engine for free: on-disk trace/result
caching (warm-cache sweeps replay nothing, an interrupted sweep is
finished by running it again), fan-out over forked fabric workers bitwise
identical to serial, and per-cell progress streaming. A serving scenario
is not a sweep point; it is one ``python -m repro serve`` run.

The report is plain data (JSON-safe), deterministic in content *and*
order regardless of worker count or cache temperature::

    from repro.sim.sweep import SweepSpec, run_sweep

    sweep = SweepSpec.from_args(
        schemes=["PC_X32", "PIC_X32"],
        grid={"plb_capacity_bytes": ["4KiB", "8KiB", "16KiB"]},
        benchmarks=["gob", "mcf"],
    )
    report = run_sweep(sweep, workers=8)

CLI: ``python -m repro [--workers N] sweep --scheme PC_X32 --grid
plb=4KiB,8KiB ...`` is ``run_sweep(sweep, runner)``; it prints the
slowdown table and writes the JSON report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SpecError, SweepInterrupted
from repro.faults import fault_hook
from repro.resilience import RetryPolicy
from repro.sim.runner import ProgressCallback, SchemeLike, SimulationRunner
from repro.spec import (
    SchemeSpec,
    decompose_spec,
    get_spec,
    parse_field_value,
    parse_scheme_string,
    parse_size,
    render_scheme_string,
    resolve_field,
    resolve_spec,
)
from repro.utils.stats import geometric_mean
from repro.workloads.spec import benchmark, benchmark_names, scaled_benchmark_name

#: Grid axes over *benchmark parameters* rather than spec fields:
#: ``misses`` sweeps the per-benchmark LLC miss budget (a runner knob),
#: ``wss`` sweeps the working-set size (a derived-benchmark override).
BENCH_AXES = ("misses", "wss")


def parse_grid_axis(text: str) -> Tuple[str, Tuple[object, ...]]:
    """Parse one ``--grid`` argument: ``"plb=4KiB,8KiB"`` -> axis tuple.

    The key accepts full spec field names, the mini-language aliases,
    or one of the benchmark-parameter axes in :data:`BENCH_AXES`
    (``"misses=2000,8000"``, ``"wss=4MiB,16MiB"``); values parse by the
    field's type (sizes, bools, ``none`` — bench axes are positive
    sizes/integers).
    """
    if "=" not in text:
        raise SpecError(
            f"grid axis {text!r} is not of the form field=value[,value...]"
        )
    key, _, rest = text.partition("=")
    items = [item for item in rest.split(",") if item.strip()]
    axis = key.strip().lower()
    if axis in BENCH_AXES:
        values = tuple(_parse_bench_value(axis, item) for item in items)
    else:
        axis = resolve_field(key)
        values = tuple(parse_field_value(axis, item) for item in items)
    if not values:
        raise SpecError(f"grid axis {text!r} lists no values")
    if len(set(values)) != len(values):
        raise SpecError(f"grid axis {text!r} repeats a value")
    return axis, values


def _parse_bench_value(axis: str, value: object) -> int:
    """Parse one benchmark-parameter axis value (positive int)."""
    parsed = parse_size(value) if isinstance(value, str) else value
    if not isinstance(parsed, int) or isinstance(parsed, bool) or parsed < 1:
        raise SpecError(
            f"axis {axis!r} expects positive integers, got {value!r}"
        )
    return parsed


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: base schemes x spec-field x bench-param axes.

    ``grid`` axes vary :class:`~repro.spec.SchemeSpec` fields;
    ``bench_grid`` axes vary benchmark parameters (:data:`BENCH_AXES`:
    the per-benchmark miss budget and the working-set size), expanding
    the benchmark/runner side of the matrix instead of the scheme side.
    """

    schemes: Tuple[SchemeLike, ...]
    grid: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    benchmarks: Tuple[str, ...] = ()
    bench_grid: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if not self.schemes:
            raise SpecError("a sweep needs at least one base scheme")
        seen = set()
        for field_name, values in self.grid:
            field_name_resolved = resolve_field(field_name)
            if field_name_resolved != field_name:
                raise SpecError(
                    f"grid axes use full field names; got {field_name!r} "
                    f"(did you mean {field_name_resolved!r}?)"
                )
            if field_name in seen:
                raise SpecError(f"grid axis {field_name!r} appears twice")
            seen.add(field_name)
            if not values:
                raise SpecError(f"grid axis {field_name!r} lists no values")
        axes_seen = set()
        normalised: List[Tuple[str, Tuple[int, ...]]] = []
        for axis, values in self.bench_grid:
            if axis not in BENCH_AXES:
                raise SpecError(
                    f"unknown bench axis {axis!r}; choose from {BENCH_AXES}"
                )
            if axis in axes_seen:
                raise SpecError(f"bench axis {axis!r} appears twice")
            axes_seen.add(axis)
            if not values:
                raise SpecError(f"bench axis {axis!r} lists no values")
            # Normalise, don't just validate: direct construction may
            # spell values as size strings ("4MiB"); downstream consumers
            # (names_for, runner.derive) get the parsed integers.
            normalised.append(
                (axis, tuple(_parse_bench_value(axis, v) for v in values))
            )
        object.__setattr__(self, "bench_grid", tuple(normalised))
        # Fail fast on unknown schemes/benchmarks at construction time.
        for scheme in self.schemes:
            resolve_spec(scheme)
        for name in self.benchmarks:
            try:
                benchmark(name)
            except KeyError as exc:
                raise SpecError(str(exc)) from None

    @classmethod
    def from_args(
        cls,
        schemes: Sequence[SchemeLike],
        grid: Union[Mapping[str, Iterable[object]], Iterable[str], None] = None,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> "SweepSpec":
        """Build from CLI-ish inputs.

        ``grid`` is either a mapping ``{field: values}`` (field names or
        aliases; values raw or mini-language strings) or an iterable of
        ``"field=v1,v2"`` axis strings. Axes named after a benchmark
        parameter (:data:`BENCH_AXES`) are routed to ``bench_grid``;
        everything else resolves as a spec field.
        """
        axes: List[Tuple[str, Tuple[object, ...]]] = []
        bench_axes: List[Tuple[str, Tuple[int, ...]]] = []
        if grid is None:
            pass
        elif isinstance(grid, Mapping):
            for key, values in grid.items():
                axis = str(key).strip().lower()
                if axis in BENCH_AXES:
                    bench_axes.append(
                        (axis, tuple(_parse_bench_value(axis, v) for v in values))
                    )
                    continue
                field_name = resolve_field(key)
                parsed = tuple(
                    parse_field_value(field_name, value)
                    if isinstance(value, str)
                    else value
                    for value in values
                )
                axes.append((field_name, parsed))
        else:
            for item in grid:
                axis, values = parse_grid_axis(item)
                if axis in BENCH_AXES:
                    bench_axes.append((axis, values))  # type: ignore[arg-type]
                else:
                    axes.append((axis, values))
        return cls(
            schemes=tuple(schemes),
            grid=tuple(axes),
            benchmarks=tuple(benchmarks) if benchmarks is not None else (),
            bench_grid=tuple(bench_axes),
        )

    def points(self) -> List[Tuple[str, SchemeSpec]]:
        """Expanded (label, spec) grid points, first occurrence deduped.

        Point order is deterministic: base schemes in declaration order,
        then the cartesian product with the *last* axis varying fastest —
        so serial and parallel sweeps report cells identically.

        Labels carry every grid delta *explicitly* — a combo value that
        happens to equal the registry default still renders (and, fed back
        through the runner's string path, still pins that field against
        runner sizing), so two axis values never collapse into one row.
        """
        fields = [field_name for field_name, _values in self.grid]
        value_axes = [values for _field_name, values in self.grid]
        out: List[Tuple[str, SchemeSpec]] = []
        seen = set()
        for scheme in self.schemes:
            if isinstance(scheme, str):
                base_name, base_deltas = parse_scheme_string(scheme)
            else:
                base_name, base_deltas = decompose_spec(resolve_spec(scheme))
            for combo in itertools.product(*value_axes):
                deltas = dict(base_deltas)
                deltas.update(zip(fields, combo))
                label = render_scheme_string(base_name, deltas)
                if label in seen:
                    continue
                seen.add(label)
                out.append((label, get_spec(base_name).with_(**deltas)))
        return out

    def bench_names(self) -> List[str]:
        """Benchmarks to sweep (all SPEC stand-ins when unspecified)."""
        return list(self.benchmarks) if self.benchmarks else benchmark_names()

    def bench_points(self) -> List[Dict[str, int]]:
        """Expanded benchmark-parameter combos (``[{}]`` when no axes).

        Same ordering convention as :meth:`points`: declaration order,
        last axis varying fastest, so reports are deterministic.
        """
        axes = [axis for axis, _values in self.bench_grid]
        value_axes = [values for _axis, values in self.bench_grid]
        return [dict(zip(axes, combo)) for combo in itertools.product(*value_axes)]

    def names_for(self, combo: Mapping[str, int]) -> List[str]:
        """Benchmark names for one bench-grid combo (``wss`` applied).

        A ``wss`` override derives self-describing benchmark names
        (``"mcf@wss=8388608"``) that any process can resolve; without one
        this is just :meth:`bench_names`.
        """
        names = self.bench_names()
        wss = combo.get("wss")
        if wss is None:
            return names
        return [scaled_benchmark_name(name, wss) for name in names]


def run_sweep(
    sweep: SweepSpec,
    runner: Optional[SimulationRunner] = None,
    *,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    retry: Optional[RetryPolicy] = None,
    executor: Optional[object] = None,
) -> Dict[str, object]:
    """Execute a sweep; returns a deterministic, JSON-safe report.

    ``report["cells"]`` holds one entry per (bench-grid combo, grid
    point, benchmark) with the point's full spec, the serialized
    :class:`SimResult`, and the slowdown vs the insecure-DRAM baseline
    (``report["baselines"]``). A ``misses`` bench axis runs each combo on
    a derived runner (:meth:`SimulationRunner.derive`); a ``wss``
    axis derives the benchmark names themselves, so every cell records
    the miss budget and (possibly derived) benchmark it measured. Cells
    are ordered (bench combos, then points, then benchmarks) regardless
    of worker scheduling, and results are bitwise identical serial vs
    parallel and warm-cache vs cold — the experiment engine's core
    guarantee.

    Every combo is two :meth:`SimulationRunner.execute` calls, scheme
    cells then baselines, with ``workers`` (above 1, a fabric of that
    many forked workers per call that has two or more cold scheme
    cells); ``report["resilience"]["fabric"]`` sums the calls'
    coordinator counters (absent when no call needed a coordinator).
    ``executor=FabricExecutor(coordinator)`` runs every call on that
    started coordinator instead (``workers`` is then ignored), and its
    ``stats()`` are ``resilience["fabric"]``. The report is bit-identical
    either way — only ``resilience`` distinguishes the runs.

    Resilience: cells that keep failing under ``retry`` are quarantined
    into ``report["resilience"]["quarantined"]`` instead of aborting the
    sweep. ``KeyboardInterrupt`` raises
    :class:`~repro.errors.SweepInterrupted` carrying the partial report
    (``resilience.interrupted = True``). Every cell is in the runner's
    result store the moment it completes, so running the same sweep
    again finishes it: the stored cells come back as ``from_cache``
    hits, bit-identical, and only the rest execute.
    """
    if runner is None:
        runner = SimulationRunner()
    points = sweep.points()
    labels = [label for label, _spec in points]
    combos = sweep.bench_points()
    multi_miss = any("misses" in combo for combo in combos)
    failures: List[dict] = []
    counters = {"executed": 0, "from_cache": 0}
    fabric: Optional[Dict[str, object]] = None  # the calls' summed counters
    # One record per bench combo; ``done[(label, benchmark)]`` fills in as
    # cells finish (from the result store or a fresh replay; baselines
    # under the label "insecure"), so a partial report can be assembled
    # at any interruption point.
    state: List[Dict[str, object]] = []

    def assemble(interrupted: bool) -> Dict[str, object]:
        cells: List[Dict[str, object]] = []
        baseline_rows: Dict[str, Dict[str, object]] = {}
        for rec in state:
            names = rec["names"]
            misses = rec["misses"]
            for name in names:
                payload = rec["done"].get(("insecure", name))
                if payload is not None:
                    key = f"{name}@misses={misses}" if multi_miss else name
                    baseline_rows[key] = payload
            for label, spec in points:
                # One plain-data image per point, shared by its cells.
                spec_dict = spec.to_dict()
                for name in names:
                    payload = rec["done"].get((label, name))
                    if payload is None:
                        continue  # quarantined, or not reached before Ctrl-C
                    cell: Dict[str, object] = {
                        "scheme": label,
                        "benchmark": name,
                        "misses": misses,
                        "spec": spec_dict,
                        "result": payload,
                    }
                    base = rec["done"].get(("insecure", name))
                    if base is not None:
                        cell["slowdown"] = payload["cycles"] / base["cycles"]
                    cells.append(cell)
        # Observability, not results: comparisons across topologies strip
        # this block, and everything outside it is topology-independent.
        resilience: Dict[str, object] = {
            "executed": counters["executed"],
            "from_cache": counters["from_cache"],
            "quarantined": list(failures),
        }
        if interrupted:
            resilience["interrupted"] = True
        stats = executor.stats() if executor is not None else fabric
        if stats is not None:
            resilience["fabric"] = stats
        import repro

        return {
            "kind": "sweep",
            "version": getattr(repro, "__version__", "0"),
            "schemes": labels,
            "grid": {
                **{field_name: list(values) for field_name, values in sweep.grid},
                **{axis: list(values) for axis, values in sweep.bench_grid},
            },
            "benchmarks": sweep.bench_names(),
            "baselines": baseline_rows,
            "cells": cells,
            "resilience": resilience,
        }

    try:
        for combo in combos:
            names = sweep.names_for(combo)
            cell_runner = (
                runner.derive(misses_per_benchmark=combo["misses"])
                if "misses" in combo
                else runner
            )
            rec: Dict[str, object] = {
                "names": names,
                "misses": cell_runner.misses,
                "done": {},
            }
            state.append(rec)

            def finished(label, name, result, cached):
                rec["done"][(label, name)] = result.to_dict()
                counters["from_cache" if cached else "executed"] += 1
                # The result store already holds the cell, so a fault
                # fired here never loses it.
                fault_hook("sweep", f"{label}/{name}")
                if progress is not None:
                    progress(label, name, result, cached)

            # Feed the runner *labels*, not spec values: the string path
            # preserves every explicit grid delta (even one equal to a
            # registry default) against the runner's per-benchmark sizing.
            # Scheme cells, then baselines; one call per phase keeps
            # cross-scheme parallelism.
            for cells in (
                cell_runner.cells(labels, names),
                cell_runner.baseline_cells(names),
            ):
                if executor is not None:
                    executor.execute(
                        cell_runner, cells,
                        progress=finished, retry=retry, failures=failures,
                    )
                    continue
                cell_runner.execute(
                    cells, workers=workers,
                    progress=finished, retry=retry, failures=failures,
                )
                stats = cell_runner.fabric_stats
                if stats is not None:  # counters add up; the rest is the latest
                    from repro.fabric.coordinator import COUNTERS

                    fabric = stats if fabric is None else {
                        key: fabric[key] + value if key in COUNTERS else value
                        for key, value in stats.items()
                    }
    except KeyboardInterrupt:
        raise SweepInterrupted(
            "sweep interrupted; running it again finishes it",
            report=assemble(True),
        ) from None
    return assemble(False)


def sweep_table(report: Mapping[str, object]) -> str:
    """Render a sweep report as an aligned text table.

    One row per (bench-grid combo, grid point); cells are slowdowns vs
    insecure when the report carries baselines, raw megacycles
    otherwise. Bench-parameter axes fold into the row label (``wss``
    derivations are stripped back off the benchmark column names), so a
    combo never collapses into another combo's row. A cell that was
    quarantined, or whose own baseline was, renders as ``-`` and stays
    out of its row's geomean.
    """
    # Columns are base benchmark names (derivations fold into row labels).
    names: List[str] = list(
        dict.fromkeys(
            str(name).partition("@")[0]
            for name in report["benchmarks"]  # type: ignore[union-attr]
        )
    )
    have_baselines = bool(report.get("baselines"))
    grid = report.get("grid", {})
    show_misses = "misses" in grid  # type: ignore[operator]
    table: Dict[str, Dict[str, float]] = {}
    for cell in report["cells"]:  # type: ignore[union-attr]
        bench, _sep, bench_suffix = str(cell["benchmark"]).partition("@")
        suffixes = [bench_suffix] if bench_suffix else []
        if show_misses:
            suffixes.append(f"misses={cell['misses']}")
        label = cell["scheme"] + (
            f" [{','.join(suffixes)}]" if suffixes else ""
        )
        row = table.setdefault(label, {})
        if not have_baselines:
            row[bench] = cell["result"]["cycles"] / 1e6
        elif "slowdown" in cell:  # else its own baseline was quarantined
            row[bench] = cell["slowdown"]
    for row in table.values():
        if row:
            row["geomean"] = geometric_mean(list(row.values()))
    title = (
        "sweep: slowdown vs insecure"
        if have_baselines
        else "sweep: megacycles per benchmark"
    )
    # Rows are keyed by full spec labels, which outgrow format_table's
    # 10-column scheme field; pad the header ourselves.
    width = max((len(label) for label in table), default=10)
    lines = [title]
    header = f"{'scheme':>{width}} " + " ".join(f"{b:>7}" for b in names)
    lines.append(header + f" {'geomean':>8}")
    for label, row in table.items():
        cells = " ".join(_table_value(row.get(b), 7) for b in names)
        lines.append(
            f"{label:>{width}} " + cells + " " + _table_value(row.get("geomean"), 8)
        )
    return "\n".join(lines)


def _table_value(value: Optional[float], width: int) -> str:
    """One table entry; ``-`` where the cell or its baseline is missing."""
    return "-".rjust(width) if value is None else f"{value:{width}.2f}"
