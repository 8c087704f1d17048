"""Sweep engine: grid expansion, determinism (serial/parallel, warm/cold)."""

import json

import pytest

import repro.sim.runner as runner_mod
from repro.errors import SpecError
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, parse_grid_axis, run_sweep, sweep_table
from repro.spec import get_spec

BENCHES = ("gob", "hmmer")
MISSES = 150


def tiny_sweep() -> SweepSpec:
    """The acceptance grid: PLB capacity x X (via two base schemes)."""
    return SweepSpec.from_args(
        schemes=["P_X16", "PC_X32"],
        grid={"plb_capacity_bytes": ["4KiB", "8KiB"]},
        benchmarks=BENCHES,
    )


def _runner(tmp_path, **kw) -> SimulationRunner:
    return SimulationRunner(
        misses_per_benchmark=MISSES,
        cache_dir=tmp_path / "traces",
        result_cache_dir=tmp_path / "results",
        **kw,
    )


class TestGridParsing:
    def test_axis_with_alias_and_sizes(self):
        assert parse_grid_axis("plb=4KiB,8KiB") == (
            "plb_capacity_bytes", (4096, 8192)
        )

    def test_axis_rejects_missing_values(self):
        with pytest.raises(SpecError, match="no values"):
            parse_grid_axis("plb=")

    def test_axis_rejects_duplicates(self):
        with pytest.raises(SpecError, match="repeats"):
            parse_grid_axis("plb=4KiB,4096")

    def test_axis_rejects_unknown_field(self):
        with pytest.raises(SpecError, match="valid fields"):
            parse_grid_axis("frobnication=1,2")

    def test_axis_rejects_missing_equals(self):
        with pytest.raises(SpecError, match="field=value"):
            parse_grid_axis("plb")


class TestSweepSpec:
    def test_points_cartesian_order(self):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid={"plb_capacity_bytes": [4096, 8192], "plb_ways": [1, 2]},
        )
        labels = [label for label, _spec in sweep.points()]
        # Grid deltas render explicitly even at registry defaults
        # (plb_ways=1), so every axis value keeps its own row.
        assert labels == [
            "PC_X32:plb_capacity_bytes=4096,plb_ways=1",
            "PC_X32:plb_capacity_bytes=4096,plb_ways=2",
            "PC_X32:plb_capacity_bytes=8192,plb_ways=1",
            "PC_X32:plb_capacity_bytes=8192,plb_ways=2",
        ]

    def test_axis_value_at_registry_default_stays_pinned(self, tmp_path):
        """A grid value equal to the base's default must not be absorbed
        into runner sizing: onchip=1024 vs onchip=2048 (the PC_X32
        default) have to produce two genuinely different rows even though
        the runner's own sizing default is 1024."""
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid={"onchip": [1024, 2048]},
            benchmarks=["gob"],
        )
        labels = [label for label, _ in sweep.points()]
        assert labels == [
            "PC_X32:onchip_entries=1024",
            "PC_X32:onchip_entries=2048",
        ]
        runner = _runner(tmp_path)
        spec_small, _ = runner.sized_spec(labels[0], "gob")
        spec_large, _ = runner.sized_spec(labels[1], "gob")
        assert spec_small.onchip_entries == 1024
        assert spec_large.onchip_entries == 2048
        assert spec_small.canonical() != spec_large.canonical()

    def test_unknown_benchmark_fails_at_construction(self):
        with pytest.raises(SpecError, match="unknown benchmark"):
            SweepSpec.from_args(schemes=["PC_X32"], benchmarks=["nope"])

    def test_points_dedupe_identical_labels(self):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32", "PC_X32:plb=64KiB"],  # 64KiB == registry default
            grid={"plb_capacity_bytes": [4096]},
        )
        assert len(sweep.points()) == 1

    def test_empty_grid_yields_base_points(self):
        sweep = SweepSpec.from_args(schemes=["R_X8", "PC_X32"])
        assert [label for label, _ in sweep.points()] == ["R_X8", "PC_X32"]

    def test_scheme_objects_accepted(self):
        spec = get_spec("PIC_X32").with_(storage="object")
        sweep = SweepSpec.from_args(schemes=[spec])
        (label, point), = sweep.points()
        assert point == spec and "storage=object" in label

    def test_needs_a_scheme(self):
        with pytest.raises(SpecError, match="at least one"):
            SweepSpec.from_args(schemes=[])

    def test_unknown_scheme_fails_at_construction(self):
        with pytest.raises(SpecError, match="unknown scheme"):
            SweepSpec.from_args(schemes=["NOPE"])

    def test_duplicate_axis_rejected(self):
        with pytest.raises(SpecError, match="twice"):
            SweepSpec(
                schemes=("PC_X32",),
                grid=(
                    ("plb_capacity_bytes", (1024,)),
                    ("plb_capacity_bytes", (2048,)),
                ),
            )

    def test_alias_axis_key_rejected_on_direct_construction(self):
        with pytest.raises(SpecError, match="full field names"):
            SweepSpec(schemes=("PC_X32",), grid=(("plb", (1024,)),))


class TestRunSweep:
    def test_report_shape_and_slowdowns(self, tmp_path):
        report = run_sweep(tiny_sweep(), _runner(tmp_path))
        assert report["kind"] == "sweep"
        assert report["benchmarks"] == list(BENCHES)
        assert len(report["cells"]) == 4 * len(BENCHES)
        for cell in report["cells"]:
            assert cell["slowdown"] > 1.0  # ORAM never beats insecure DRAM
            assert cell["spec"]["plb_capacity_bytes"] in (4096, 8192)
        assert json.dumps(report)  # JSON-safe throughout

    def test_serial_and_parallel_reports_identical(self, tmp_path):
        # Distinct result caches so the parallel run really recomputes.
        serial = run_sweep(tiny_sweep(), _runner(tmp_path / "a"))
        parallel = run_sweep(tiny_sweep(), _runner(tmp_path / "b"), workers=3)
        # The fabric's scheduling counters are the one difference.
        assert "fabric" not in serial["resilience"]
        assert parallel["resilience"].pop("fabric")["completed"] == 8
        assert serial == parallel

    def test_warm_cache_report_identical_and_replay_free(
        self, tmp_path, monkeypatch
    ):
        cold = run_sweep(tiny_sweep(), _runner(tmp_path))

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replay_trace called on a warm sweep")

        monkeypatch.setattr(runner_mod, "replay_trace", boom)
        warm = run_sweep(tiny_sweep(), _runner(tmp_path))
        # Resilience counters intentionally differ (executed vs from_cache);
        # every measured quantity must be identical.
        assert warm.pop("resilience")["from_cache"] > 0
        assert cold.pop("resilience")["executed"] > 0
        assert warm == cold

    def test_a_cold_serial_sweep_asks_the_store_once_per_cell(
        self, tmp_path, monkeypatch
    ):
        """``execute`` looks every cell up once and replays the misses
        without asking again; a warm re-run is one hit per cell and no
        replay."""
        cold_runner = _runner(tmp_path)
        report = run_sweep(tiny_sweep(), cold_runner, workers=1)
        cells = len(report["cells"]) + len(report["baselines"])
        assert cells == 4 * len(BENCHES) + len(BENCHES)
        store = cold_runner.result_cache
        assert (store.misses, store.hits, store.stores) == (cells, 0, cells)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a warm sweep computed a cell")

        monkeypatch.setattr(runner_mod, "replay_trace", boom)
        monkeypatch.setattr(runner_mod, "insecure_cycles", boom)
        warm_runner = _runner(tmp_path)
        run_sweep(tiny_sweep(), warm_runner, workers=1)
        store = warm_runner.result_cache
        assert (store.misses, store.hits, store.stores) == (0, cells, 0)

    def test_progress_streams_every_cell(self, tmp_path):
        seen = []
        run_sweep(
            tiny_sweep(),
            _runner(tmp_path),
            progress=lambda s, b, r, cached: seen.append((s, b)),
        )
        # 4 grid points x 2 benchmarks, plus the 2 insecure baselines.
        assert len(seen) == 4 * len(BENCHES) + len(BENCHES)

    def test_table_renders_all_points(self, tmp_path):
        report = run_sweep(tiny_sweep(), _runner(tmp_path))
        text = sweep_table(report)
        assert "geomean" in text
        for label in report["schemes"]:
            assert label in text

    def test_table_marks_a_missing_slowdown_with_a_dash(self):
        """A cell whose baseline was quarantined has no slowdown to show."""
        def cell(scheme, bench, cycles, **slowdown):
            return {
                "scheme": scheme, "benchmark": bench, "misses": 1,
                "result": {"cycles": cycles}, **slowdown,
            }

        report = {
            "benchmarks": ["gob", "hmmer"],
            "baselines": {"hmmer": {"cycles": 10.0}},
            "cells": [
                cell("PC_X32", "gob", 30.0),
                cell("PC_X32", "hmmer", 40.0, slowdown=4.0),
                cell("P_X16", "gob", 50.0),  # and its hmmer cell is absent
            ],
        }
        rows = [line.split() for line in sweep_table(report).splitlines()[2:]]
        assert rows == [["PC_X32", "-", "4.00", "4.00"], ["P_X16", "-", "-", "-"]]

    @pytest.mark.parametrize("removed", ["checkpoint", "resume"])
    def test_run_sweep_takes_no_journal(self, tmp_path, removed):
        """Running a sweep again, not a journal, finishes it."""
        with pytest.raises(TypeError, match=removed):
            run_sweep(tiny_sweep(), _runner(tmp_path), **{removed: True})


class TestBenchGrid:
    """Grid axes over benchmark parameters (miss budget, WSS)."""

    def test_parse_misses_axis(self):
        assert parse_grid_axis("misses=2000,8000") == ("misses", (2000, 8000))

    def test_parse_wss_axis_with_sizes(self):
        assert parse_grid_axis("wss=4MiB,16MiB") == (
            "wss", (4 << 20, 16 << 20)
        )

    def test_from_args_routes_bench_axes(self):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid=["plb=4KiB,8KiB", "misses=100,200", "wss=1MiB"],
            benchmarks=BENCHES,
        )
        assert sweep.grid == (("plb_capacity_bytes", (4096, 8192)),)
        assert sweep.bench_grid == (
            ("misses", (100, 200)), ("wss", (1 << 20,))
        )

    def test_from_args_mapping_routes_bench_axes(self):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid={"misses": ["100", 200], "wss": ["2MiB"]},
            benchmarks=BENCHES,
        )
        assert sweep.bench_grid == (
            ("misses", (100, 200)), ("wss", (2 << 20,))
        )

    def test_bench_points_cartesian_last_axis_fastest(self):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid=["misses=100,200", "wss=1MiB,2MiB"],
            benchmarks=BENCHES,
        )
        assert sweep.bench_points() == [
            {"misses": 100, "wss": 1 << 20},
            {"misses": 100, "wss": 2 << 20},
            {"misses": 200, "wss": 1 << 20},
            {"misses": 200, "wss": 2 << 20},
        ]

    def test_no_bench_axes_single_empty_combo(self):
        assert tiny_sweep().bench_points() == [{}]

    def test_names_for_derives_wss_names(self):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"], grid=["wss=1MiB"], benchmarks=("gob",)
        )
        assert sweep.names_for({"wss": 1 << 20}) == [f"gob@wss={1 << 20}"]
        assert sweep.names_for({}) == ["gob"]

    def test_wss_matching_base_keeps_name(self):
        from repro.workloads.spec import benchmark

        base_wss = benchmark("gob").wss_bytes
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"], grid=[f"wss={base_wss}"], benchmarks=("gob",)
        )
        assert sweep.names_for({"wss": base_wss}) == ["gob"]

    def test_bench_axis_rejects_zero(self):
        with pytest.raises(SpecError, match="positive integers"):
            parse_grid_axis("misses=0,100")

    def test_bench_axis_rejects_duplicates(self):
        with pytest.raises(SpecError, match="repeats a value"):
            parse_grid_axis("wss=1MiB,1048576")

    def test_duplicate_bench_axis_rejected(self):
        with pytest.raises(SpecError, match="appears twice"):
            SweepSpec(
                schemes=("PC_X32",),
                bench_grid=(("misses", (1,)), ("misses", (2,))),
            )

    def test_unknown_bench_axis_rejected_on_direct_construction(self):
        with pytest.raises(SpecError, match="unknown bench axis"):
            SweepSpec(schemes=("PC_X32",), bench_grid=(("budget", (1,)),))

    def test_run_sweep_expands_misses_axis(self, tmp_path):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"], grid=["misses=100,200"], benchmarks=("gob",)
        )
        report = run_sweep(sweep, _runner(tmp_path))
        assert [cell["misses"] for cell in report["cells"]] == [100, 200]
        assert report["grid"]["misses"] == [100, 200]
        # More budget, more simulated misses: results genuinely differ.
        by_misses = {c["misses"]: c["result"] for c in report["cells"]}
        assert by_misses[100]["llc_misses"] < by_misses[200]["llc_misses"]
        # Baselines are keyed per miss budget, never collapsed.
        assert set(report["baselines"]) == {
            "gob@misses=100", "gob@misses=200"
        }

    def test_run_sweep_expands_wss_axis(self, tmp_path):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"], grid=["wss=1MiB,4MiB"], benchmarks=("gob",)
        )
        report = run_sweep(sweep, _runner(tmp_path))
        names = [cell["benchmark"] for cell in report["cells"]]
        assert names == [f"gob@wss={1 << 20}", f"gob@wss={4 << 20}"]
        # A larger working set misses more per kilo-instruction.
        cells = report["cells"]
        assert cells[0]["result"]["mpki"] < cells[1]["result"]["mpki"]

    def test_bench_grid_composes_with_spec_grid(self, tmp_path):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid=["plb=4KiB,8KiB", "misses=100,200"],
            benchmarks=("gob",),
        )
        report = run_sweep(sweep, _runner(tmp_path))
        # 2 bench combos x 2 grid points x 1 benchmark.
        assert len(report["cells"]) == 4
        seen = {
            (c["misses"], c["spec"]["plb_capacity_bytes"])
            for c in report["cells"]
        }
        assert seen == {(100, 4096), (100, 8192), (200, 4096), (200, 8192)}
        text = sweep_table(report)
        assert "misses=100" in text and "misses=200" in text

    def test_bench_grid_serial_parallel_identical(self, tmp_path):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"], grid=["misses=100,200"], benchmarks=BENCHES
        )
        serial = run_sweep(sweep, _runner(tmp_path / "a"))
        parallel = run_sweep(sweep, _runner(tmp_path / "b"), workers=3)
        # One coordinator per misses combo, counters summed.
        assert parallel["resilience"].pop("fabric")["completed"] == 4
        assert serial == parallel


class TestDerivedBenchmarks:
    def test_benchmark_accepts_derived_name(self):
        from repro.workloads.spec import benchmark

        derived = benchmark("mcf@wss=1048576")
        assert derived.wss_bytes == 1 << 20
        assert derived.name == "mcf@wss=1048576"
        assert derived.patterns == benchmark("mcf").patterns

    def test_scaled_benchmark_name_round_trips(self):
        from repro.workloads.spec import benchmark, scaled_benchmark_name

        name = scaled_benchmark_name("gob", 3 << 20)
        assert benchmark(name).wss_bytes == 3 << 20

    def test_scaled_benchmark_rejects_unknown_base(self):
        from repro.workloads.spec import scaled_benchmark_name

        with pytest.raises(KeyError):
            scaled_benchmark_name("nope", 1 << 20)

    def test_scaled_benchmark_rejects_bad_wss(self):
        from repro.workloads.spec import scaled_benchmark_name

        with pytest.raises(ValueError):
            scaled_benchmark_name("gob", 0)

    def test_unknown_derived_name_rejected(self):
        from repro.workloads.spec import benchmark

        with pytest.raises(KeyError):
            benchmark("gob@wss=banana")
        with pytest.raises(KeyError):
            benchmark("nope@wss=1024")

    def test_runner_sizes_for_derived_wss(self, tmp_path):
        runner = _runner(tmp_path)
        small, _ = runner.sized_spec("PC_X32", "gob@wss=1048576")
        large, _ = runner.sized_spec("PC_X32", "gob@wss=16777216")
        assert large.num_blocks > small.num_blocks


class TestRunnerDerive:
    def test_derive_overrides_misses_and_keeps_caches(self, tmp_path):
        runner = _runner(tmp_path)
        derived = runner.derive(misses_per_benchmark=42)
        assert derived.misses == 42
        assert derived.seed == runner.seed
        assert derived.trace_cache.root == runner.trace_cache.root
        assert derived.result_cache.root == runner.result_cache.root

    def test_derive_rejects_unknown_field(self, tmp_path):
        with pytest.raises(TypeError, match="unknown runner field"):
            _runner(tmp_path).derive(budget=3)


class TestReviewRegressions:
    """Pinned fixes from the PR-5 review pass."""

    def test_bench_grid_string_values_normalised_on_construction(self):
        sweep = SweepSpec(
            schemes=("PC_X32",), bench_grid=(("wss", ("4MiB",)),)
        )
        assert sweep.bench_grid == (("wss", (4 << 20,)),)
        assert sweep.bench_points() == [{"wss": 4 << 20}]
        assert sweep.names_for({"wss": 4 << 20})  # no ValueError

    def test_bench_grid_garbage_value_fails_at_construction(self):
        with pytest.raises(SpecError):
            SweepSpec(schemes=("PC_X32",), bench_grid=(("misses", ("lots",)),))

    def test_wss_axis_over_derived_benchmark_rebases(self):
        """A wss override replaces (never stacks on) an existing one."""
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid=["wss=2MiB"],
            benchmarks=(f"gob@wss={1 << 20}",),
        )
        assert sweep.names_for({"wss": 2 << 20}) == ["gob"]  # 2MiB == gob base
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid=["wss=4MiB"],
            benchmarks=(f"gob@wss={1 << 20}",),
        )
        assert sweep.names_for({"wss": 4 << 20}) == [f"gob@wss={4 << 20}"]
