"""Figure-table memoisation: keys, round-trips, --force semantics."""

import pytest

from repro.settings import Settings
from repro.sim.store import FigureTableCache, cached_figure_table, figure_key
from repro.sim.runner import SimulationRunner

FIGURE_CACHE_ENV = "REPRO_FIGURE_CACHE"


@pytest.fixture
def runner(tmp_path):
    return SimulationRunner(
        misses_per_benchmark=120,
        cache_dir=tmp_path / "traces",
        result_cache_dir=tmp_path / "results",
    )


@pytest.fixture
def cache(tmp_path):
    return FigureTableCache(tmp_path / "figures")


class TestEncoding:
    def test_int_keyed_tables_round_trip(self, cache):
        table = {"gob": {8192: 1.0, 131072: 0.93}, "mcf": {8192: 1.0}}
        assert cache.store("k", table)
        loaded = cache.load("k")
        assert loaded == table
        # JSON would have stringified these; the encoding must not.
        assert all(isinstance(k, int) for k in loaded["gob"])

    def test_nested_lists_round_trip(self, cache):
        table = {"rows": [{"a": 1.5}, {"b": None}], "n": 3}
        cache.store("k", table)
        assert cache.load("k") == table

    def test_unencodable_values_refused_not_crashed(self, cache):
        assert not cache.store("k", {"bad": object()})
        assert cache.load("k") is None

    def test_corrupt_entry_is_a_miss_and_unlinked(self, cache):
        cache.store("k", {"x": 1})
        path = cache.path_for("k")
        path.write_text("{not json", "utf-8")
        assert cache.load("k") is None
        assert not path.exists()


class TestFigureKey:
    def test_key_depends_on_figure_and_cells(self):
        base = figure_key("fig5", ["a", "b"])
        assert figure_key("fig6", ["a", "b"]) != base
        assert figure_key("fig5", ["a", "c"]) != base

    def test_key_is_order_sensitive(self):
        """Row order is part of a table's identity."""
        assert figure_key("fig6", ["a", "b"]) != figure_key("fig6", ["b", "a"])


class TestCachedFigureTable:
    def test_second_call_served_from_cache(self, runner, cache):
        calls = []

        def build():
            calls.append(1)
            return {"gob": {8192: 1.0}}

        first = cached_figure_table("fig5", runner, ["cell"], build, cache)
        second = cached_figure_table("fig5", runner, ["cell"], build, cache)
        assert first == second
        assert len(calls) == 1
        assert cache.hits == 1 and cache.stores == 1

    def test_force_skips_load_and_refreshes(self, runner, cache):
        cached_figure_table("fig5", runner, ["cell"], lambda: {"v": 1}, cache)
        runner.force = True
        result = cached_figure_table(
            "fig5", runner, ["cell"], lambda: {"v": 2}, cache
        )
        assert result == {"v": 2}
        runner.force = False
        assert cached_figure_table(
            "fig5", runner, ["cell"], lambda: {"v": 3}, cache
        ) == {"v": 2}  # the forced rebuild refreshed the entry

    def test_changed_cell_keys_rebuild(self, runner, cache):
        cached_figure_table("fig5", runner, ["a"], lambda: {"v": 1}, cache)
        fresh = cached_figure_table("fig5", runner, ["b"], lambda: {"v": 2}, cache)
        assert fresh == {"v": 2}

    def test_disabled_cache_builds_directly(self, runner, monkeypatch):
        monkeypatch.setenv(FIGURE_CACHE_ENV, "off")
        assert Settings.from_env().figure_cache is None
        assert cached_figure_table(
            "fig5", runner, ["cell"], lambda: {"v": 9}
        ) == {"v": 9}


class TestFigureIntegration:
    def test_fig5_warm_run_skips_every_cell(self, runner, tmp_path, monkeypatch):
        """A warm fig5 rerun touches neither run_one nor the result cache."""
        from repro.eval import fig5

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.setattr(
            "repro.eval.fig5.SimulationRunner", lambda **kw: runner
        )
        cold = fig5.run(benchmarks=["gob"], capacities=(8192, 32768))

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("cell executed on a warm figure table")

        monkeypatch.setattr(runner, "run_one", boom)
        warm = fig5.run(benchmarks=["gob"], capacities=(8192, 32768))
        assert warm == cold
        assert all(isinstance(k, int) for k in warm["gob"])

    def test_fig6_force_refreshes(self, runner, tmp_path, monkeypatch):
        from repro.eval import fig6

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.setattr(
            "repro.eval.fig6.SimulationRunner", lambda **kw: runner
        )
        cold = fig6.run(benchmarks=["gob"], schemes=("PC_X32",))
        runner.force = True
        forced = fig6.run(benchmarks=["gob"], schemes=("PC_X32",))
        assert forced == cold  # deterministic rebuild, refreshed entry

    def test_fig7_warm_run_skips_every_cell(self, runner, tmp_path, monkeypatch):
        """The measured fig7 rates memoise; a warm rerun simulates nothing."""
        from repro.eval import fig7

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.setattr(
            "repro.eval.fig7.SimulationRunner", lambda **kw: runner
        )
        cold = fig7.run(benchmarks=["gob"])

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("cell executed on a warm figure table")

        monkeypatch.setattr(runner, "run_one", boom)
        warm = fig7.run(benchmarks=["gob"])
        assert warm == cold

    def test_fig8_warm_run_skips_cells_and_baselines(
        self, runner, tmp_path, monkeypatch
    ):
        from repro.eval import fig8

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.setattr("repro.eval.fig8._runner", lambda misses: runner)
        cold_table, cold_traffic = fig8.run(benchmarks=["gob"])

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("cell executed on a warm figure table")

        monkeypatch.setattr(runner, "run_one", boom)
        monkeypatch.setattr(runner, "baselines", boom)
        warm_table, warm_traffic = fig8.run(benchmarks=["gob"])
        assert warm_table == cold_table
        assert warm_traffic == cold_traffic

    def test_fig9_warm_run_skips_trace_and_cells(
        self, runner, tmp_path, monkeypatch
    ):
        from repro.eval import fig9

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.setattr(
            "repro.eval.fig9.SimulationRunner", lambda **kw: runner
        )
        cold = fig9.run(benchmarks=["gob"])

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("cell executed on a warm figure table")

        monkeypatch.setattr(runner, "run_one", boom)
        monkeypatch.setattr(runner, "trace", boom)
        warm = fig9.run(benchmarks=["gob"])
        assert warm == cold

    def test_table2_warm_run_skips_the_model(self, tmp_path, monkeypatch):
        """Analytic tables memoise with runner=None (force from the env)."""
        from repro.eval import table2

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.delenv("REPRO_FORCE", raising=False)
        cold = table2.run(channel_counts=(1, 2))

        def boom(*a, **kw):  # pragma: no cover - must not run
            raise AssertionError("model evaluated on a warm figure table")

        monkeypatch.setattr("repro.eval.table2.DramModel", boom)
        warm = table2.run(channel_counts=(1, 2))
        assert warm == cold
        assert all(isinstance(ch, int) for ch in warm)

    def test_table2_env_force_rebuilds(self, tmp_path, monkeypatch):
        from repro.eval import table2

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        cold = table2.run(channel_counts=(1,))
        monkeypatch.setenv("REPRO_FORCE", "1")

        def boom(*a, **kw):  # pragma: no cover - must run instead of cache
            raise RuntimeError("rebuilt")

        monkeypatch.setattr("repro.eval.table2.DramModel", boom)
        with pytest.raises(RuntimeError, match="rebuilt"):
            table2.run(channel_counts=(1,))
        assert cold  # the unforced run produced a table

    def test_table3_breakdowns_round_trip_the_cache(self, tmp_path, monkeypatch):
        """AreaBreakdowns flatten to fields on store and rebuild on load."""
        from repro.area.model import AreaBreakdown
        from repro.eval import table3

        monkeypatch.setenv(FIGURE_CACHE_ENV, str(tmp_path / "figures"))
        monkeypatch.delenv("REPRO_FORCE", raising=False)
        cold = table3.run(channel_counts=(1, 2))

        class Boom:  # pragma: no cover - must not run
            def __init__(self, *a, **kw):
                raise AssertionError("model built on a warm figure table")

        monkeypatch.setattr("repro.eval.table3.AreaModel", Boom)
        warm = table3.run(channel_counts=(1, 2))
        assert warm == cold
        assert all(isinstance(b, AreaBreakdown) for b in warm.values())
        assert all(isinstance(ch, int) for ch in warm)
