"""ResultCache behaviour and incremental ``execute`` of scheme and baseline cells."""

import dataclasses
import json

import pytest

import repro.sim.runner as runner_mod
from repro.errors import CacheCorruptionWarning
from repro.sim.metrics import SimResult
from repro.sim.store import (
    RESULT_SCHEMA_VERSION,
    ResultCache,
    result_key,
)
from repro.sim.runner import SimulationRunner

BENCHES = ["gob", "hmmer"]
MISSES = 150


def _result(**kw) -> SimResult:
    base = dict(
        benchmark="gob",
        scheme="PC_X32",
        cycles=123456.75,
        instructions=1000,
        llc_misses=50,
        oram_accesses=60,
        tree_accesses=120,
        data_bytes=4096,
        posmap_bytes=512,
        plb_hit_rate=0.5,
        mpki=3.25,
    )
    base.update(kw)
    return SimResult(**base)


def _runner(tmp_path, **kw) -> SimulationRunner:
    return SimulationRunner(
        misses_per_benchmark=MISSES,
        cache_dir=tmp_path / "traces",
        result_cache_dir=tmp_path / "results",
        **kw,
    )


class TestResultCacheStore:
    def test_round_trip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        assert cache.store("k1", result)
        loaded = cache.load("k1")
        assert loaded == result  # dataclass equality: float-bit exact
        assert cache.hits == 1 and cache.stores == 1

    def test_miss_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("absent") is None
        assert cache.misses == 1

    def test_corrupt_entry_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k1", _result())
        cache.path_for("k1").write_text("not json{{{", "utf-8")
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert cache.load("k1") is None
        assert not cache.path_for("k1").exists()

    def test_stale_schema_version_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k1", _result())
        payload = json.loads(cache.path_for("k1").read_text("utf-8"))
        payload["schema"] = RESULT_SCHEMA_VERSION - 1
        cache.path_for("k1").write_text(json.dumps(payload), "utf-8")
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert cache.load("k1") is None
        assert not cache.path_for("k1").exists()

    def test_unknown_field_evicted(self, tmp_path):
        """A payload written by a future SimResult shape is a miss."""
        cache = ResultCache(tmp_path)
        cache.store("k1", _result())
        payload = json.loads(cache.path_for("k1").read_text("utf-8"))
        payload["result"]["frobnication_index"] = 7
        cache.path_for("k1").write_text(json.dumps(payload), "utf-8")
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert cache.load("k1") is None

    def test_unwritable_dir_disables_store(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cache = ResultCache(blocker / "sub")
        assert cache.store("k1", _result()) is False


class TestResultKey:
    def test_key_varies_with_overrides(self, tmp_path):
        runner = _runner(tmp_path)
        base = runner.result_key("PC_X32", "gob")
        assert base != runner.result_key("PC_X32", "gob", plb_capacity_bytes=8192)
        assert base != runner.result_key("PI_X8", "gob")
        assert base != runner.result_key("PC_X32", "hmmer")

    def test_key_varies_with_code_version(self, monkeypatch, tmp_path):
        runner = _runner(tmp_path)
        before = runner.result_key("PC_X32", "gob")
        import repro

        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        assert runner.result_key("PC_X32", "gob") != before

    def test_key_varies_with_seed_and_budget(self, tmp_path):
        a = _runner(tmp_path)
        b = SimulationRunner(
            misses_per_benchmark=MISSES,
            seed=1,
            cache_dir=tmp_path / "traces",
            result_cache_dir=tmp_path / "results",
        )
        c = SimulationRunner(
            misses_per_benchmark=MISSES + 1,
            cache_dir=tmp_path / "traces",
            result_cache_dir=tmp_path / "results",
        )
        keys = {
            r.result_key("PC_X32", "gob") for r in (a, b, c)
        }
        assert len(keys) == 3


class TestIncrementalSuite:
    def test_second_invocation_replays_nothing(self, tmp_path, monkeypatch):
        runner = _runner(tmp_path)
        first = runner.execute(runner.cells(["PC_X32", "R_X8"], BENCHES))

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("replay_trace called on a warm cache")

        monkeypatch.setattr(runner_mod, "replay_trace", boom)
        fresh = _runner(tmp_path)  # new runner, same config, same disk cache
        second = fresh.execute(fresh.cells(["PC_X32", "R_X8"], BENCHES))
        assert second == first

    def test_overrides_change_is_cold(self, tmp_path, monkeypatch):
        runner = _runner(tmp_path)
        runner.execute(runner.cells(["PC_X32"], ["gob"]))
        calls = []
        real = runner_mod.replay_trace

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "replay_trace", counting)
        fresh = _runner(tmp_path)
        fresh.execute(fresh.cells(["PC_X32"], ["gob"], plb_capacity_bytes=8 * 1024))
        assert calls  # different overrides digest -> actually replayed

    def test_progress_streams_every_cell(self, tmp_path):
        runner = _runner(tmp_path)
        seen = []
        runner.execute(
            runner.cells(["PC_X32"], BENCHES), workers=1,
            progress=lambda s, b, r, cached: seen.append((s, b, cached)),
        )
        assert seen == [("PC_X32", b, False) for b in BENCHES]
        warm = []
        warm_runner = _runner(tmp_path)
        warm_runner.execute(
            warm_runner.cells(["PC_X32"], BENCHES), workers=1,
            progress=lambda s, b, r, cached: warm.append((s, b, cached)),
        )
        assert warm == [("PC_X32", b, True) for b in BENCHES]

    def test_progress_streams_parallel_cells(self, tmp_path):
        seen = []
        runner = _runner(tmp_path)
        runner.execute(
            runner.cells(["PC_X32"], BENCHES), workers=2,
            progress=lambda s, b, r, cached: seen.append((s, b, cached)),
        )
        assert sorted(seen) == sorted(("PC_X32", b, False) for b in BENCHES)

    def test_cached_results_bitwise_match_parallel(self, tmp_path):
        cells = _runner(tmp_path).cells(["PC_X32"], BENCHES)
        cold = _runner(tmp_path).execute(cells, workers=2)
        warm = _runner(tmp_path).execute(cells, workers=2)
        assert warm == cold

    def test_run_one_uses_cache(self, tmp_path, monkeypatch):
        runner = _runner(tmp_path)
        first = runner.run_one("PC_X32", "gob")
        monkeypatch.setattr(
            runner_mod, "replay_trace",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("replayed")),
        )
        assert _runner(tmp_path).run_one("PC_X32", "gob") == first


class TestForce:
    """``force=True`` bypasses cache *loads* without disabling the caches."""

    def test_force_recomputes_on_warm_cache(self, tmp_path, monkeypatch):
        runner = _runner(tmp_path)
        first = runner.run_one("PC_X32", "gob")
        calls = []
        real = runner_mod.replay_trace

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "replay_trace", counting)
        forced = _runner(tmp_path, force=True).run_one("PC_X32", "gob")
        assert calls  # warm cache, yet replayed
        assert forced == first  # recomputation is bit-identical

    def test_force_still_refreshes_cache_entries(self, tmp_path):
        runner = _runner(tmp_path)
        runner.run_one("PC_X32", "gob")
        forced = _runner(tmp_path, force=True)
        forced.run_one("PC_X32", "gob")
        assert forced.result_cache.stores == 1  # refreshed, not disabled
        assert forced.result_cache.hits == 0  # never loaded

    def test_force_regenerates_trace(self, tmp_path):
        runner = _runner(tmp_path)
        runner.trace("gob")
        forced = _runner(tmp_path, force=True)
        forced.trace("gob")
        assert forced.trace_cache.hits == 0
        assert forced.trace_cache.stores == 1

    def test_force_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FORCE", "1")
        assert _runner(tmp_path).force is True
        monkeypatch.setenv("REPRO_FORCE", "0")
        assert _runner(tmp_path).force is False
        monkeypatch.delenv("REPRO_FORCE")
        assert _runner(tmp_path).force is False
        assert _runner(tmp_path, force=True).force is True

    def test_forced_suite_matches_cached_suite(self, tmp_path):
        cells = _runner(tmp_path).cells(["PC_X32"], BENCHES)
        cold = _runner(tmp_path).execute(cells)
        forced = _runner(tmp_path, force=True).execute(cells)
        assert forced == cold

    def test_forced_parallel_suite_matches_serial(self, tmp_path):
        cells = _runner(tmp_path / "a").cells(["PC_X32"], BENCHES)
        serial = _runner(tmp_path / "a", force=True).execute(cells)
        parallel = _runner(tmp_path / "b", force=True).execute(cells, workers=2)
        assert parallel == serial


class TestBaselines:
    def test_baselines_cached(self, tmp_path, monkeypatch):
        cells = _runner(tmp_path).baseline_cells(BENCHES)
        first = _runner(tmp_path).execute(cells)
        assert [result.benchmark for result in first.values()] == BENCHES

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("insecure_cycles called on a warm cache")

        monkeypatch.setattr(runner_mod, "insecure_cycles", boom)
        second = _runner(tmp_path).execute(cells)
        assert second == first

    def test_baselines_parallel_trace_generation(self, tmp_path):
        cells = _runner(tmp_path / "a").baseline_cells(BENCHES)
        serial = _runner(tmp_path / "a").execute(cells)
        parallel = _runner(tmp_path / "b").execute(cells, workers=2)
        assert parallel == serial

    def test_baselines_progress_flags(self, tmp_path):
        flags = []
        runner = _runner(tmp_path)
        runner.execute(
            runner.baseline_cells(BENCHES),
            progress=lambda s, b, r, cached: flags.append(cached),
        )
        assert flags == [False, False]
