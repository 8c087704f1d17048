"""MissTrace serialization and the on-disk trace cache."""

import pytest

from repro.config import ProcessorConfig
from repro.errors import CacheCorruptionWarning
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.runner import SimulationRunner
from repro.sim.store import TraceCache, trace_key


def sample_trace(name: str = "bench", n: int = 500) -> MissTrace:
    trace = MissTrace(
        name=name, instructions=12345, mem_refs=678, l1_hits=600, l2_hits=50
    )
    trace.events = [MissEvent((i * 37) % 4096, i % 5 == 0) for i in range(n)]
    return trace


class TestMissTraceSerialization:
    def test_roundtrip(self):
        trace = sample_trace()
        assert MissTrace.from_bytes(trace.to_bytes()) == trace

    def test_roundtrip_uncompressed(self):
        trace = sample_trace()
        assert MissTrace.from_bytes(trace.to_bytes(compress=False)) == trace

    def test_roundtrip_empty_events(self):
        trace = MissTrace(name="empty", instructions=7)
        assert MissTrace.from_bytes(trace.to_bytes()) == trace

    def test_event_fields_survive(self):
        trace = MissTrace(name="x")
        trace.events = [MissEvent(0xDEADBEEF, True), MissEvent(1, False)]
        back = MissTrace.from_bytes(trace.to_bytes())
        assert back.events[0] == MissEvent(0xDEADBEEF, True)
        assert back.events[1] == MissEvent(1, False)

    def test_truncated_header_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            MissTrace.from_bytes(sample_trace().to_bytes()[:10])

    def test_bad_magic_raises(self):
        data = bytearray(sample_trace().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            MissTrace.from_bytes(bytes(data))

    def test_version_skew_raises(self):
        data = bytearray(sample_trace().to_bytes())
        data[4] ^= 0xFF  # version field (little-endian u16 at offset 4)
        with pytest.raises(ValueError, match="version"):
            MissTrace.from_bytes(bytes(data))

    def test_corrupted_payload_raises(self):
        data = bytearray(sample_trace().to_bytes())
        data[-1] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            MissTrace.from_bytes(bytes(data))

    def test_truncated_payload_raises(self):
        data = sample_trace().to_bytes()
        with pytest.raises(ValueError):
            MissTrace.from_bytes(data[:-20])


class TestTraceKey:
    def test_stable_across_calls(self):
        proc = ProcessorConfig()
        assert trace_key("gob", 1, proc, 100, 50) == trace_key("gob", 1, proc, 100, 50)

    def test_sensitive_to_every_input(self):
        proc = ProcessorConfig()
        base = trace_key("gob", 1, proc, 100, 50)
        assert trace_key("mcf", 1, proc, 100, 50) != base
        assert trace_key("gob", 2, proc, 100, 50) != base
        assert trace_key("gob", 1, proc, 200, 50) != base
        assert trace_key("gob", 1, proc, 100, 51) != base
        other = ProcessorConfig(l2_bytes=512 * 1024)
        assert trace_key("gob", 1, other, 100, 50) != base


class TestTraceCache:
    def test_store_then_load(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = sample_trace()
        assert cache.store("k1", trace)
        assert cache.load("k1") == trace
        assert cache.hits == 1 and cache.stores == 1

    def test_load_missing_is_none(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.load("absent") is None
        assert cache.misses == 1

    def test_corrupted_entry_falls_back_and_unlinks(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.store("k1", sample_trace())
        cache.path_for("k1").write_bytes(b"garbage" * 10)
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert cache.load("k1") is None
        assert not cache.path_for("k1").exists()

    def test_truncated_entry_falls_back(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = sample_trace()
        cache.store("k1", trace)
        data = cache.path_for("k1").read_bytes()
        cache.path_for("k1").write_bytes(data[: len(data) // 2])
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert cache.load("k1") is None

    def test_unwritable_root_reports_failure(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should go")
        cache = TraceCache(target / "sub")
        assert cache.store("k1", sample_trace()) is False


class TestRunnerDiskCache:
    def test_second_runner_skips_simulation(self, tmp_path, monkeypatch):
        first = SimulationRunner(misses_per_benchmark=150, cache_dir=tmp_path)
        trace = first.trace("gob")
        assert first.trace_cache.stores == 1

        # A fresh runner (fresh memory cache) must load from disk: poison
        # the simulator so any recompute attempt fails loudly.
        def boom(*args, **kwargs):
            raise AssertionError("trace was re-simulated despite disk cache")

        monkeypatch.setattr("repro.sim.runner.synthesize_trace", boom)
        second = SimulationRunner(misses_per_benchmark=150, cache_dir=tmp_path)
        reloaded = second.trace("gob")
        assert reloaded == trace
        assert second.trace_cache.hits == 1

    def test_corrupt_disk_entry_recomputes(self, tmp_path):
        first = SimulationRunner(misses_per_benchmark=150, cache_dir=tmp_path)
        trace = first.trace("gob")
        key = first.trace_cache_key("gob")
        first.trace_cache.path_for(key).write_bytes(b"\x00" * 64)
        second = SimulationRunner(misses_per_benchmark=150, cache_dir=tmp_path)
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert second.trace("gob") == trace  # recomputed, not crashed

    def test_budget_change_misses_cache(self, tmp_path):
        a = SimulationRunner(misses_per_benchmark=150, cache_dir=tmp_path)
        a.trace("gob")
        b = SimulationRunner(misses_per_benchmark=151, cache_dir=tmp_path)
        b.trace("gob")
        assert b.trace_cache.hits == 0 and b.trace_cache.stores == 1

    def test_cache_disabled(self, tmp_path):
        runner = SimulationRunner(misses_per_benchmark=150, cache_dir=None)
        runner.trace("gob")
        assert runner.trace_cache is None
        assert list(tmp_path.iterdir()) == []
