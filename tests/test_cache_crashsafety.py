"""Crash-safety of every on-disk cache: old value or new value, never torn.

Kill-points are injected at each step of the atomic write protocol
(``begin`` — before anything touches disk; ``tmp`` — sidecar written,
rename pending; ``replace`` — rename done) and the cache is reopened
cold each time. The invariant: a reader after the crash sees either the
previous committed value or the new one, and a deterministic byte of
damage to any entry is a counted, warned eviction — never an unhandled
exception.
"""

import warnings

import pytest

from repro.errors import CacheCorruptionWarning, FaultKillPoint
from repro.faults import injected
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.metrics import SimResult
from repro.sim.store import FigureTableCache, ResultCache, TraceCache


def _trace(tag: int) -> MissTrace:
    trace = MissTrace(
        name="bench", instructions=1000 + tag, mem_refs=100, l1_hits=50
    )
    trace.events = [MissEvent((i * 13 + tag) % 512, i % 3 == 0) for i in range(40)]
    return trace


def _result(tag: int) -> SimResult:
    return SimResult(
        benchmark="gob",
        scheme="PC_X32",
        cycles=1000.5 + tag,
        instructions=10 + tag,
        llc_misses=5,
        oram_accesses=6,
        tree_accesses=12,
    )


def _table(tag: int):
    return {"gob": {8192: 1.0 + tag}, "n": tag}


#: (cache factory, old/new payload factory, kind prefix, load-equality fn)
CACHES = [
    pytest.param(TraceCache, _trace, "trace", id="trace"),
    pytest.param(ResultCache, _result, "result", id="result"),
    pytest.param(FigureTableCache, _table, "figure", id="figure"),
]

#: Entry bodies that parse as JSON but are no entry of the kind: damage
#: the per-exception-type handlers used to let through as AttributeError
#: (``payload.get`` on a list) or TypeError (an unhashable table key).
#: A bare list or scalar *is* a table the figure codec carries, so the
#: figure kind takes only the two malformed ``__kv__`` bodies.
WRONG_SHAPES = [
    pytest.param(*cache.values, body, id=f"{cache.id}-{body.decode()}")
    for cache in CACHES
    for body in (
        b"[]",
        b"null",
        b"3",
        b'{"__kv__": 3}',
        b'{"__kv__": [[["a"], 1]]}',
    )[3 if cache.id == "figure" else 0:]
]

#: Kill-point -> which committed value must survive the crash.
KILL_STEPS = [
    ("begin", "old"),    # nothing touched disk yet
    ("tmp", "old"),      # sidecar written, rename never happened
    ("replace", "new"),  # rename done; only post-publish work was lost
]


class TestKillPointMatrix:
    @pytest.mark.parametrize("factory, payload, kind", CACHES)
    @pytest.mark.parametrize("step, survivor", KILL_STEPS)
    def test_crash_mid_store_leaves_old_or_new_never_torn(
        self, tmp_path, factory, payload, kind, step, survivor
    ):
        cache = factory(tmp_path / kind)
        old, new = payload(1), payload(2)
        assert cache.store("k", old)
        with injected(f"cache.write.kill@{kind}/{step}"):
            with pytest.raises(FaultKillPoint):
                cache.store("k", new)
        # Reopen cold, as a process restarted after the crash would.
        reopened = factory(tmp_path / kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any corruption warning fails
            loaded = reopened.load("k")
        assert loaded == (old if survivor == "old" else new)
        assert reopened.corrupt_evictions == 0

    @pytest.mark.parametrize("factory, payload, kind", CACHES)
    def test_crash_on_first_store_leaves_a_clean_miss(
        self, tmp_path, factory, payload, kind
    ):
        cache = factory(tmp_path / kind)
        with injected(f"cache.write.kill@{kind}/tmp"):
            with pytest.raises(FaultKillPoint):
                cache.store("k", payload(1))
        reopened = factory(tmp_path / kind)
        assert reopened.load("k") is None
        assert reopened.corrupt_evictions == 0


class TestCorruptEntryFallback:
    @pytest.mark.parametrize("factory, payload, kind", CACHES)
    @pytest.mark.parametrize("damage", ["corrupt", "truncate"])
    def test_damaged_entry_is_counted_warned_eviction(
        self, tmp_path, factory, payload, kind, damage
    ):
        cache = factory(tmp_path / kind)
        assert cache.store("k", payload(1))
        # Damage the entry on the next read, deterministically.
        with injected(f"cache.entry.{damage}@{kind}/*"):
            with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
                assert cache.load("k") is None
        assert cache.corrupt_evictions == 1
        assert not cache.path_for("k").exists()  # evicted, not left rotting
        # The slot is reusable immediately.
        assert cache.store("k", payload(2))
        assert cache.load("k") == payload(2)

    @pytest.mark.parametrize("factory, payload, kind, body", WRONG_SHAPES)
    def test_wrong_shape_entry_is_counted_warned_eviction(
        self, tmp_path, factory, payload, kind, body
    ):
        cache = factory(tmp_path / kind)
        assert cache.store("k", payload(1))
        cache.path_for("k").write_bytes(body)
        with pytest.warns(CacheCorruptionWarning, match="evicted corrupt"):
            assert cache.load("k") is None
        assert (cache.corrupt_evictions, cache.misses, cache.hits) == (1, 1, 0)
        assert not cache.path_for("k").exists()
        assert cache.store("k", payload(2))
        assert cache.load("k") == payload(2)

    @pytest.mark.parametrize("factory, payload, kind", CACHES)
    def test_torn_publish_then_crash_heals_on_reopen(
        self, tmp_path, factory, payload, kind
    ):
        """Compound plan: publish torn bytes, then die at the kill-point.

        The sidecar is damaged after it is written, the rename publishes
        the torn entry, and the process dies right after — the worst
        realistic crash. The reopened cache must treat the torn entry as
        a counted eviction and serve a miss; the recompute path heals it.
        """
        cache = factory(tmp_path / kind)
        assert cache.store("k", payload(1))
        plan = (
            f"cache.write.truncate@{kind}/tmp#1;"
            f"cache.write.kill@{kind}/replace#1"
        )
        with injected(plan):
            with pytest.raises(FaultKillPoint):
                cache.store("k", payload(2))
        reopened = factory(tmp_path / kind)
        with pytest.warns(CacheCorruptionWarning):
            assert reopened.load("k") is None
        assert reopened.corrupt_evictions == 1
        assert reopened.store("k", payload(3))
        assert reopened.load("k") == payload(3)
