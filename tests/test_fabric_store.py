"""Content-addressed key properties backing the fabric.

The fabric's correctness leans on two storage facts: canonical cell keys
are injective over distinct cell identities (so content-addressing never
aliases two different cells), and concurrent same-key writers — two
workers racing one stolen cell — leave exactly one valid, readable entry
behind. Both are proven here.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.metrics import SimResult
from repro.sim.runner import SimulationRunner
from repro.sim.store import ResultCache, TraceCache


def _runner(**kw) -> SimulationRunner:
    kw.setdefault("misses_per_benchmark", 100)
    kw.setdefault("cache_dir", None)
    kw.setdefault("result_cache_dir", None)
    return SimulationRunner(**kw)


# One runner per distinct (seed, misses) pair; construction is cheap but
# hypothesis calls this thousands of times.
_RUNNERS = {}


def _runner_for(seed: int, misses: int) -> SimulationRunner:
    key = (seed, misses)
    if key not in _RUNNERS:
        _RUNNERS[key] = _runner(seed=seed, misses_per_benchmark=misses)
    return _RUNNERS[key]


class TestKeyInjectivity:
    """Distinct canonical cell identities always get distinct keys."""

    @settings(max_examples=200, deadline=None)
    @given(
        scheme=st.sampled_from(["P_X16", "PC_X32", "R_X8"]),
        bench=st.sampled_from(["gob", "mcf", "hmmer"]),
        plb=st.sampled_from([4096, 8192, 16384, 65536]),
        seed=st.sampled_from([1, 2]),
        misses=st.sampled_from([100, 200]),
    )
    def test_result_keys_injective_over_cell_identity(
        self, scheme, bench, plb, seed, misses
    ):
        runner = _runner_for(seed, misses)
        spec, label = runner.sized_spec(scheme, bench, plb_capacity_bytes=plb)
        identity = (spec.canonical(), label, bench, seed, misses)
        key = runner.result_key(scheme, bench, plb_capacity_bytes=plb)
        seen = getattr(type(self), "_seen", None)
        if seen is None:
            seen = type(self)._seen = {}
        if key in seen:
            assert seen[key] == identity, (
                f"key collision: {identity} and {seen[key]} share {key}"
            )
        else:
            assert identity not in seen.values()
            seen[key] = identity

    def test_insecure_keys_distinct_from_cells(self):
        runner = _runner()
        assert runner.result_key("insecure", "gob") != runner.result_key(
            "P_X16", "gob"
        )
        assert runner.result_key("insecure", "gob") != runner.result_key(
            "insecure", "mcf"
        )

    def test_label_is_part_of_the_identity(self):
        """Two spellings of one config occupy distinct entries."""
        runner = _runner()
        assert runner.result_key(
            "PC_X32", "gob", plb_capacity_bytes=8192
        ) != runner.result_key("PC_X32:plb=8KiB", "gob")


def _result() -> SimResult:
    return SimResult(
        benchmark="gob",
        scheme="PC_X32",
        cycles=123.5,
        instructions=1000,
        llc_misses=100,
        oram_accesses=100,
        tree_accesses=150,
    )


def _trace() -> MissTrace:
    trace = MissTrace(name="gob", instructions=1000, mem_refs=100, l1_hits=50)
    trace.events = [MissEvent(i * 13 % 512, i % 3 == 0) for i in range(40)]
    return trace


class TestConcurrentWriters:
    @pytest.mark.parametrize(
        "factory, value",
        [
            pytest.param(TraceCache, _trace(), id="trace"),
            pytest.param(ResultCache, _result(), id="result"),
        ],
    )
    def test_same_key_racers_leave_one_valid_entry(self, tmp_path, factory, value):
        """N threads storing one key concurrently: one readable entry, no tmp."""
        cache = factory(tmp_path / "entries")
        barrier = threading.Barrier(8)
        errors = []

        def write():
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    assert cache.store("samekey", value)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert cache.keys() == ["samekey"]
        assert cache.load("samekey") == value
        leftovers = [
            p for p in (tmp_path / "entries").iterdir() if ".tmp." in p.name
        ]
        assert leftovers == []

