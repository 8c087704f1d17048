"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper. Default
parameters are scaled for quick runs; set ``REPRO_FULL=1`` to use the
full SPEC stand-in suite and larger miss budgets (minutes instead of
seconds). Every bench prints the rows/series the paper reports beside
the paper's values, and asserts the headline shape.
"""

from __future__ import annotations

import os

import pytest

from repro.settings import Settings

CACHE_ENV = "REPRO_TRACE_CACHE"
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"


@pytest.fixture(autouse=True, scope="session")
def _hermetic_caches(tmp_path_factory):
    """Keep benchmark runs off the developer's user-level caches.

    Mirrors the fixture in tests/conftest.py (separate conftest scope).
    Benchmarks measure real replay work, so the result cache in
    particular must never serve a cell from a previous run.
    """
    previous = {
        env: os.environ.get(env)
        for env in (CACHE_ENV, RESULT_CACHE_ENV)
    }
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("trace-cache"))
    os.environ[RESULT_CACHE_ENV] = str(tmp_path_factory.mktemp("result-cache"))
    yield
    for env, value in previous.items():
        if value is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = value


def full_run() -> bool:
    """True when REPRO_FULL=1 requests paper-scale runs."""
    return Settings.from_env().full


@pytest.fixture
def bench_benchmarks():
    """Benchmark subset: 3 representative locality classes, or all 11."""
    if full_run():
        from repro.workloads.spec import benchmark_names

        return benchmark_names()
    return ["hmmer", "libq", "mcf"]


@pytest.fixture
def bench_misses():
    """LLC miss budget per benchmark point."""
    return 20_000 if full_run() else 1_500


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
