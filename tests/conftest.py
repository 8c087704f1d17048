"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.config import OramConfig
from repro.crypto.suite import CryptoSuite
from repro.utils.rng import DeterministicRng

CACHE_ENV = "REPRO_TRACE_CACHE"
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"
FIGURE_CACHE_ENV = "REPRO_FIGURE_CACHE"


@pytest.fixture(autouse=True, scope="session")
def _hermetic_caches(tmp_path_factory):
    """Point the on-disk trace/result/figure caches at per-session temp dirs.

    Keeps tests from reading (or polluting) the developer's user-level
    caches while still exercising the disk-cache code paths. Mirrored in
    benchmarks/conftest.py, which is a separate conftest scope.
    """
    previous = {
        env: os.environ.get(env)
        for env in (CACHE_ENV, RESULT_CACHE_ENV, FIGURE_CACHE_ENV)
    }
    os.environ[CACHE_ENV] = str(tmp_path_factory.mktemp("trace-cache"))
    os.environ[RESULT_CACHE_ENV] = str(tmp_path_factory.mktemp("result-cache"))
    os.environ[FIGURE_CACHE_ENV] = str(tmp_path_factory.mktemp("figure-cache"))
    yield
    for env, value in previous.items():
        if value is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = value


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Guarantee no test leaves a process-wide fault plan installed."""
    from repro.faults import clear

    yield
    clear()


@pytest.fixture(params=["native", "interpreted"])
def fast_tier(request, monkeypatch) -> str:
    """The fast tier as a user gets it, once per way it can run.

    ``REPRO_REPLAY`` / ``REPRO_STORAGE`` are scrubbed, so a preset-built
    frontend and a ``mode=None`` replay resolve to the fast tier; the
    ``native`` case needs the extension built and the ``interpreted``
    case switches it off (the supported toolchain-less platform path).
    """
    from repro.sim.native import load_native_core

    monkeypatch.delenv("REPRO_REPLAY", raising=False)
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    if request.param == "interpreted":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    elif load_native_core() is None:
        pytest.skip("compiled core not built or switched off")
    return request.param


@pytest.fixture
def rng() -> DeterministicRng:
    """Deterministic RNG; tests that need different streams fork it."""
    return DeterministicRng(0xC0FFEE)


@pytest.fixture
def small_config() -> OramConfig:
    """Small tree for fast functional tests (256 blocks, 64 B)."""
    return OramConfig(num_blocks=256, block_bytes=64)


@pytest.fixture
def tiny_config() -> OramConfig:
    """Minimal tree (16 blocks) for exhaustive checks."""
    return OramConfig(num_blocks=16, block_bytes=32)


@pytest.fixture
def crypto() -> CryptoSuite:
    """Fast crypto suite with a fixed session key."""
    return CryptoSuite.fast(b"test-session-key")
