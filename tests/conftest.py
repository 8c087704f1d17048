"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.config import OramConfig
from repro.crypto.suite import CryptoSuite
from repro.utils.rng import DeterministicRng

CACHE_ENV = "REPRO_TRACE_CACHE"
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"


@pytest.fixture(autouse=True, scope="session")
def _hermetic_caches(tmp_path_factory):
    """Point the on-disk trace/result caches at per-session temp dirs.

    Keeps tests from reading (or polluting) the developer's user-level
    caches while still exercising the disk-cache code paths. Mirrored in
    benchmarks/conftest.py, which is a separate conftest scope.
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


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Guarantee no test leaves a process-wide fault plan installed."""
    from repro.faults import clear

    yield
    clear()


@pytest.fixture(autouse=True)
def _no_leaked_threads():
    """Guarantee no test leaves a thread running behind it.

    A leftover (a worker thread still stalled in an injected fault, say)
    gets 5 s to finish; after that the test fails and names it, instead
    of running beside — and forking under — the tests that follow.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leftover = [t for t in threading.enumerate() if t not in before]
        if not leftover:
            return
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)
    pytest.fail(f"test left threads running: {sorted(t.name for t in leftover)}")


@pytest.fixture(params=["native"])
def fast_tier(request) -> str:
    """The fast tier as a user gets it: the native kernels.

    A preset-built frontend and a ``mode=None`` replay resolve to it
    when the extension is built and ``REPRO_NATIVE`` allows it; the test
    skips otherwise (the reference lane, a toolchain-less install).
    """
    from repro.sim.native import load_native_core, unavailable_reason

    if load_native_core() is None:
        pytest.skip(unavailable_reason())
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
