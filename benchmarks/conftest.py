"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and hands its
module's ``headline()`` to ``check``: the rows of
:mod:`repro.eval.paper_values`, where every paper value is written. A
closed-form experiment's rows are checked on every run; a simulated
figure's only under ``REPRO_FULL=1``, where its ``run()`` gets no
arguments (the rows ``REPRO_FULL=1 python -m repro all`` prints). Without
it a figure runs 1 500 misses on three locality classes, shapes only.
At the paper's budget every row must also equal its value in the
committed ``src/repro/eval/scorecard.json`` to the printed precision.
"""

from __future__ import annotations

import os

import pytest

from repro.eval import scorecard
from repro.eval.paper_values import report
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


@pytest.fixture
def figure_args():
    """A simulated figure's ``run()`` arguments: none at the paper's budget."""
    if Settings.from_env().full:
        return {}
    return {"benchmarks": ["hmmer", "libq", "mcf"], "misses": 1_500}


@pytest.fixture
def check(figure_args):
    """``check(experiment, ours)``: print the rows, fail on a failing one
    and, at the paper's budget, on one that moved off the scorecard."""
    def check(experiment, ours):
        failed = report(experiment, ours, figure_args.get("misses"))
        assert not failed, f"{experiment} rows off the paper: {failed}"
        if Settings.from_env().full:
            moved = scorecard.moved(experiment, ours)
            assert not moved, (
                f"{experiment} rows differ from scorecard.json: {moved}; "
                "regenerate it with python -m repro.eval.scorecard"
            )
    return check


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
