"""Smoke test of the benchmark's two serve workloads, traced, at ``--quick`` size.

``perf/test_harness.py`` runs only a replay workload. These run the
harness's own command line for ``serve_mixed_tenants`` and its async twin
in a child process (about a second each) and check that the traced run
is correct and failed nothing. Like the replay smoke, they skip when the
C core cannot be built, because the benchmark pins ``REPRO_NATIVE=require``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMAND = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]


@pytest.mark.parametrize("workload", ["serve_mixed_tenants", "serve_mixed_tenants_async"])
def test_traced_serve_workload_is_correct(workload):
    done = subprocess.run(
        [sys.executable, *COMMAND[1:], "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", "1", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if "could not build the C replay core" in done.stderr:
        pytest.skip("no C toolchain: the benchmark needs the compiled core")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
