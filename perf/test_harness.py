"""Smoke test of the benchmark harness, at ``--quick`` sizes.

Tier-1 collects this file (pytest's ``test_*.py`` pattern from the repo
root). Each run is the driver's own command line in a child process, so
the pinned environment and the extension build are exercised too; the
tests skip when the C core cannot be built, because the benchmark pins
``REPRO_NATIVE=require``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf.workloads import BY_NAME

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: The cheapest workload whose traced run installs every replay shim.
WORKLOAD = "replay_backend_bound"
SEED, OTHER_SEED = 11, 12


def run(trace: int, seed: int = SEED) -> dict:
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOAD,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if "could not build the C replay core" in done.stderr:
        pytest.skip("no C toolchain: the benchmark needs the compiled core")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced() -> dict:
    """One traced run, with the spans and the list of exact metrics it left."""
    result = run(trace=1)
    with open(OUT / f"trace_{WORKLOAD}.jsonl", encoding="utf-8") as fh:
        result["spans"] = [json.loads(line) for line in fh]
    detail = json.loads((OUT / f"detail_{WORKLOAD}_1.json").read_text())
    result["exact"] = detail["exact"]
    return result


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        names.append(metric["name"])
        assert unit.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_workloads_match_benchmark_json():
    assert list(BY_NAME) == [w["name"] for w in BENCHMARK["workloads"]]


def test_end_to_end_output_names_every_metric_and_no_other():
    metrics = run(trace=0)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_per_layer_output_names_every_metric_and_no_other(traced):
    metrics = traced["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == declared("per_layer")
    assert set(traced["exact"]) <= set(metrics)


def test_span_tree_is_well_formed(traced):
    spans = traced["spans"]
    assert spans
    self_s = [span["end"] - span["start"] for span in spans]
    for index, span in enumerate(spans):
        assert span["end"] >= span["start"]
        parent = span["parent"]
        if parent >= 0:
            assert parent < index, "a span starts after the span that caused it"
            outer = spans[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
            self_s[parent] -= span["end"] - span["start"]
    assert min(self_s) >= -1e-9, "children cover more than their parent"
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    assert sum(self_s) == pytest.approx(roots, rel=1e-6)
    # The reported shares are the layers'; the root span's own is the rest.
    root_self = sum(t for t, s in zip(self_s, spans) if s["parent"] < 0)
    shares = sum(
        m["value"] for n, m in traced["metrics"].items() if n.endswith(".share")
    )
    assert shares + root_self / roots == pytest.approx(1.0, abs=0.01)


def test_a_seed_fixes_the_inputs_and_the_counts(traced):
    exact = traced["exact"]
    again = run(trace=1)["metrics"]
    other = run(trace=1, seed=OTHER_SEED)["metrics"]
    first = traced["metrics"]
    assert [again[n] for n in exact] == [first[n] for n in exact]
    assert [other[n] for n in exact] != [first[n] for n in exact]
