"""Parallel ``execute`` equivalence and cross-process determinism.

The paper's methodology requires every scheme to replay byte-identical
miss streams; these tests pin down the two properties that guarantee it
at scale: trace seeding independent of ``PYTHONHASHSEED`` (subprocess
based), and fan-out over forked fabric workers that is bitwise identical
to the serial path.
"""

import json
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.settings import Settings
from repro.sim import runner as runner_module
from repro.sim.runner import SimulationRunner, stable_trace_salt

SCHEMES = ["R_X8", "PC_X32"]
BENCHES = ["gob", "hmmer"]
MISSES = 200

_SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)

#: Runs one small experiment and prints a JSON fingerprint of the trace
#: and the result; executed under different PYTHONHASHSEED values.
_FINGERPRINT_SCRIPT = """
import hashlib, json
from repro.sim.runner import SimulationRunner

runner = SimulationRunner(misses_per_benchmark=200, cache_dir=None, result_cache_dir=None)
result = runner.run_one("PC_X32", "gob")
trace = runner.trace("gob")
print(json.dumps({
    "cycles": result.cycles,
    "tree_accesses": result.tree_accesses,
    "events": len(trace.events),
    "trace_sha": hashlib.sha256(trace.to_bytes(compress=False)).hexdigest(),
}))
"""


def _fingerprint_with_hashseed(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout)


class TestDeterministicSeeding:
    def test_salt_is_process_independent(self):
        # Locked literals: CRC32-based, never the salted builtin hash().
        assert stable_trace_salt("gob") == zlib.crc32(b"gob") & 0xFFFF
        assert stable_trace_salt("gob") == 29611
        assert stable_trace_salt("mcf") != stable_trace_salt("gob")

    @pytest.mark.slow
    def test_identical_across_hashseed_processes(self):
        """Traces and SimResults must not depend on PYTHONHASHSEED."""
        a = _fingerprint_with_hashseed("0")
        b = _fingerprint_with_hashseed("31337")
        assert a == b


class TestParallelSuite:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("suite-cache")

    @pytest.fixture(scope="class")
    def serial(self, cache_dir):
        # result_cache_dir=None throughout this class: the point is to
        # prove the parallel path *recomputes* bitwise-identical results,
        # not that the result cache can replay them.
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=cache_dir, result_cache_dir=None
        )
        return runner.execute(runner.cells(SCHEMES, BENCHES))

    def test_parallel_bitwise_matches_serial(self, cache_dir, serial):
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=cache_dir, result_cache_dir=None
        )
        parallel = runner.execute(runner.cells(SCHEMES, BENCHES), workers=3)
        # SimResult is a dataclass: == is exact field (float-bit) equality.
        assert parallel == serial

    def test_parallel_results_are_keyed_by_cell(self, cache_dir, serial):
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=cache_dir, result_cache_dir=None
        )
        cells = runner.cells(SCHEMES, BENCHES)
        parallel = runner.execute(cells, workers=2)
        assert set(parallel) == {cell.key for cell in cells}
        for cell in cells:
            result = parallel[cell.key]
            assert (result.scheme, result.benchmark) == (cell.label, cell.bench)

    def test_parallel_with_overrides_matches_serial(self, cache_dir):
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=cache_dir, result_cache_dir=None
        )
        cells = runner.cells(["PC_X32"], BENCHES, plb_capacity_bytes=8 * 1024)
        serial = runner.execute(cells)
        parallel = runner.execute(cells, workers=2)
        assert parallel == serial

    def test_parallel_without_disk_cache(self, serial):
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=None, result_cache_dir=None
        )
        parallel = runner.execute(runner.cells(SCHEMES, BENCHES), workers=2)
        assert parallel == serial

    def test_a_cache_less_fabric_makes_no_directory(self, serial, monkeypatch):
        # The forks replay with this runner and no store at all: their
        # results come back in frames, not through a temporary store.
        made = []
        real = tempfile.TemporaryDirectory

        def recording(*args, **kwargs):
            made.append(args or kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(tempfile, "TemporaryDirectory", recording)
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=None, result_cache_dir=None
        )
        assert runner.execute(runner.cells(SCHEMES, BENCHES), workers=2) == serial
        assert runner.fabric_stats["completed"] == len(serial)
        assert made == []

    def test_forked_workers_synthesise_no_trace(self, serial, monkeypatch):
        # The fork inherits the patch: a child that synthesises kills
        # itself, and a cell no worker can finish fails the call.
        parent = os.getpid()
        real = runner_module.synthesize_trace

        def parent_only(*args, **kwargs):
            assert os.getpid() == parent, "a forked worker synthesised a trace"
            return real(*args, **kwargs)

        monkeypatch.setattr(runner_module, "synthesize_trace", parent_only)
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=None, result_cache_dir=None
        )
        parallel = runner.execute(runner.cells(SCHEMES, BENCHES), workers=2)
        assert parallel == serial

    def test_each_cold_cell_is_looked_up_once(self, serial, monkeypatch, tmp_path):
        # The fabric gets the cells execute() already looked up as its
        # tasks: no second store lookup and no second trace request.
        lookups = []
        real = SimulationRunner._load_cached

        def counting(runner, cell):
            lookups.append(cell.key)
            return real(runner, cell)

        monkeypatch.setattr(SimulationRunner, "_load_cached", counting)
        runner = SimulationRunner(
            misses_per_benchmark=MISSES, cache_dir=None,
            result_cache_dir=tmp_path,
        )
        cells = runner.cells(SCHEMES, BENCHES)
        assert len(cells) == 4
        assert runner.execute(cells, workers=2) == serial
        assert sorted(lookups) == sorted(cell.key for cell in cells)

    def test_workers_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert Settings.from_env().workers == 4
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS='junk'"):
            Settings.from_env()
        monkeypatch.delenv("REPRO_WORKERS")
        assert Settings.from_env().workers == 1


class TestBuildOverrides:
    """`plb_capacity_bytes` must be dropped, not crash, for non-PLB schemes."""

    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        return SimulationRunner(
            misses_per_benchmark=MISSES,
            cache_dir=tmp_path_factory.mktemp("build-cache"),
        )

    def test_r_x8_accepts_plb_capacity_override(self, runner):
        frontend = runner.build("R_X8", "gob", plb_capacity_bytes=16 * 1024)
        assert frontend is not None  # previously raised TypeError

    def test_plb_scheme_uses_plb_capacity_override(self, runner):
        frontend = runner.build("PC_X32", "gob", plb_capacity_bytes=16 * 1024)
        assert frontend.plb.capacity_bytes == 16 * 1024

    def test_suite_wide_override_spans_both_frontend_kinds(self, runner):
        cells = runner.cells(["R_X8", "PC_X32"], ["gob"], plb_capacity_bytes=32 * 1024)
        results = runner.execute(cells)
        assert [results[cell.key].scheme for cell in cells] == ["R_X8", "PC_X32"]
        assert all(results[cell.key].oram_accesses > 0 for cell in cells)
