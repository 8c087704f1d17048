"""Chaos lockstep: injected-then-recovered runs equal fault-free goldens.

The acceptance property of the fault plane: for every recoverable fault
class (cell crash, worker death, worker stall, Ctrl-C + re-run), the
healed run's *measured* outputs — SimResults and sweep tables — are
bit-identical to a fault-free golden run at the same seed. Only the
``resilience`` accounting block may differ.
"""

import contextlib
import json

import pytest

import repro.sim.runner as runner_mod
from repro.errors import CacheCorruptionWarning, InjectedFault, SweepInterrupted
from repro.faults import injected
from repro.resilience import RetryPolicy
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

BENCHES = ("gob", "hmmer")
MISSES = 150
SCHEMES = ["P_X16", "PC_X32"]


def _runner(tmp_path, tag, **kw) -> SimulationRunner:
    return SimulationRunner(
        misses_per_benchmark=MISSES,
        cache_dir=tmp_path / tag / "traces",
        result_cache_dir=tmp_path / tag / "results",
        **kw,
    )


def _sweep() -> SweepSpec:
    return SweepSpec.from_args(
        schemes=SCHEMES,
        grid={"plb_capacity_bytes": ["4KiB", "8KiB"]},
        benchmarks=BENCHES,
    )


def _suite(runner, **kw):
    """Every (scheme, benchmark) cell through ``runner.execute``."""
    return runner.execute(runner.cells(SCHEMES, BENCHES), **kw)


def _strip(report):
    """Drop the (intentionally differing) resilience accounting block."""
    clone = dict(report)
    assert "resilience" in clone
    clone.pop("resilience")
    return clone


@contextlib.contextmanager
def _counting_replays():
    """Record the scheme of every ``replay_trace`` call the runner makes."""
    replays = []
    real_replay = runner_mod.replay_trace

    def counting_replay(*args, **kwargs):
        result = real_replay(*args, **kwargs)
        replays.append(result.scheme)
        return result

    runner_mod.replay_trace = counting_replay
    try:
        yield replays
    finally:
        runner_mod.replay_trace = real_replay


class TestSuiteSelfHealing:
    def test_serial_crash_retry_matches_golden(self, tmp_path):
        golden = _suite(_runner(tmp_path, "g"))
        runner = _runner(tmp_path, "c")
        # Every cell's first attempt crashes; retries heal all of them.
        with injected("cell.crash@*/1") as plan:
            healed = _suite(runner)
        assert healed == golden
        assert len(plan.fired) == len(SCHEMES) * len(BENCHES)

    def test_exhausted_retries_quarantine_not_abort(self, tmp_path):
        runner = _runner(tmp_path, "q")
        failures = []
        with injected("cell.crash@P_X16/gob/*"):  # every attempt crashes
            out = _suite(
                runner, retry=RetryPolicy(attempts=2, backoff=0.0), failures=failures
            )
        completed = [(r.scheme, r.benchmark) for r in out.values()]
        assert ("P_X16", "gob") not in completed  # quarantined cell is absent
        assert len(completed) == len(SCHEMES) * len(BENCHES) - 1  # the rest ran
        assert all(result.cycles > 0 for result in out.values())
        (entry,) = failures
        assert entry["scheme"] == "P_X16" and entry["benchmark"] == "gob"
        assert entry["attempts"] == 2 and "InjectedFault" in entry["error"]

    def test_exhausted_retries_raise_without_quarantine_list(self, tmp_path):
        runner = _runner(tmp_path, "r")
        with injected("cell.crash@P_X16/gob/*"):
            with pytest.raises(InjectedFault):
                _suite(runner, retry=RetryPolicy(attempts=2, backoff=0.0))

    def test_exhausted_retries_raise_the_cells_error_on_forked_workers(
        self, tmp_path, monkeypatch
    ):
        """A worker reports the error as text; the parent raises its type."""
        monkeypatch.setenv("REPRO_FAULTS", "cell.crash@P_X16/gob/*")
        with pytest.raises(InjectedFault, match="P_X16/gob failed 2 attempt"):
            _suite(
                _runner(tmp_path, "r"),
                workers=2,
                retry=RetryPolicy(attempts=2, backoff=0.0),
            )

    def test_worker_death_respawns_and_matches_golden(self, tmp_path, monkeypatch):
        golden = _suite(_runner(tmp_path, "g"))
        # Forked workers re-install the plan from the environment; each
        # worker process kills itself (hard exit) on its first attempt-1
        # cell, and its coordinator respawns it.
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.exit@*/*/1#1")
        healed = _suite(
            _runner(tmp_path, "w"),
            workers=2,
            retry=RetryPolicy(attempts=3, backoff=0.0),
        )
        assert healed == golden

    def test_stalled_worker_reclaimed_and_matches_golden(self, tmp_path, monkeypatch):
        golden = _suite(_runner(tmp_path, "g"))
        # Attempt-1 cells stall far longer than the cell timeout; each
        # stalled worker is reclaimed and respawned, and attempt 2 sails
        # through.
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.stall@*/*/1|secs=30")
        runner = _runner(tmp_path, "s")
        healed = _suite(
            runner,
            workers=2,
            retry=RetryPolicy(attempts=3, backoff=0.0, timeout=0.3),
        )
        assert runner.fabric_stats["timeouts"] >= 1  # stalls cut, not waited out
        assert healed == golden


class TestSweepChaosLockstep:
    def test_crash_healed_sweep_report_bit_identical(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        with injected("cell.crash@*/1"):
            healed = run_sweep(_sweep(), _runner(tmp_path, "c"))
        assert _strip(healed) == _strip(golden)
        assert sweep_table(healed) == sweep_table(golden)
        assert healed["resilience"]["quarantined"] == []

    def test_interrupt_then_rerun_bit_identical_and_minimal(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))

        # Phase 1: die after the third completed cell is stored.
        with injected("sweep.interrupt@*#3"):
            with pytest.raises(SweepInterrupted) as exc_info:
                run_sweep(_sweep(), _runner(tmp_path, "c"))
        partial = exc_info.value.report
        assert partial["resilience"]["interrupted"] is True
        assert partial["resilience"]["executed"] == 3
        assert len(_runner(tmp_path, "c").result_cache.keys()) == 3

        # Phase 2: the same call again — the stored cells come back from
        # the result store and only the missing scheme cells replay.
        with _counting_replays() as replays:
            rerun = run_sweep(_sweep(), _runner(tmp_path, "c"))
        total_cells = len(golden["cells"]) + len(golden["baselines"])
        assert rerun["resilience"]["from_cache"] == 3
        assert rerun["resilience"]["executed"] == total_cells - 3
        assert len(replays) == len(golden["cells"]) - 3  # minimal recomputation
        assert _strip(rerun) == _strip(golden)
        assert sweep_table(rerun) == sweep_table(golden)
        assert not list(tmp_path.rglob("*.ckpt*"))

    def test_rerun_recomputes_a_damaged_result_entry(self, tmp_path):
        runner = _runner(tmp_path, "a")
        with injected("sweep.interrupt@*#2"):
            with pytest.raises(SweepInterrupted):
                run_sweep(_sweep(), runner)
        entries = runner.result_cache.keys()
        assert len(entries) == 2
        damaged = runner.result_cache.path_for(entries[0])
        damaged.write_bytes(damaged.read_bytes()[:20])  # a torn write
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))

        rerunner = _runner(tmp_path, "a")
        with _counting_replays() as replays:
            with pytest.warns(CacheCorruptionWarning, match="result cache"):
                rerun = run_sweep(_sweep(), rerunner)
        assert rerunner.result_cache.corrupt_evictions == 1
        assert rerun["resilience"]["from_cache"] == 1  # the intact entry
        # Exactly the damaged cell is replayed again, with the rest.
        assert len(replays) == len(golden["cells"]) - 1
        assert rerunner.result_cache.load(entries[0]) is not None  # restored
        assert _strip(rerun) == _strip(golden)
        assert sweep_table(rerun) == sweep_table(golden)

    def test_quarantined_sweep_cell_reported_not_fatal(self, tmp_path):
        with injected("cell.crash@P_X16*/gob/*"):
            report = run_sweep(
                _sweep(),
                _runner(tmp_path, "q"),
                retry=RetryPolicy(attempts=2, backoff=0.0),
            )
        quarantined = report["resilience"]["quarantined"]
        assert {(q["scheme"].split(":")[0], q["benchmark"]) for q in quarantined} == {
            ("P_X16", "gob")
        }
        # Both P_X16 grid points lost their gob cell; everything else ran.
        expected = len(SCHEMES) * 2 * len(BENCHES) - len(quarantined)
        assert len(report["cells"]) == expected
        assert json.dumps(report)  # report stays JSON-safe

