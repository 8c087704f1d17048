"""Chaos lockstep: injected-then-recovered runs equal fault-free goldens.

The acceptance property of the fault plane: for every recoverable fault
class (cell crash, worker death, worker stall, Ctrl-C + resume, shard
breaker trips), the healed run's *measured* outputs — SimResults, sweep
tables, per-shard access digests — are bit-identical to a fault-free
golden run at the same seed. Only the ``resilience`` accounting block may
differ.
"""

import json
import time

import pytest

import repro.sim.runner as runner_mod
from repro.errors import (
    CacheCorruptionWarning,
    ConfigurationError,
    InjectedFault,
    SweepInterrupted,
)
from repro.faults import injected, parse
from repro.resilience import RetryPolicy
from repro.serve import OramService, ServeConfig, tenants_for
from repro.sim.checkpoint import HEADER, SweepCheckpoint
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
        start = time.perf_counter()
        healed = _suite(
            _runner(tmp_path, "s"),
            workers=2,
            retry=RetryPolicy(attempts=3, backoff=0.0, timeout=0.3),
        )
        assert time.perf_counter() - start < 10  # nobody waited out a stall
        assert healed == golden


class TestSweepChaosLockstep:
    def test_crash_healed_sweep_report_bit_identical(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        with injected("cell.crash@*/1"):
            healed = run_sweep(_sweep(), _runner(tmp_path, "c"))
        assert _strip(healed) == _strip(golden)
        assert sweep_table(healed) == sweep_table(golden)
        assert healed["resilience"]["quarantined"] == []

    def test_interrupt_then_resume_bit_identical_and_minimal(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        ckpt_path = tmp_path / "chaos.ckpt.jsonl"

        # Phase 1: die after the third completed cell is journaled.
        with injected("sweep.interrupt@*#3"):
            with pytest.raises(SweepInterrupted) as exc_info:
                run_sweep(
                    _sweep(), _runner(tmp_path, "c"), checkpoint=ckpt_path
                )
        partial = exc_info.value.report
        assert partial["resilience"]["interrupted"] is True
        assert partial["resilience"]["executed"] == 3

        # Phase 2: resume with cold caches — only the missing scheme
        # cells replay (the journal, not the result cache, supplies the
        # finished ones).
        replays = []
        real_replay = runner_mod.replay_trace

        def counting_replay(*args, **kwargs):
            result = real_replay(*args, **kwargs)
            replays.append(result.scheme)
            return result

        runner_mod.replay_trace = counting_replay
        try:
            resumed = run_sweep(
                _sweep(),
                _runner(tmp_path, "c2"),
                checkpoint=ckpt_path,
                resume=True,
            )
        finally:
            runner_mod.replay_trace = real_replay
        total_cells = len(golden["cells"])
        assert resumed["resilience"]["resumed"] == 3
        assert len(replays) == total_cells - 3  # minimal recomputation
        assert _strip(resumed) == _strip(golden)
        assert sweep_table(resumed) == sweep_table(golden)

    def test_resume_refuses_foreign_checkpoint(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt.jsonl"
        with injected("sweep.interrupt@*#1"):
            with pytest.raises(SweepInterrupted):
                run_sweep(
                    _sweep(), _runner(tmp_path, "a"), checkpoint=ckpt_path
                )
        other = SweepSpec.from_args(schemes=["PC_X32"], benchmarks=["gob"])
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(
                other, _runner(tmp_path, "a"), checkpoint=ckpt_path, resume=True
            )

    def test_resume_recomputes_a_damaged_journal_entry(self, tmp_path):
        journal = SweepCheckpoint(tmp_path / "sweep.ckpt")
        with injected("sweep.interrupt@*#2"):
            with pytest.raises(SweepInterrupted):
                run_sweep(_sweep(), _runner(tmp_path, "a"), checkpoint=journal)
        entries = [key for key in journal.keys() if key != HEADER]
        assert len(entries) == 2
        damaged = journal.path_for(entries[0])
        damaged.write_bytes(damaged.read_bytes()[:20])  # a torn write
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))

        replays = []
        real_replay = runner_mod.replay_trace

        def counting_replay(*args, **kwargs):
            result = real_replay(*args, **kwargs)
            replays.append(result.scheme)
            return result

        resumed_journal = SweepCheckpoint(tmp_path / "sweep.ckpt")
        runner_mod.replay_trace = counting_replay
        try:
            with pytest.warns(CacheCorruptionWarning, match="sweep journal"):
                resumed = run_sweep(
                    _sweep(),
                    _runner(tmp_path, "b"),
                    checkpoint=resumed_journal,
                    resume=True,
                )
        finally:
            runner_mod.replay_trace = real_replay
        assert resumed_journal.corrupt_evictions == 1
        assert resumed["resilience"]["resumed"] == 1  # the intact entry
        # Cold caches: exactly the damaged cell is replayed again.
        assert len(replays) == len(golden["cells"]) - 1
        assert resumed_journal.load(entries[0]) is not None  # re-journaled
        assert _strip(resumed) == _strip(golden)

    def test_unwritable_journal_path_fails_at_open(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", "utf-8")
        with pytest.raises(ConfigurationError, match="cannot write"):
            run_sweep(_sweep(), _runner(tmp_path, "u"), checkpoint=blocker)

    def test_fresh_run_deletes_only_journal_entries(self, tmp_path):
        root = tmp_path / "shared"
        root.mkdir()
        (root / "notes.txt").write_text("keep me", "utf-8")
        stale = SweepCheckpoint(root)
        stale.start("old", resume=False)
        stale.record("a" * 40, {"v": 1})
        SweepCheckpoint(root).start("new", resume=False)
        assert sorted(p.name for p in root.iterdir()) == [
            "header.ckpt.json", "notes.txt",
        ]
        SweepCheckpoint(root).retire()
        # The directory the user named is not empty, so it stays.
        assert [p.name for p in root.iterdir()] == ["notes.txt"]

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

    def test_checkpoint_journal_is_idempotent_per_key(self, tmp_path):
        journal = SweepCheckpoint(tmp_path / "j.ckpt")
        journal.start("fp", resume=False)
        journal.record("k", {"v": 1})
        journal.record("k", {"v": 2})  # ignored: first write wins
        assert journal.stores == 2  # the header and one entry
        reopened = SweepCheckpoint(tmp_path / "j.ckpt")
        assert reopened.start("fp", resume=True) == {"k": {"v": 1}}
        reopened.retire()
        assert not (tmp_path / "j.ckpt").exists()


def _scrub_wall(value):
    """Recursively drop wall-clock observations (not deterministic by design)."""
    if isinstance(value, dict):
        return {
            k: _scrub_wall(v)
            for k, v in value.items()
            if k not in ("wall_seconds", "wall_us")
        }
    if isinstance(value, list):
        return [_scrub_wall(v) for v in value]
    return value


class TestServeSweepChaos:
    def test_serve_sweep_interrupt_resume_bit_identical(self, tmp_path):
        sweep = SweepSpec.from_args(
            schemes=["PC_X32"],
            grid={"tenants": [2, 3]},
            benchmarks=["gob", "hmmer"],
        )
        golden = run_sweep(sweep, _runner(tmp_path, "g"))
        ckpt_path = tmp_path / "serve.ckpt.jsonl"
        with injected("sweep.interrupt@*#1"):
            with pytest.raises(SweepInterrupted) as exc_info:
                run_sweep(sweep, _runner(tmp_path, "g"), checkpoint=ckpt_path)
        assert len(exc_info.value.report["cells"]) == 1
        # Scenario cells are keyed like every other store entry.
        (key,) = [k for k in SweepCheckpoint(ckpt_path).keys() if k != HEADER]
        assert len(key) == 40 and int(key, 16) >= 0
        resumed = run_sweep(
            sweep, _runner(tmp_path, "g"), checkpoint=ckpt_path, resume=True
        )
        assert resumed["resilience"]["resumed"] == 1
        assert resumed["resilience"]["executed"] == 1
        assert _scrub_wall(_strip(resumed)) == _scrub_wall(_strip(golden))


class TestShardFailover:
    def _service(self, tmp_path, tag) -> OramService:
        return OramService(
            tenants_for(["gob", "hmmer"], 3),
            runner=_runner(tmp_path, tag),
            config=ServeConfig(scheme="PC_X32", shards=2),
        )

    def test_breaker_trip_preserves_digests_and_cycles(self, tmp_path):
        golden = self._service(tmp_path, "g").run("serial")
        chaotic = self._service(tmp_path, "g")
        with injected("serve.shard.stall@0#2|epochs=2"):
            chaotic.run("serial")
        assert chaotic.shards[0].stats.breaker_trips == 1
        assert chaotic.shards[0].stats.stall_epochs == 2
        assert chaotic.shards[0].stats.parked > 0
        for healed, clean in zip(chaotic.shards, golden.shards):
            assert healed.stats.access_digest == clean.stats.access_digest
            assert healed.stats.busy_cycles == clean.stats.busy_cycles
            assert healed.stats.requests == clean.stats.requests
        for ht, ct in zip(chaotic.tenant_stats, golden.tenant_stats):
            assert ht.cycles == ct.cycles
            assert ht.completed == ct.completed

    def test_serial_and_async_failover_identical(self, tmp_path):
        plan_text = "serve.shard.stall@1#3|epochs=2"
        serial = self._service(tmp_path, "g")
        with injected(plan_text):
            serial.run("serial")
        concurrent = self._service(tmp_path, "g")
        with injected(parse(plan_text)):
            concurrent.run("async")
        assert serial.epochs == concurrent.epochs
        for a, b in zip(serial.shards, concurrent.shards):
            assert a.stats.access_digest == b.stats.access_digest
            assert a.stats.busy_cycles == b.stats.busy_cycles
            assert a.stats.parked == b.stats.parked
            assert a.stats.stall_epochs == b.stats.stall_epochs

    def test_every_parked_request_eventually_completes(self, tmp_path):
        service = self._service(tmp_path, "g")
        with injected("serve.shard.stall@0#1|epochs=3"):
            service.run("serial")
        assert all(not s.backlog for s in service.shards)
        issued = sum(t.issued for t in service.tenant_stats)
        completed = sum(t.completed for t in service.tenant_stats)
        assert issued == completed

    def test_report_carries_failover_counters(self, tmp_path):
        service = self._service(tmp_path, "g")
        with injected("serve.shard.stall@0#1|epochs=1"):
            service.run("serial")
        shard0 = service.report()["shards"][0]
        assert shard0["breaker_trips"] == 1
        assert shard0["stall_epochs"] == 1
        assert shard0["parked"] >= 0
        assert json.dumps(service.report())
