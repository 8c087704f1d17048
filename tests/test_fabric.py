"""Fabric lockstep: sweeps on forked workers equal the local golden, byte for byte.

The acceptance property of the sweep fabric mirrors the fault plane's:
for every event the pool can meet — a cell error, a worker's death and
respawn, a cell past the cell timeout, Ctrl-C + re-run across
topologies — the completed report is bit-identical to a fault-free
local run at the same seed. Only the ``resilience`` accounting block
(which carries the fabric counters) may differ. Every pool test here
runs real forked workers: a fork costs ~2 ms, so no schedule needs
faking; a worker's loop and its error rebuilding are also driven
in-process, over a pipe.
"""

import contextlib
import inspect
import multiprocessing
import re
import threading
import time
from pathlib import Path

import pytest

import repro

from repro import errors
from repro.errors import CELL_FAILURES, FabricError, SweepInterrupted
from repro.fabric import FabricCoordinator, FabricExecutor
from repro.fabric import coordinator as coordinator_module
from repro.fabric.coordinator import (
    COUNTERS, RESPAWNS_PER_WORKER, _cell_error, _serve,
)
from repro.faults import injected
from repro.resilience import RetryPolicy
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

SRC = Path(repro.__file__).resolve().parent
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


def _strip(report):
    """Drop the (intentionally differing) resilience accounting block."""
    clone = dict(report)
    assert "resilience" in clone
    clone.pop("resilience")
    return clone


@contextlib.contextmanager
def _fabric(runner, n_workers=2):
    """A started coordinator with ``n_workers`` forked workers.

    A plan for the workers rides ``REPRO_FAULTS`` (``monkeypatch.setenv``):
    each child installs it afresh, so its counters restart per process,
    respawns included.
    """
    with FabricCoordinator(runner, spawn=n_workers) as coordinator:
        yield coordinator, FabricExecutor(coordinator)


def _exitcodes(coordinator):
    return [worker.proc.exitcode for worker in coordinator._workers]


class TestFabricLockstep:
    def test_fabric_sweep_bit_identical_to_serial(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "f")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)
        fabric = report["resilience"]["fabric"]
        assert fabric["workers_joined"] == 2
        # 8 grid cells + 2 insecure baselines, all cold, one task each.
        assert fabric["completed"] == fabric["dispatched"] == 10
        assert fabric["errors"] == fabric["dead"] == 0

    def test_warm_cells_served_from_cache_not_fabric(self, tmp_path):
        runner = _runner(tmp_path, "w")
        golden = run_sweep(_sweep(), runner)  # local run warms the caches
        # No worker: a cold cell would find nobody to run it.
        with _fabric(runner, n_workers=0) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        fabric = report["resilience"]["fabric"]
        assert fabric["dispatched"] == 0  # every cell was content-addressed
        assert _strip(report) == _strip(golden)

    def test_a_cell_error_is_charged_not_a_death(self, tmp_path, monkeypatch):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.crash@P_X16*/gob/1")
        runner = _runner(tmp_path, "e")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        fabric = report["resilience"]["fabric"]
        assert fabric["errors"] == 2  # both P_X16/gob cells, attempt 1
        assert fabric["dead"] == fabric["respawned"] == 0
        assert _exitcodes(coordinator) == [0, 0]
        assert _strip(report) == _strip(golden)

    def test_exhausted_retries_quarantine_not_abort(self, tmp_path, monkeypatch):
        runner = _runner(tmp_path, "q")
        # Both P_X16/gob cells crash on every attempt, on every worker.
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.crash@P_X16*/gob/*")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            report = run_sweep(
                _sweep(),
                runner,
                retry=RetryPolicy(attempts=2, backoff=0.0),
                executor=executor,
            )
        quarantined = report["resilience"]["quarantined"]
        assert {
            (q["scheme"].split(":")[0], q["benchmark"]) for q in quarantined
        } == {("P_X16", "gob")}
        assert all(q["attempts"] == 2 for q in quarantined)
        assert all("InjectedFault" in q["error"] for q in quarantined)
        # The healthy cells all completed despite the quarantine.
        assert report["resilience"]["fabric"]["errors"] == 4


class TestDeaths:
    SCHEMES = ["P_X16", "PC_X32", "PI_X8", "PIC_X32"]

    def test_a_death_is_charged_to_its_own_cell_only(self, tmp_path, monkeypatch):
        """Every attempt of one cell kills its worker; nothing else is charged.

        Eight cells on two workers: the killing cell is quarantined after
        its last attempt, each death reclaims that cell alone, and every
        other cell equals its serial result.
        """
        serial_runner = _runner(tmp_path, "g")
        cells = serial_runner.cells(self.SCHEMES, BENCHES)
        assert len(cells) >= 8
        serial = serial_runner.execute(cells)
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.exit@P_X16/gob/*")
        runner = _runner(tmp_path, "k")
        retry = RetryPolicy(attempts=3, backoff=0.0)
        failures = []
        out = runner.execute(
            runner.cells(self.SCHEMES, BENCHES), workers=2, retry=retry,
            failures=failures,
        )
        assert [(f["scheme"], f["benchmark"], f["attempts"]) for f in failures] == [
            ("P_X16", "gob", retry.attempts)
        ]
        assert "exited with code 17" in failures[0]["error"]
        stats = runner.fabric_stats
        assert stats["reclaimed"] == stats["dead"] == retry.attempts
        killed = next(c.key for c in cells if (c.label, c.bench) == ("P_X16", "gob"))
        assert out == {key: r for key, r in serial.items() if key != killed}

    def test_worker_process_death_respawns_and_heals(self, tmp_path, monkeypatch):
        """One worker hard-exits mid-cell; its cell reruns, the report heals."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.exit@*/gob/1#1")
        runner = _runner(tmp_path, "k")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        fabric = report["resilience"]["fabric"]
        assert fabric["dead"] == fabric["respawned"] == fabric["reclaimed"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_a_programming_error_kills_the_worker(self, tmp_path, monkeypatch):
        """Only CELL_FAILURES come back as errors; a bug is a death."""

        def broken(self, cell, attempt=1, **kw):
            raise TypeError("a bug in the cell path")

        runner = _runner(tmp_path, "b")
        cells = runner.cells(SCHEMES, ["gob"])
        monkeypatch.setattr(SimulationRunner, "run_cell", broken)  # forks inherit it
        failures = []
        with FabricCoordinator(runner, spawn=1) as coordinator:
            coordinator.execute(
                [cell.task(MISSES) for cell in cells],
                retry=RetryPolicy(attempts=1), failures=failures,
            )
        assert [f["scheme"] for f in failures] == SCHEMES
        assert all("exited with code 1" in f["error"] for f in failures)
        assert coordinator.counters["errors"] == 0
        assert coordinator.counters["dead"] == 2

    @pytest.mark.parametrize("spawn", [1, 2, 3])
    def test_the_last_death_without_budget_raises(self, tmp_path, monkeypatch, spawn):
        """Every fork dies: once the shared respawn budget is spent and the
        last worker is gone, a FabricError, however many were forked."""
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.exit@*")
        runner = _runner(tmp_path, "x")
        (cell,) = runner.cells(["P_X16"], ["gob"])
        forks = spawn * (1 + RESPAWNS_PER_WORKER)
        with FabricCoordinator(runner, spawn=spawn) as coordinator:
            with pytest.raises(
                FabricError, match=rf"\({forks} forked, respawn budget spent\)"
            ):
                coordinator.execute(
                    [cell.task(MISSES)], retry=RetryPolicy(attempts=forks + 1),
                )
        assert coordinator.counters["dead"] == forks
        assert coordinator.stats()["workers_live"] == 0

    def test_an_empty_fabric_fails_only_a_call_with_cells(self, tmp_path):
        runner = _runner(tmp_path, "n")
        (cell,) = runner.cells(["P_X16"], ["gob"])
        with FabricCoordinator(runner, spawn=0) as coordinator:
            coordinator.execute([])  # nothing open: nothing to fail
            with pytest.raises(FabricError, match="no live fabric worker"):
                coordinator.execute([cell.task(MISSES)])

    def test_a_worker_dead_while_idle_is_replaced_uncharged(self, tmp_path):
        runner = _runner(tmp_path, "i")
        cells = runner.cells(SCHEMES, ["gob"])
        serial = _runner(tmp_path, "s").execute(cells)
        with FabricCoordinator(runner, spawn=1) as coordinator:
            (worker,) = coordinator._workers
            worker.proc.kill()
            worker.proc.join(timeout=10)
            assert worker.proc.exitcode is not None
            seen = {}
            coordinator.execute(
                [cell.task(MISSES) for cell in cells],
                progress=lambda label, bench, result, cached: seen.update(
                    {(label, bench): result}
                ),
            )
        assert coordinator.counters["dead"] == coordinator.counters["respawned"] == 1
        assert coordinator.counters["reclaimed"] == 0
        assert seen == {(c.label, c.bench): serial[c.key] for c in cells}


class TestReclaim:
    """A charged cell runs next at the following attempt, in serial order."""

    @pytest.mark.parametrize("failing", [1, 2, 3])
    @pytest.mark.parametrize("action", ["crash", "exit"])
    def test_each_attempt_is_charged_once_and_none_is_skipped(
        self, tmp_path, monkeypatch, action, failing
    ):
        """P_X16/gob fails its first ``failing`` attempts, as an error
        (``crash``) or a death (``exit``). Every worker logs each key it
        passes the ``fabric.worker`` site with: the cell's attempts come
        once each, in order, and stop at its success or at the last one.
        """
        retry = RetryPolicy(attempts=3, backoff=0.0)
        serial_runner = _runner(tmp_path, "g")
        serial = serial_runner.execute(serial_runner.cells(SCHEMES, BENCHES))
        log = tmp_path / "attempts.log"
        real_hook = coordinator_module.fault_hook

        def logging_hook(site, key="", path=None):
            with log.open("a", encoding="utf-8") as out:
                out.write(key + "\n")
            real_hook(site, key, path)

        monkeypatch.setattr(coordinator_module, "fault_hook", logging_hook)
        attempts = "".join(str(n) for n in range(1, failing + 1))
        monkeypatch.setenv("REPRO_FAULTS", f"fabric.worker.{action}@P_X16/gob/[{attempts}]")
        runner = _runner(tmp_path, "r")
        cells = runner.cells(SCHEMES, BENCHES)
        failures = []
        out = runner.execute(cells, workers=2, retry=retry, failures=failures)

        seen = [key for key in log.read_text("utf-8").split() if key.startswith("P_X16/gob/")]
        last = min(failing + 1, retry.attempts)
        assert seen == [f"P_X16/gob/{n}" for n in range(1, last + 1)]
        stats = runner.fabric_stats
        charged = stats["errors"] if action == "crash" else stats["reclaimed"]
        assert charged == failing
        assert stats["dead"] == (failing if action == "exit" else 0)
        killed = next(c.key for c in cells if (c.label, c.bench) == ("P_X16", "gob"))
        if failing < retry.attempts:
            assert failures == [] and out == serial
        else:
            assert [(f["scheme"], f["attempts"]) for f in failures] == [("P_X16", 3)]
            assert out == {key: r for key, r in serial.items() if key != killed}


class TestServe:
    """A worker's loop, driven in this process over a pipe of its own."""

    def _replies(self, runner, *tasks):
        """Send ``tasks`` (at attempt 1 unless they say) then ``None``;
        serve them; read every reply."""
        ours, theirs = multiprocessing.Pipe()
        for task in tasks:
            ours.send({"attempt": 1, **task})
        ours.send(None)
        _serve(theirs, runner)
        return [ours.recv() for _ in tasks]

    def test_a_task_is_run_with_the_inherited_runner(self, tmp_path):
        runner = _runner(tmp_path, "w")
        (cell,) = runner.cells(["P_X16"], ["gob"])
        expected = _runner(tmp_path, "s").run_cell(cell)
        assert self._replies(runner, cell.task(MISSES)) == [(expected, None)]
        assert runner.result_cache.load(cell.key) == expected  # stored before sent

    def test_each_task_gets_one_reply_in_order_until_none(self, tmp_path):
        runner = _runner(tmp_path, "o")
        cells = runner.cells(SCHEMES, BENCHES)
        serial = _runner(tmp_path, "s").execute(cells)
        replies = self._replies(runner, *(cell.task(MISSES) for cell in cells))
        assert replies == [(serial[cell.key], None) for cell in cells]

    def test_end_of_file_before_any_task_returns(self, tmp_path):
        ours, theirs = multiprocessing.Pipe()
        ours.close()
        assert _serve(theirs, _runner(tmp_path, "e")) is None

    def test_a_closed_coordinator_end_after_the_task_returns_quietly(self, tmp_path):
        """The coordinator closed while the cell ran: the reply cannot be
        sent, and the result is in the store all the same."""
        runner = _runner(tmp_path, "c")
        (cell,) = runner.cells(["P_X16"], ["gob"])
        ours, theirs = multiprocessing.Pipe()
        ours.send(dict(cell.task(MISSES), attempt=1))
        ours.close()
        assert _serve(theirs, runner) is None
        assert runner.result_cache.load(cell.key) is not None

    @pytest.mark.parametrize("kind", CELL_FAILURES, ids=lambda kind: kind.__name__)
    def test_a_cell_failure_is_an_error_reply_not_a_death(
        self, tmp_path, monkeypatch, kind
    ):
        """Each of CELL_FAILURES is one ``"Type: message"`` reply, and the
        loop goes on to serve the next task."""
        runner = _runner(tmp_path, "f")
        cells = runner.cells(SCHEMES, ["gob"])
        real = SimulationRunner.run_cell

        def failing_first(self, cell, attempt=1, **kw):
            if cell.label == SCHEMES[0]:
                raise kind("boom")
            return real(self, cell, attempt, **kw)

        monkeypatch.setattr(SimulationRunner, "run_cell", failing_first)
        first, second = self._replies(runner, *(cell.task(MISSES) for cell in cells))
        assert first == (None, f"{kind.__name__}: {kind('boom')}")
        assert second[1] is None and second[0].scheme == SCHEMES[1]

    def test_a_programming_error_leaves_the_loop(self, tmp_path, monkeypatch):
        """Anything outside CELL_FAILURES escapes: in a fork, a death."""

        def broken(self, cell, attempt=1, **kw):
            raise TypeError("a bug in the cell path")

        runner = _runner(tmp_path, "b")
        (cell,) = runner.cells(["P_X16"], ["gob"])
        monkeypatch.setattr(SimulationRunner, "run_cell", broken)
        ours, theirs = multiprocessing.Pipe()
        ours.send(dict(cell.task(MISSES), attempt=1))
        with pytest.raises(TypeError, match="a bug in the cell path"):
            _serve(theirs, runner)
        assert not ours.poll()

    def test_the_fault_site_keys_on_label_bench_and_attempt(self, tmp_path):
        runner = _runner(tmp_path, "k")
        (cell,) = runner.cells(["P_X16"], ["gob"])
        task = cell.task(MISSES)
        with injected("fabric.worker.crash@P_X16/gob/2"):
            first, second = self._replies(runner, dict(task, attempt=1), dict(task, attempt=2))
        assert first[1] is None
        assert second[0] is None and second[1].startswith("InjectedFault: ")

    def test_another_miss_budget_is_derived_once(self, tmp_path, monkeypatch):
        """A bench-grid sweep's tasks carry their miss budget; a worker
        derives one runner per budget and keeps it."""
        runner = _runner(tmp_path, "m")
        cells = runner.derive(misses_per_benchmark=120).cells(SCHEMES, ["gob"])
        serial = _runner(tmp_path, "s").derive(misses_per_benchmark=120).execute(cells)
        derived = []
        real = SimulationRunner.derive

        def counting(self, **changes):
            derived.append(changes)
            return real(self, **changes)

        monkeypatch.setattr(SimulationRunner, "derive", counting)
        replies = self._replies(runner, *(cell.task(120) for cell in cells))
        assert derived == [{"misses_per_benchmark": 120}]
        assert replies == [(serial[cell.key], None) for cell in cells]


class TestCellError:
    """A quarantined cell's error string becomes what the serial path raises."""

    TASK = {"label": "P_X16", "bench": "gob", "attempt": 3}

    @pytest.mark.parametrize("kind", CELL_FAILURES, ids=lambda kind: kind.__name__)
    def test_a_cell_failure_is_rebuilt_as_its_own_type(self, kind):
        error = _cell_error(self.TASK, f"{kind.__name__}: boom")
        assert type(error) is kind
        assert "cell P_X16/gob failed 3 attempt(s): boom" in str(error)

    @pytest.mark.parametrize(
        "reported",
        [
            "TypeError: not a cell failure",
            "NoSuchError: an unknown type",
            "UnicodeDecodeError: needs five arguments",
            "no type at all",
        ],
    )
    def test_anything_else_is_a_fabric_error_carrying_the_report(self, reported):
        error = _cell_error(self.TASK, reported)
        assert type(error) is FabricError
        assert str(error) == f"cell P_X16/gob failed 3 attempt(s): {reported}"

    def test_a_library_error_is_found_in_the_errors_module(self):
        error = _cell_error(self.TASK, "SpecError: bad spec")
        assert type(error) is errors.SpecError


class TestCellTimeout:
    def test_a_stuck_worker_is_killed_and_re_forked_inside_the_stall(
        self, tmp_path, monkeypatch
    ):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.stall@*/gob/1|secs=30")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0.3")
        start = time.monotonic()
        report = run_sweep(_sweep(), _runner(tmp_path, "t"), workers=2)
        assert time.monotonic() - start < 20
        fabric = report["resilience"]["fabric"]
        assert fabric["timeouts"] == fabric["dead"] == fabric["reclaimed"] == 4
        assert fabric["respawned"] == 4
        assert _strip(report) == _strip(golden)

    def test_a_zero_cell_timeout_reclaims_nothing(self, tmp_path, monkeypatch):
        """``REPRO_CELL_TIMEOUT=0`` means no timeout."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        report = run_sweep(_sweep(), _runner(tmp_path, "z"), workers=2)
        assert report["resilience"]["quarantined"] == []
        assert report["resilience"]["fabric"]["timeouts"] == 0
        assert _strip(report) == _strip(golden)

    def test_the_longest_cell_timeout_is_waited_in_slices(self, tmp_path):
        """``poll()`` refuses a wait past 2**31 - 1 ms; the largest
        ``REPRO_CELL_TIMEOUT`` is still a working timeout."""
        runner = _runner(tmp_path, "l")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            executor.execute(
                runner, runner.cells(SCHEMES, ["gob"]),
                retry=RetryPolicy(timeout=threading.TIMEOUT_MAX),
            )
        assert coordinator.counters["completed"] == len(SCHEMES)

    def test_idle_workers_outlast_the_cell_timeout(self, tmp_path):
        """Only a cell is timed: workers idle between calls are not stuck."""
        runner = _runner(tmp_path, "o")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            time.sleep(0.5)
            executor.execute(
                runner, runner.cells(SCHEMES, ["gob"]),
                retry=RetryPolicy(timeout=0.3),
            )
        assert coordinator.counters["timeouts"] == coordinator.counters["dead"] == 0


class TestStats:
    """``stats()`` keys the frozen ``perf/`` harness reads off a fabric sweep."""

    def _stats(self, tmp_path):
        runner = _runner(tmp_path, "p")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            executor.execute(runner, runner.cells(SCHEMES, BENCHES))
            return executor.stats()

    @pytest.mark.parametrize(
        "key, value",
        [("dispatched", 4), ("stolen", 0), ("rpc_timeouts", 0), ("reconnects", 0)],
    )
    def test_the_keys_the_perf_harness_reads(self, tmp_path, key, value):
        """Four cells, one dispatch each; nothing is stolen, no RPC times
        out and nobody reconnects on a pipe."""
        assert self._stats(tmp_path)[key] == value

    def test_every_counter_then_the_live_workers(self, tmp_path):
        stats = self._stats(tmp_path)
        assert list(stats) == list(COUNTERS) + ["workers_live"]
        assert stats["workers_live"] == 2

    def test_a_sweep_sums_every_calls_coordinator(self, tmp_path, monkeypatch):
        """``run_sweep(workers=2)`` is one fabric per ``execute`` call, and
        ``resilience.fabric`` adds their counters up."""
        sweep = SweepSpec.from_args(
            SCHEMES, grid=["misses=120,150"], benchmarks=BENCHES
        )
        golden = run_sweep(sweep, _runner(tmp_path, "g"))
        assert "fabric" not in golden["resilience"]
        calls = []
        real = FabricCoordinator.stats

        def recording(coordinator):
            calls.append(real(coordinator))
            return calls[-1]

        monkeypatch.setattr(FabricCoordinator, "stats", recording)
        report = run_sweep(sweep, _runner(tmp_path, "w"), workers=2)
        # One coordinator per misses combo; baselines stay in the parent.
        assert len(calls) == 2
        fabric = report["resilience"]["fabric"]
        for key in COUNTERS:
            assert fabric[key] == sum(call[key] for call in calls), key
        assert fabric["workers_live"] == calls[-1]["workers_live"]
        scheme_cells = 2 * len(SCHEMES) * len(BENCHES)
        assert fabric["completed"] == fabric["dispatched"] == scheme_cells
        assert _strip(report) == _strip(golden)


class TestClose:
    def test_close_shuts_every_forked_worker_down(self, tmp_path):
        """Workers forked at ``start()`` carry their index; ``close()``
        tells each to exit and every one exits 0, at once."""
        coordinator = FabricCoordinator(_runner(tmp_path, "c"), spawn=2)
        assert coordinator.start() is None
        workers = list(coordinator._workers)
        assert [worker.index for worker in workers] == [0, 1]
        assert [worker.proc.name for worker in workers] == [
            "fabric-worker-0", "fabric-worker-1"
        ]
        assert coordinator.stats()["workers_live"] == 2
        start = time.monotonic()
        coordinator.close()
        assert time.monotonic() - start < 2.0
        assert _exitcodes(coordinator) == [0, 0]
        assert all(worker.conn.closed for worker in workers)
        assert coordinator.stats()["workers_live"] == 0

    def test_an_unstarted_coordinator_forks_nothing(self, tmp_path):
        coordinator = FabricCoordinator(_runner(tmp_path, "u"), spawn=2)
        coordinator.close()
        assert coordinator._workers == []
        assert coordinator.counters["workers_joined"] == 0

    def test_a_worker_whose_pipe_closes_exits_0(self, tmp_path):
        coordinator = FabricCoordinator(_runner(tmp_path, "p"), spawn=2)
        coordinator.start()
        try:
            first = coordinator._workers[0]
            first.conn.close()  # the second worker's copy was closed at its fork
            first.proc.join(timeout=10)
            assert first.proc.exitcode == 0
        finally:
            first.alive = False
            coordinator.close()
        assert _exitcodes(coordinator) == [0, 0]

    def test_execute_runs_on_the_callers_thread(self, tmp_path):
        """Three forked workers, and still no thread beside the caller's."""
        runner = _runner(tmp_path, "t")
        before = threading.active_count()
        seen = []
        with FabricCoordinator(runner, spawn=3) as coordinator:
            FabricExecutor(coordinator).execute(
                runner, runner.cells(SCHEMES, BENCHES),
                progress=lambda *_: seen.append(threading.active_count()),
            )
        assert seen == [before] * len(SCHEMES) * len(BENCHES)
        assert _exitcodes(coordinator) == [0, 0, 0]

    def test_a_cell_in_flight_at_close_is_stored_and_its_worker_exits_0(
        self, tmp_path
    ):
        """A call ended by an exception leaves the other worker's cell
        running: ``close()`` lets it finish into the store."""
        runner = _runner(tmp_path, "i")

        def stop(*_):
            raise SweepInterrupted("stop after the first cell")

        with pytest.raises(SweepInterrupted):
            with FabricCoordinator(runner, spawn=2) as coordinator:
                coordinator.execute(
                    [cell.task(MISSES) for cell in runner.cells(SCHEMES, BENCHES)],
                    progress=stop,
                )
        assert coordinator.counters["completed"] == 1
        assert coordinator.counters["dispatched"] == 2
        assert len(runner.result_cache.keys()) == 2
        assert _exitcodes(coordinator) == [0, 0]

    def test_a_stuck_cell_at_close_is_killed_after_the_cell_timeout(
        self, tmp_path, monkeypatch
    ):
        """``close()`` waits for an in-flight cell no longer than a cell is
        allowed, then kills its worker; that cell is not stored."""
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.stall@PC_X32/gob/1|secs=30")
        runner = _runner(tmp_path, "s")

        def stop(*_):
            raise SweepInterrupted("stop after the first cell")

        with pytest.raises(SweepInterrupted):
            with FabricCoordinator(runner, spawn=2) as coordinator:
                try:
                    coordinator.execute(
                        [cell.task(MISSES) for cell in runner.cells(SCHEMES, ["gob"])],
                        retry=RetryPolicy(timeout=2.0), progress=stop,
                    )
                finally:
                    start = time.monotonic()
        assert time.monotonic() - start < 4.5
        assert sorted(_exitcodes(coordinator)) == [-9, 0]
        assert len(runner.result_cache.keys()) == 1

    def test_workers_are_fork_context_processes(self, tmp_path):
        with FabricCoordinator(_runner(tmp_path, "f"), spawn=1) as coordinator:
            (worker,) = coordinator._workers
            assert isinstance(worker.proc, multiprocessing.get_context("fork").Process)


class TestFabricRerun:
    """An interrupted sweep finishes when run again, across topologies."""

    def test_local_interrupt_reruns_on_the_fabric(self, tmp_path):
        """Cells stored by a serial run are not sent to the fabric."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        with injected("sweep.interrupt@*#3"):
            with pytest.raises(SweepInterrupted):
                run_sweep(_sweep(), _runner(tmp_path, "c"))
        runner = _runner(tmp_path, "c")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            rerun = run_sweep(_sweep(), runner, executor=executor)
        assert rerun["resilience"]["from_cache"] == 3
        fabric = rerun["resilience"]["fabric"]
        assert fabric["completed"] == len(golden["cells"]) - 3 + len(BENCHES)
        assert _strip(rerun) == _strip(golden)
        assert sweep_table(rerun) == sweep_table(golden)

    def test_fabric_interrupt_reruns_locally(self, tmp_path):
        """The reverse topology change: fabric interrupt, serial re-run."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "c")
        with injected("sweep.interrupt@*#3"):
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                with pytest.raises(SweepInterrupted):
                    run_sweep(_sweep(), runner, executor=executor)
        # Workers store every cell they finish, in flight or not.
        stored = len(runner.result_cache.keys())
        assert stored >= 3
        rerun = run_sweep(_sweep(), _runner(tmp_path, "c"))
        total_cells = len(golden["cells"]) + len(golden["baselines"])
        assert rerun["resilience"]["from_cache"] == stored
        assert rerun["resilience"]["executed"] == total_cells - stored
        assert _strip(rerun) == _strip(golden)
        assert sweep_table(rerun) == sweep_table(golden)

    @pytest.mark.parametrize(
        "first, second", [(1, 2), (2, 1)], ids=["serial-then-2", "2-then-serial"]
    )
    def test_forked_workers_rerun_bit_identical(self, tmp_path, first, second):
        """``workers=`` on either side of the interrupt: same report."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        with injected("sweep.interrupt@*#3"):
            with pytest.raises(SweepInterrupted):
                run_sweep(_sweep(), _runner(tmp_path, "c"), workers=first)
        stored = len(_runner(tmp_path, "c").result_cache.keys())
        rerun = run_sweep(_sweep(), _runner(tmp_path, "c"), workers=second)
        total_cells = len(golden["cells"]) + len(golden["baselines"])
        assert rerun["resilience"]["from_cache"] == stored >= 3
        assert rerun["resilience"]["executed"] == total_cells - stored
        assert _strip(rerun) == _strip(golden)
        assert sweep_table(rerun) == sweep_table(golden)


class TestSize:
    def test_no_module_under_src_starts_a_thread(self):
        threaded = {
            path.relative_to(SRC).as_posix()
            for path in SRC.rglob("*.py")
            if re.search(r"\bThread\(|^(import|from) (queue|concurrent)\b",
                         path.read_text("utf-8"), re.MULTILINE)
        }
        assert threaded == set()

    def test_the_fabric_is_one_module(self):
        assert sorted(p.name for p in (SRC / "fabric").glob("*.py")) == [
            "__init__.py", "coordinator.py"
        ]

    def test_no_timing_option_is_left(self):
        assert list(inspect.signature(FabricCoordinator).parameters) == [
            "runner", "spawn"
        ]
        assert not hasattr(coordinator_module, "HEARTBEAT_TIMEOUT")
        assert not hasattr(coordinator_module, "LEASE_CAP")
