"""Fabric coordinator: a pool of forked workers, one cell each at a time.

The coordinator forks its workers with the ``multiprocessing`` fork
context, each on a ``Pipe`` of its own. A child inherits the caller's
process: its environment, the runner with its own trace and result
stores (none when it has none) and every trace synthesised so far. It
re-installs the fault plan from ``REPRO_FAULTS`` (its counters restart
in every process, respawns included) and serves its pipe
(:func:`_serve`). A result is in the runner's result store, when it has
one, before it is sent, so an interrupted sweep finishes when it is run
again.

:meth:`FabricCoordinator.execute` runs on the caller's thread: it sends
each idle worker the next queued task and waits with
:func:`multiprocessing.connection.wait` on the busy workers' pipes and
every worker's process sentinel. Report *content* never depends on this
scheduling: the sweep assembles cells in grid order.

Failure rules. A cell error charges that cell one attempt; a worker
reports only :data:`~repro.errors.CELL_FAILURES` this way, and anything
else kills it, so a bug surfaces as a death. A worker that dies, or
whose cell runs longer than the retry policy's ``timeout``
(``REPRO_CELL_TIMEOUT``; it is then killed), charges the one cell it
held and is re-forked while budget remains (:data:`RESPAWNS_PER_WORKER`
per worker). Holding one cell at a time, a worker's death is charged to
the cell that caused it and to no other. A charged cell runs next at
the following attempt number, so its attempts come in the order a
serial run makes them; after the last it is quarantined into
``failures``, or with ``failures=None`` its error is raised
(:func:`_cell_error`). :class:`~repro.errors.FabricError` is raised as
soon as cells are open and no worker is alive.
"""

from __future__ import annotations

import builtins
import multiprocessing
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Deque, Dict, List, Optional, Sequence

from repro import errors
from repro.errors import CELL_FAILURES, FabricError
from repro.faults import fault_hook, install_from
from repro.resilience import RetryPolicy
from repro.settings import Settings
from repro.sim.runner import Cell, ProgressCallback, SimulationRunner
from repro.spec import SchemeSpec

#: Workers are forked: a child inherits the runner, its stores and its
#: traces. No module of the package starts a thread, so forking is safe.
_FORK = multiprocessing.get_context("fork")

#: Re-forks allowed per worker over a coordinator's life.
RESPAWNS_PER_WORKER = 4

#: The longest single wait: ``poll()`` takes at most 2**31 - 1 ms, so a
#: longer cell timeout is waited out in slices.
_LONGEST_WAIT = 86_400.0

#: The counters :meth:`FabricCoordinator.stats` reports.
#: ``stolen``, ``rpc_timeouts`` and ``reconnects`` are always 0; the frozen
#: perf harness reads them (ROADMAP 3(b) drops them).
COUNTERS = (
    "workers_joined", "dispatched", "completed", "stolen", "errors", "dead",
    "timeouts", "reclaimed", "respawned", "rpc_timeouts", "reconnects",
)


def _cell_error(task: dict, error: str) -> Exception:
    """A quarantined cell's last reported ``"<type name>: <message>"`` error.

    A type among :data:`~repro.errors.CELL_FAILURES` is rebuilt, so a
    caller catches what the serial path raises; anything else becomes a
    :class:`~repro.errors.FabricError`.
    """
    name, _, text = error.partition(": ")
    where = f"cell {task['label']}/{task['bench']} failed {task['attempt']} attempt(s)"
    kind = getattr(errors, name, None) or getattr(builtins, name, None)
    try:
        if isinstance(kind, type) and issubclass(kind, CELL_FAILURES):
            return kind(f"{where}: {text}")
    except TypeError:  # it needs more than a message
        pass
    return FabricError(f"{where}: {error}")


def _serve(conn: Connection, runner: SimulationRunner) -> None:
    """A worker's loop: one task in, ``(result, None)`` or ``(None, "Type:
    message")`` out, until ``None`` or end-of-file. Each task passes the
    ``fabric.worker`` fault site (``label/bench/attempt``) first.
    """
    runners = {runner.misses: runner}  # one per miss budget (bench-grid sweeps)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        misses, attempt = task["misses"], task["attempt"]
        try:
            fault_hook("fabric.worker", f"{task['label']}/{task['bench']}/{attempt}")
            if misses not in runners:
                runners[misses] = runner.derive(misses_per_benchmark=misses)
            spec = None if task["spec"] is None else SchemeSpec.from_dict(task["spec"])
            cell = Cell(task["id"], task["label"], task["bench"], spec)
            reply = (runners[misses].run_cell(cell, attempt), None)
        except CELL_FAILURES as exc:
            reply = (None, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:  # the coordinator has closed: the result is stored
            return


def _work(conn: Connection, inherited: List[Connection], runner: SimulationRunner) -> None:
    """A forked worker's body: it closes the coordinator's ends it inherited,
    so a pipe the coordinator closes reaches its worker as end-of-file."""
    for end in inherited:
        end.close()
    install_from(Settings.from_env())
    _serve(conn, runner)


class _Worker:
    """One forked worker: its process, our end of its pipe, the task it runs."""

    def __init__(self, index: int, conn: Connection, proc) -> None:
        self.index = index
        self.conn = conn
        self.proc = proc
        self.alive = True
        self.task: Optional[dict] = None
        self.started = 0.0  # when it was sent its task


class FabricCoordinator:
    """Forks workers, hands each one cell at a time, replaces the dead.

    Its workers replay with ``runner`` itself, inherited at fork with its
    own trace and result stores: a cell a worker finishes is in the
    caller's result store, if there is one, and its result always comes
    back over the pipe.
    """

    def __init__(self, runner: SimulationRunner, *, spawn: int = 0):
        self.runner = runner
        self.spawn = spawn
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._respawn_budget = spawn * RESPAWNS_PER_WORKER
        self._workers: List[_Worker] = []  # every worker forked, by index
        # execute()-scoped state.
        self._queue: Deque[dict] = deque()
        self._retry = RetryPolicy()
        self._failures: Optional[List[dict]] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Fork the workers."""
        for _ in range(self.spawn):
            self._spawn_worker()

    def close(self) -> None:
        """Tell every live worker to exit, then reap them all.

        An idle worker exits at once; one still running a cell (a call
        ended by an exception) finishes and stores it first, within the
        time a cell is allowed (5 s without a cell timeout), or is killed.
        """
        for worker in self._live():
            worker.alive = False
            try:
                worker.conn.send(None)
            except OSError:
                pass
            worker.conn.close()
        deadline = time.monotonic() + min(5.0, self._retry.timeout or 5.0)
        for worker in self._workers:
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.exitcode is None:
                worker.proc.kill()
                worker.proc.join()

    def __enter__(self) -> "FabricCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters and the live worker count."""
        out: Dict[str, object] = dict(self.counters)
        out["workers_live"] = len(self._live())
        return out

    def _live(self) -> List[_Worker]:
        return [worker for worker in self._workers if worker.alive]

    def _spawn_worker(self) -> None:
        """Fork one worker on a pipe of its own, under the next index."""
        index = len(self._workers)
        ours, theirs = _FORK.Pipe()
        inherited = [worker.conn for worker in self._live()] + [ours]
        proc = _FORK.Process(
            target=_work, args=(theirs, inherited, self.runner), daemon=True,
            name=f"fabric-worker-{index}",
        )
        proc.start()
        theirs.close()
        self._workers.append(_Worker(index, ours, proc))
        self.counters["workers_joined"] += 1

    # -- the loop ----------------------------------------------------------------

    def execute(
        self,
        tasks: List[dict],
        *,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Run every task to completion (or quarantine) on the workers.

        ``retry``/``failures`` follow :meth:`SimulationRunner.execute`,
        with the failure rules of this module. ``progress`` is invoked on
        this thread, once per completed cell, in completion order.
        """
        self._retry = retry or RetryPolicy.from_settings(Settings.from_env())
        self._failures = failures
        self._queue = deque({task["id"]: task for task in tasks}.values())
        for task in self._queue:
            task.setdefault("attempt", 1)
        timeout = self._retry.timeout
        while True:
            for worker in self._live():
                if worker.task is None and self._queue:
                    self._send(worker, self._queue.popleft())
            busy = [worker for worker in self._live() if worker.task is not None]
            if not busy:
                if not self._queue:
                    return
                if not self._live():
                    raise FabricError(
                        f"no live fabric worker ({self.counters['workers_joined']} "
                        f"forked, respawn budget spent) — fix the workers and run "
                        f"the sweep again; the cells already stored are not "
                        f"recomputed"
                    )
                continue
            wait_s = None
            if timeout:
                first = min(worker.started for worker in busy)
                wait_s = min(max(0.0, first + timeout - time.monotonic()), _LONGEST_WAIT)
            ready = wait(
                [worker.conn for worker in busy]
                + [worker.proc.sentinel for worker in self._live()],
                wait_s,
            )
            now = time.monotonic()
            for worker in self._live():
                if worker.task is not None and worker.conn in ready:
                    self._receive(worker, progress)
                elif worker.proc.sentinel in ready:
                    self._down(worker)
                elif timeout and worker.task is not None and now - worker.started > timeout:
                    self.counters["timeouts"] += 1
                    self._down(worker, f"cell running past {timeout:.1f}s")

    def _send(self, worker: _Worker, task: dict) -> None:
        """Hand ``task`` to an idle worker; one that died idle never ran it."""
        try:
            worker.conn.send(task)
        except OSError:
            self._queue.appendleft(task)
            self._down(worker)
            return
        worker.task = task
        worker.started = time.monotonic()
        self.counters["dispatched"] += 1

    def _receive(self, worker: _Worker, progress: Optional[ProgressCallback]) -> None:
        """Read a busy worker's reply; end-of-file is its death."""
        try:
            result, error = worker.conn.recv()
        except (EOFError, OSError):
            self._down(worker)
            return
        task, worker.task = worker.task, None
        if error is not None:
            self.counters["errors"] += 1
            self._failed(task, error)
            return
        self.counters["completed"] += 1
        if progress is not None:
            progress(task["label"], task["bench"], result, False)

    def _down(self, worker: _Worker, reason: Optional[str] = None) -> None:
        """Kill and reap a worker, charge its cell, re-fork it while budget lasts."""
        worker.alive = False
        worker.conn.close()
        worker.proc.kill()  # no effect on one that has exited: it keeps its code
        worker.proc.join()
        reason = reason or f"exited with code {worker.proc.exitcode}"
        self.counters["dead"] += 1
        task, worker.task = worker.task, None
        if self._respawn_budget > 0:
            self._respawn_budget -= 1
            self.counters["respawned"] += 1
            self._spawn_worker()
        if task is not None:
            self.counters["reclaimed"] += 1
            self._failed(task, f"FabricError: worker {worker.index} {reason}")

    def _failed(self, task: dict, error: str) -> None:
        """Charge ``task`` its attempt: run it next at the following one, or quarantine."""
        if task["attempt"] < self._retry.attempts:
            task["attempt"] += 1
            self._queue.appendleft(task)
            return
        if self._failures is None:
            raise _cell_error(task, error)
        self._failures.append({
            "scheme": task["label"], "benchmark": task["bench"],
            "attempts": task["attempt"], "error": error,
        })


class FabricExecutor:
    """Runs :func:`~repro.sim.sweep.run_sweep`'s cells on a started coordinator.

    ``run_sweep(..., executor=FabricExecutor(coordinator))`` runs every
    call on that coordinator, whose workers outlive the calls. Like
    :meth:`SimulationRunner.execute`, cached cells are served (streamed
    with ``cached=True``) without touching the fabric, and the cold ones
    become tasks, baselines included. The workers were forked before
    these calls, so the traces they need are synthesised here first into
    the runner's trace store, which they load (without one, each worker
    synthesises the trace it needs, to the same bytes).
    """

    def __init__(self, coordinator: FabricCoordinator):
        self.coordinator = coordinator

    def execute(
        self,
        runner: SimulationRunner,
        cells: Sequence[Cell],
        *,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
    ) -> None:
        tasks: List[dict] = []
        for cell in cells:
            cached = runner._load_cached(cell)
            if cached is not None:
                if progress is not None:
                    progress(cell.label, cell.bench, cached, True)
                continue
            tasks.append(cell.task(runner.misses))
        # Workers replay with the coordinator's runner (derived per miss
        # budget): synthesise with it, into the store they all read.
        source = self.coordinator.runner
        if source.misses != runner.misses:
            source = source.derive(misses_per_benchmark=runner.misses)
        for name in dict.fromkeys(task["bench"] for task in tasks):
            source.trace(name)
        if tasks:
            self.coordinator.execute(
                tasks, retry=retry, failures=failures, progress=progress
            )

    def stats(self) -> Dict[str, object]:
        return self.coordinator.stats()
