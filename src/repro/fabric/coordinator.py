"""Fabric coordinator: shards sweep cells across forked workers with work-stealing.

The coordinator forks its workers, each over a socketpair, and owns
their processes and connections, all on the caller's thread: while
:meth:`FabricCoordinator.execute` runs, a ``selectors`` loop cuts the
bytes its sockets have ready into frames and handles each in arrival
order. The loop reads the clock once per turn and hands that ``now`` to
every decision, so a test can drive them through a scripted schedule in
virtual time. Between two calls nothing is read, and liveness is judged
only while polling. Report *content* order never depends on any of
this: the sweep assembles cells in grid order, so scheduling is
invisible in the output bytes.

A worker is introduced when it is forked: :meth:`_spawn_worker` gives it
the next index, registers its connection and passes the index to the
child, which inherits the runner (and every trace synthesised so far)
and asks for work at once. There is no handshake.

Scheduling model:

- every cold cell becomes a task ``{id, label, bench, spec, misses,
  attempt}`` whose ``id`` is the cell's canonical result digest — its
  address in the runner's result store (``spec`` is null for the
  insecure baseline);
- idle workers pull (``need``) and receive a lease of up to
  :data:`LEASE_CAP` tasks, sized down as the queue drains so the tail
  spreads across workers;
- a worker that goes idle while the queue is empty *steals* a task
  already leased to the most-loaded peer: duplicate execution is safe
  (results are deterministic and content-addressed; the first ``result``
  per id wins, and same-key store writes leave one entry) and stragglers no
  longer serialize the tail;
- a worker that dies (connection drop, heartbeat silence beyond
  :data:`HEARTBEAT_TIMEOUT`, or a leased cell running past the retry
  policy's ``timeout``) fails the attempt of every open cell it held,
  and those cells are re-dispatched to the survivors; the worker is
  terminated and re-forked while budget remains
  (:data:`RESPAWNS_PER_WORKER`);
- each attempt number is charged once, at its first failure (an
  ``error`` frame or a death), and the cell is requeued at the next
  number, so workers see a cell's attempts in the order a serial run
  would and fault plans keyed on attempt numbers behave as they do
  serially. A stolen copy still running a charged attempt may finish
  the cell, but its failure charges nothing;
- :class:`~repro.errors.FabricError` is raised only when progress is
  impossible: the first turn that finds no live worker, which means
  every worker is gone and the respawn budget is spent. Completed cells
  are already in the runner's result store (when it has one) at that
  point, so running the sweep again continues there.

RPC deadline: every coordinator send is bounded by ``REPRO_RPC_TIMEOUT``;
an expiry is counted in ``rpc_timeouts`` and handled exactly like a
severed connection.
"""

from __future__ import annotations

import builtins
import multiprocessing
import selectors
import socket
import sys
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro import errors
from repro.errors import CELL_FAILURES, FabricError
from repro.fabric.protocol import (
    FrameDecoder,
    ProtocolError,
    RpcTimeout,
    send_message,
)
from repro.fabric.worker import HEARTBEAT_INTERVAL, FabricWorker
from repro.faults import install_from
from repro.resilience import RetryPolicy
from repro.settings import Settings
from repro.sim.metrics import SimResult
from repro.sim.runner import Cell, ProgressCallback, SimulationRunner


#: Workers are forked: a child inherits the runner, its stores and its traces.
_FORK = multiprocessing.get_context("fork")

# HEARTBEAT_INTERVAL (the worker's) is also the longest the loop waits
# for a frame before judging liveness.
#: Seconds of silence, while polling, after which a worker is dead.
HEARTBEAT_TIMEOUT = 5.0
#: Most tasks in one lease.
LEASE_CAP = 4
#: Re-forks allowed per worker over a coordinator's life.
RESPAWNS_PER_WORKER = 4

#: Most bytes read from one socket per loop turn.
_READ_BYTES = 1 << 16

#: The scheduling counters :meth:`FabricCoordinator.stats` reports.
COUNTERS = (
    "workers_joined", "dispatched", "completed", "stolen", "errors", "dead",
    "timeouts", "reclaimed", "respawned", "rpc_timeouts",
    "reconnects",  # always 0; the frozen perf harness reads it (ROADMAP 3(b) drops it)
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


class _WorkerConn:
    """One forked worker's connection: introduced at fork, alive until hung up."""

    def __init__(
        self, sock: socket.socket, timeout: Optional[float], index: int,
        now: float, proc=None,
    ):
        self.sock = sock
        self.timeout = timeout  # the RPC deadline of every send
        self.index = index
        self.proc = proc  # the forked process behind it
        self.decoder = FrameDecoder("coordinator")
        self.alive = True
        self.waiting = False  # blocked on recv, owed a lease when work appears
        self.last_seen = now
        # Its last lease, result or error; None from its next "need" on.
        self.busy_since: Optional[float] = None
        self.leases: Dict[str, int] = {}  # task id -> the attempt it runs

    def send(self, message: dict) -> None:
        send_message(self.sock, message, "coordinator", timeout=self.timeout)

    def receive(self) -> List[Optional[dict]]:
        """The frames its ready bytes complete; a final None: it is gone."""
        messages: List[Optional[dict]] = []
        try:
            data = self.sock.recv(_READ_BYTES)
            messages.extend(self.decoder.feed(data))
        except (OSError, ProtocolError):
            data = b""
        if not data:
            messages.append(None)
        return messages

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class FabricCoordinator:
    """Forks workers, leases cells, reclaims the dead, steals from stragglers.

    Its workers replay with ``runner`` itself, inherited at fork with its
    own trace and result stores (none when it has none): a cell a worker
    finishes is in the caller's result store, if there is one, and its
    result always travels back in a ``result`` frame.
    """

    def __init__(self, runner: SimulationRunner, *, spawn: int = 0):
        self.spawn = spawn
        self._respawn_budget = spawn * RESPAWNS_PER_WORKER
        self.runner = runner
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        settings = Settings.from_env()
        self._rpc_timeout = settings.rpc_timeout
        # Every open connection, from start().
        self._selector: Optional[selectors.BaseSelector] = None
        self._conns: Dict[int, _WorkerConn] = {}  # every worker forked, by index
        self._procs: List[multiprocessing.process.BaseProcess] = []
        # execute()-scoped scheduling state.
        self._open: Dict[str, dict] = {}
        self._pending: Deque[str] = deque()
        self._retry = RetryPolicy.from_settings(settings)
        self._failures: Optional[List[dict]] = None
        self._progress: Optional[ProgressCallback] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Fork the workers. Nothing is read yet."""
        self._selector = selectors.DefaultSelector()
        for _ in range(self.spawn):
            self._spawn_worker(0.0)  # execute() starts every clock again

    def close(self) -> None:
        """Shut workers down and release their sockets and processes.

        Every live connection gets a ``shutdown`` frame: a worker still
        running a stolen duplicate finds its late ``result`` unsendable
        or answered by ``shutdown`` and exits 0.
        """
        if self._selector is not None:
            for conn in self._conns.values():
                if conn.alive:
                    self._hang_up(conn, shutdown_frame=True)
            self._selector.close()
            self._selector = None
        # A worker still running a cell gets, all told, the time a cell is
        # allowed (5 s without a cell timeout) before it is terminated.
        deadline = time.monotonic() + min(5.0, self._retry.timeout or 5.0)
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.terminate()
                proc.join(timeout=2)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def _hang_up(self, conn: _WorkerConn, shutdown_frame: bool) -> None:
        """Close a connection for good, first telling its worker to exit if asked."""
        conn.alive = False
        conn.waiting = False
        if shutdown_frame:
            try:
                conn.send({"type": "shutdown"})
            except ProtocolError:
                pass
        if self._selector is not None:
            self._selector.unregister(conn.sock)
        conn.close()

    def __enter__(self) -> "FabricCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """JSON-safe scheduling counters and the live worker count."""
        out: Dict[str, object] = dict(self.counters)
        out["workers_live"] = self._live()
        return out

    def _live(self) -> int:
        return sum(1 for c in self._conns.values() if c.alive)

    def _spawn_worker(self, now: float) -> None:
        """Fork one worker over a socketpair and introduce it at ``now``.

        The child inherits this process: its environment, the runner and
        every trace synthesised so far. It gets the next index as an
        argument; our end of the pair is its connection.
        """
        index = len(self._conns)
        ours, theirs = socket.socketpair()
        proc = _FORK.Process(
            target=self._worker_main, args=(ours, theirs, index), daemon=True,
            name=f"fabric-worker-{index}",
        )
        proc.start()
        theirs.close()
        self._procs.append(proc)
        self._join(_WorkerConn(ours, self._rpc_timeout, index, now, proc))

    def _join(self, conn: _WorkerConn) -> None:
        """Register a new worker's connection; it is leased to from its ``need``."""
        self._conns[conn.index] = conn
        self.counters["workers_joined"] += 1
        if self._selector is not None:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _worker_main(
        self, ours: socket.socket, theirs: socket.socket, index: int
    ) -> None:
        """A forked worker's body: serve over ``theirs``, then exit.

        It closes the coordinator's sockets it inherited, so a peer we
        hang up on sees end-of-file, and re-installs the fault plan from
        ``REPRO_FAULTS``, so occurrence counters restart per process.
        """
        ours.close()
        for key in self._selector.get_map().values():
            key.fileobj.close()
        self._selector.close()
        install_from(Settings.from_env())
        sys.exit(FabricWorker(theirs, self.runner, index).run())

    # -- the loop: one thread, one clock read per turn ---------------------------

    def execute(
        self,
        tasks: List[dict],
        *,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Drive every task to completion (or quarantine) across the fabric.

        ``retry``/``failures`` follow :meth:`SimulationRunner.execute`
        semantics: a cell error (or a death-reclaim) charges one attempt;
        a cell that exhausts the budget is quarantined into ``failures``
        (or, with ``failures=None``, raises the error its worker reported,
        rebuilt by :func:`_cell_error`). ``progress`` is invoked on
        this thread, once per completed cell, in completion order.
        """
        ready = None  # the first turn reads nothing: it loads the call
        while True:
            now = time.monotonic()
            if ready is None:
                self._begin(tasks, retry, failures, progress, now)
            for key, _ in ready or ():
                for message in key.data.receive():
                    self._handle(key.data, message, now)
            if not self._open:
                return
            self._check_liveness(now)
            ready = self._selector.select(HEARTBEAT_INTERVAL)

    def _begin(
        self,
        tasks: List[dict],
        retry: Optional[RetryPolicy],
        failures: Optional[List[dict]],
        progress: Optional[ProgressCallback],
        now: float,
    ) -> None:
        """Load one call, start its clocks at ``now`` and lease to the idle.

        Frames that queued since the last call were not read, but they
        were not missing either: no worker is judged on that gap.
        """
        self._retry = retry or RetryPolicy.from_settings(Settings.from_env())
        self._failures = failures
        self._progress = progress
        self._open = {}
        self._pending = deque()
        for task in tasks:
            task.setdefault("attempt", 1)
            if task["id"] in self._open:
                continue
            self._open[task["id"]] = task
            self._pending.append(task["id"])
        for conn in self._conns.values():
            if conn.alive:
                conn.last_seen = now
                if conn.busy_since is not None:
                    conn.busy_since = now
        self._kick_waiting(now)

    def _handle(self, conn: _WorkerConn, message: Optional[dict], now: float) -> None:
        """One frame from ``conn`` (None: it hung up), arriving at ``now``."""
        if not conn.alive:
            return  # late frames from a worker we already hung up on
        if message is None:
            self._on_worker_down(conn, "connection lost", now)
            return
        conn.last_seen = now
        kind = message.get("type")
        if kind == "need":
            conn.waiting = True
            conn.busy_since = None
            self._dispatch(conn, now)
        elif kind == "result":
            conn.busy_since = now
            task = self._open.pop(message["id"], None)
            self._drop_task(message["id"])
            if task is not None:
                self.counters["completed"] += 1
                if self._progress is not None:
                    result = SimResult(**message["result"])
                    self._progress(task["label"], task["bench"], result, False)
        elif kind == "error":
            conn.busy_since = now
            self.counters["errors"] += 1
            attempt = conn.leases.pop(message["id"], None)
            task = self._open.get(message["id"])
            if task is not None and attempt is not None:
                self._failed(task, attempt, message["error"], now)

    def _send(self, conn: _WorkerConn, message: dict, now: float) -> None:
        """Send within the RPC deadline; a failed send is the worker's death."""
        try:
            conn.send(message)
        except RpcTimeout:
            self.counters["rpc_timeouts"] += 1
            self._on_worker_down(conn, f"{message['type']} send timed out", now)
        except ProtocolError:
            self._on_worker_down(conn, f"{message['type']} send failed", now)

    def _dispatch(self, conn: _WorkerConn, now: float) -> None:
        """Lease pending work — or steal from a straggler — to an idle worker."""
        if not conn.alive or not conn.waiting:
            return
        live = max(1, self._live())
        tasks: List[dict] = []
        if self._pending:
            chunk = min(LEASE_CAP, max(1, len(self._pending) // (2 * live)))
            for _ in range(chunk):
                task_id = self._pending.popleft()
                task = self._open.get(task_id)
                if task is not None:
                    tasks.append(task)
        else:
            stolen = self._steal_for(conn)
            if stolen is not None:
                tasks.append(stolen)
                self.counters["stolen"] += 1
        if not tasks:
            return  # stays waiting; requeues and new work will kick it
        for task in tasks:
            conn.leases[task["id"]] = task["attempt"]
        conn.waiting = False
        conn.busy_since = now
        self.counters["dispatched"] += len(tasks)
        self._send(conn, {"type": "lease", "tasks": tasks}, now)

    def _steal_for(self, thief: _WorkerConn) -> Optional[dict]:
        """One stealable task from the most-loaded peer (None if nothing)."""
        victims = sorted(
            (
                c
                for c in self._conns.values()
                if c.alive and c is not thief and c.leases
            ),
            key=lambda c: len(c.leases),
            reverse=True,
        )
        for victim in victims:
            for task_id in victim.leases:
                if task_id in self._open and task_id not in thief.leases:
                    return self._open[task_id]
        return None

    def _running(self, task: dict) -> bool:
        """Whether a live worker holds a lease on the task's current attempt."""
        return any(
            c.alive and c.leases.get(task["id"]) == task["attempt"]
            for c in self._conns.values()
        )

    def _drop_task(self, task_id: str) -> None:
        """Forget a resolved task everywhere it might still be referenced."""
        for c in self._conns.values():
            c.leases.pop(task_id, None)
        if task_id in self._pending:
            self._pending.remove(task_id)

    def _failed(self, task: dict, attempt: int, error: str, now: float) -> None:
        """Attempt ``attempt`` of ``task`` failed: charge it, requeue or quarantine.

        Only the first failure of the current attempt is charged; a later
        one (a stolen copy of an attempt already charged) only makes sure
        the current attempt is queued or running somewhere.
        """
        if attempt == task["attempt"]:
            if attempt >= self._retry.attempts:
                self._open.pop(task["id"], None)
                self._drop_task(task["id"])
                if self._failures is None:
                    raise _cell_error(task, error)
                self._failures.append({
                    "scheme": task["label"], "benchmark": task["bench"],
                    "attempts": attempt, "error": error,
                })
                return
            task["attempt"] = attempt + 1
        if task["id"] not in self._pending and not self._running(task):
            self._pending.append(task["id"])
            self._kick_waiting(now)

    def _kick_waiting(self, now: float) -> None:
        """Offer refilled work to every worker parked in the waiting state."""
        for conn in [c for c in self._conns.values() if c.alive and c.waiting]:
            if not self._pending:
                break
            self._dispatch(conn, now)

    def _on_worker_down(self, conn: _WorkerConn, reason: str, now: float) -> None:
        """Mark a worker dead, fail the attempts it held, maybe respawn."""
        if not conn.alive:
            return
        self._hang_up(conn, shutdown_frame=False)
        if conn.proc is not None:
            conn.proc.terminate()  # it cannot come back on this pair: stop it
        self.counters["dead"] += 1
        reclaim = list(conn.leases.items())
        conn.leases.clear()
        for task_id, attempt in reclaim:
            task = self._open.get(task_id)
            if task is None:
                continue  # resolved
            self.counters["reclaimed"] += 1
            # Charged even while a stolen copy runs the same attempt: else
            # each respawned worker steals a stalling attempt back.
            self._failed(
                task, attempt, f"FabricError: worker {conn.index} {reason}", now
            )
        if self._respawn_budget > 0:
            self._respawn_budget -= 1
            self.counters["respawned"] += 1
            self._spawn_worker(now)

    def _check_liveness(self, now: float) -> None:
        """Time out silent or stuck workers; fail at once when none is left.

        A worker whose current cell has run longer than the retry
        policy's ``timeout`` (``REPRO_CELL_TIMEOUT``) is handled like a
        silent one: reclaimed, one attempt charged, respawned. A worker is
        running a cell from a lease until it asks for work again, so one
        that has not yet been leased anything is never stuck. A dead
        worker is re-forked while budget remains, so a turn that finds
        none alive has nothing to wait for.
        """
        cell_timeout = self._retry.timeout
        for conn in list(self._conns.values()):
            silent = now - conn.last_seen > HEARTBEAT_TIMEOUT
            stuck = bool(cell_timeout) and conn.busy_since is not None and (
                now - conn.busy_since > cell_timeout
            )
            if conn.alive and (silent or stuck):
                self.counters["timeouts"] += 1
                self._on_worker_down(conn, (
                    f"heartbeat silent for {HEARTBEAT_TIMEOUT:.1f}s"
                    if silent else f"cell running past {cell_timeout:.1f}s"
                ), now)
        if self._open and not self._live():
            raise FabricError(
                f"no live fabric worker ({self.counters['workers_joined']} "
                f"forked, respawn budget spent) — fix the workers and run "
                f"the sweep again; the cells already stored are not recomputed"
            )


class FabricExecutor:
    """Runs :func:`~repro.sim.sweep.run_sweep`'s cells on a started coordinator.

    ``run_sweep(..., executor=FabricExecutor(coordinator))`` runs every
    call on that coordinator, whose workers then outlive the calls. It
    mirrors :meth:`SimulationRunner.execute`: cached cells are served (and
    streamed through ``progress`` with ``cached=True``) without touching
    the fabric; only cold cells become lease tasks, baselines included.
    The workers were forked before these calls, so the traces they need
    are synthesised here first, once, into the runner's trace store,
    which they load instead of each synthesising its own (a runner
    without one leaves each worker to synthesise the trace it needs, to
    the same bytes). Content-addressed ids make re-dispatch, stealing,
    and resume all idempotent. ``runner.execute(cells, workers=N)`` is
    the other way to use the fabric: one coordinator per call.
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
