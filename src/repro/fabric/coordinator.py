"""Fabric coordinator: shards sweep cells across workers with work-stealing.

The coordinator owns a listening socket for workers that dial in, the
processes of the local workers it forks (each over a socketpair), and a
set of worker connections, all on the caller's thread: while
:meth:`FabricCoordinator.execute` runs, a ``selectors`` loop cuts the
bytes its sockets have ready into frames and handles each in arrival
order. The loop reads the clock once per turn and hands that ``now`` to
every decision, so a test can drive them through a scripted schedule in
virtual time. Between two calls nothing is read: a worker that dials
then is configured at the next poll, and liveness is judged only while
polling. Report *content* order never depends on any of this: the sweep
assembles cells in grid order, so scheduling is invisible in the output
bytes.

Scheduling model:

- every cold cell becomes a task ``{id, label, bench, spec, misses,
  attempt}`` whose ``id`` is the cell's canonical result digest — the
  same content-address the shared store uses (``spec`` is null for the
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
  and those cells are re-dispatched to the survivors; local workers are
  stopped and respawned while budget remains;
- each attempt number is charged once, at its first failure (an
  ``error`` frame or a death), and the cell is requeued at the next
  number, so workers see a cell's attempts in the order a serial run
  would and fault plans keyed on attempt numbers behave as they do
  serially. A stolen copy still running a charged attempt may finish
  the cell, but its failure charges nothing;
- :class:`~repro.errors.FabricError` is raised only when progress is
  impossible: no live worker for :data:`STARTUP_TIMEOUT`, or every
  worker is gone with no respawn budget. Completed cells are already
  in the runner's result store (when it has one) at that point, so
  running the sweep again continues there.

RPC hardening: every coordinator send is bounded by the
:class:`~repro.resilience.RpcPolicy` timeout (``REPRO_RPC_TIMEOUT``);
an expiry is counted in ``rpc_timeouts`` and handled exactly like a
severed connection. Workers that reconnect after a transient failure
rejoin as fresh sessions under a stable identity (counted in
``reconnects``), and a per-identity :class:`~repro.resilience.CircuitBreaker`
quarantines identities that flap repeatedly — their redials are refused
(``quarantined_workers``) until the breaker cooldown elapses, so one
pathological host cannot keep churning leases. Every trip is counted
(``breaker_trips``); a completed cell fully closes the identity's
breaker again.
"""

from __future__ import annotations

import builtins
import multiprocessing
import selectors
import socket
import sys
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro import errors
from repro.errors import CELL_FAILURES, FabricError
from repro.fabric.protocol import (
    FrameDecoder,
    ProtocolError,
    RpcTimeout,
    send_message,
)
from repro.fabric.store import SharedStore
from repro.fabric.worker import FabricWorker, runner_to_wire
from repro.faults import install_from
from repro.resilience import CircuitBreaker, RetryPolicy, RpcPolicy
from repro.settings import Settings
from repro.sim.metrics import SimResult
from repro.sim.runner import Cell, ProgressCallback, SimulationRunner


#: Local workers are forked: a child inherits the runner and its traces.
_FORK = multiprocessing.get_context("fork")

#: Seconds between a worker's heartbeats (sent in its ``config``); also
#: the longest the loop waits for a frame before judging liveness.
HEARTBEAT_INTERVAL = 0.25
#: Seconds of silence, while polling, after which a worker is dead.
HEARTBEAT_TIMEOUT = 5.0
#: Seconds ``execute()`` waits with no live worker before it gives up.
STARTUP_TIMEOUT = 60.0
#: Most tasks in one lease.
LEASE_CAP = 4
#: Re-forks allowed per local worker over a coordinator's life.
RESPAWNS_PER_WORKER = 4
#: Consecutive failures that quarantine a worker identity...
BREAKER_THRESHOLD = 3
#: ...for this many seconds.
BREAKER_COOLDOWN = 60.0

#: Most bytes read from one socket per loop turn.
_READ_BYTES = 1 << 16

#: The scheduling counters :meth:`FabricCoordinator.stats` reports.
COUNTERS = (
    "workers_joined", "dispatched", "completed", "stolen", "errors", "dead",
    "timeouts", "reclaimed", "respawned", "rpc_timeouts", "reconnects",
    "breaker_trips", "quarantined_workers",
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
    """One worker connection: introduced at ``hello``, alive until hung up."""

    def __init__(self, sock: socket.socket, timeout: Optional[float], proc=None):
        self.sock = sock
        self.timeout = timeout  # the RPC deadline of every send
        self.proc = proc  # the forked process behind a local worker
        self.decoder = FrameDecoder("coordinator")
        self.index: Optional[int] = None
        self.ident = "?"
        self.alive = True
        self.waiting = False  # blocked on recv, owed a lease when work appears
        self.last_seen = 0.0
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
    """Accepts workers, leases cells, reclaims the dead, steals from stragglers."""

    def __init__(
        self,
        runner: SimulationRunner,
        *,
        spawn: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.spawn = spawn
        self.host = host
        self.port = port
        self._respawn_budget = spawn * RESPAWNS_PER_WORKER
        # Attach the runner to the shared store so the wire image ships
        # the store's directories to every worker.
        self.store = SharedStore(runner)
        self.runner = self.store.attach(runner)
        self.address: Optional[Tuple[str, int]] = None
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        settings = Settings.from_env()
        self._rpc = RpcPolicy.from_settings(settings)
        # Per-worker-identity circuit breakers: a worker that keeps
        # flapping (N consecutive failures) is quarantined — its redials
        # are refused until the cooldown elapses. Keyed by the worker's
        # self-assigned ident, which survives reconnects, not by the
        # per-session connection index.
        self._breakers: Dict[str, CircuitBreaker] = {}
        # The listener (data None) and every open connection, from start().
        self._selector: Optional[selectors.BaseSelector] = None
        self._conns: Dict[int, _WorkerConn] = {}  # introduced, by index
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._last_liveness = 0.0
        # execute()-scoped scheduling state.
        self._open: Dict[str, dict] = {}
        self._pending: Deque[str] = deque()
        self._retry = RetryPolicy.from_settings(settings)
        self._failures: Optional[List[dict]] = None
        self._progress: Optional[ProgressCallback] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Listen and fork local workers; returns (host, port). Nothing is read yet."""
        server = socket.create_server((self.host, self.port))
        self.address = server.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(server, selectors.EVENT_READ, None)
        for _ in range(self.spawn):
            self._spawn_worker()
        return self.address

    def close(self) -> None:
        """Shut workers down and release sockets, processes, and the store.

        Every open connection, introduced or not, gets a ``shutdown``
        frame: a worker still running a stolen duplicate finds its late
        ``result`` unsendable or answered by ``shutdown`` and exits 0,
        and one whose ``hello`` was never read is turned away instead of
        configured.
        """
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                if key.data is None:
                    self._selector.unregister(key.fileobj)
                    key.fileobj.close()
                else:
                    self._hang_up(key.data, shutdown_frame=True)
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
        self.store.close()

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
        """JSON-safe scheduling counters + shared-store inventory."""
        out: Dict[str, object] = dict(self.counters)
        out["workers_live"] = self._live()
        out["store"] = self.store.stats()
        return out

    def _live(self) -> int:
        return sum(1 for c in self._conns.values() if c.alive)

    def _watch(self, conn: _WorkerConn) -> None:
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _spawn_worker(self) -> None:
        """Fork one local worker over a socketpair.

        The child inherits this process: its environment, the runner and
        every trace synthesised so far. Our end of the pair is read like
        a dialled-in worker's socket.
        """
        ours, theirs = socket.socketpair()
        proc = _FORK.Process(
            target=self._local_worker, args=(ours, theirs), daemon=True,
            name="fabric-worker",
        )
        proc.start()
        theirs.close()
        self._procs.append(proc)
        self._watch(_WorkerConn(ours, self._rpc.timeout, proc))

    def _local_worker(self, ours: socket.socket, theirs: socket.socket) -> None:
        """A forked local worker's body: serve over ``theirs``, then exit.

        It closes the coordinator's sockets it inherited, so a peer we
        hang up on sees end-of-file, and re-installs the fault plan from
        ``REPRO_FAULTS``, so occurrence counters restart per process.
        """
        ours.close()
        for key in self._selector.get_map().values():
            key.fileobj.close()
        self._selector.close()
        install_from(Settings.from_env())
        sys.exit(FabricWorker.forked(theirs, self.runner).run())

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
                if key.data is None:
                    self._accept(key.fileobj)
                else:
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
        self._last_liveness = now
        self._kick_waiting(now)

    def _accept(self, server: socket.socket) -> None:
        try:
            sock, _addr = server.accept()
        except OSError:
            return
        self._watch(_WorkerConn(sock, self._rpc.timeout))

    def _handle(self, conn: _WorkerConn, message: Optional[dict], now: float) -> None:
        """One frame from ``conn`` (None: it hung up), arriving at ``now``."""
        if not conn.alive:
            return  # late frames from a worker we already hung up on
        if conn.index is None:
            if message is not None and message.get("type") == "hello":
                self._hello(conn, message, now)
            else:
                self._hang_up(conn, shutdown_frame=False)
            return
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
            breaker = self._breakers.get(conn.ident)
            if breaker is not None:
                breaker.record_success()
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

    def _hello(self, conn: _WorkerConn, hello: dict, now: float) -> None:
        """Configure a new session, or refuse a quarantined identity."""
        ident = str(hello.get("ident") or hello.get("pid") or "?")
        breaker = self._breakers.get(ident)
        if breaker is not None and not breaker.allow(now):
            # A flapping identity inside its cooldown: refuse the session
            # so it stops churning leases. The worker sees a non-config
            # frame and exits cleanly; a redial after the cooldown gets a
            # half-open probe.
            self.counters["quarantined_workers"] += 1
            self._hang_up(conn, shutdown_frame=True)
            return
        conn.index = len(self._conns)
        conn.ident = ident
        conn.last_seen = now
        self._conns[conn.index] = conn
        config = {
            "type": "config",
            "index": conn.index,
            "runner": runner_to_wire(self.runner),
            "heartbeat": HEARTBEAT_INTERVAL,
        }
        if self._send(conn, config, now):
            self.counters["workers_joined"] += 1
            if int(hello.get("session", 1) or 1) > 1:
                self.counters["reconnects"] += 1

    def _send(self, conn: _WorkerConn, message: dict, now: float) -> bool:
        """Send within the RPC deadline; a failed send is the worker's death."""
        try:
            conn.send(message)
            return True
        except RpcTimeout:
            self.counters["rpc_timeouts"] += 1
            self._on_worker_down(conn, f"{message['type']} send timed out", now)
        except ProtocolError:
            self._on_worker_down(conn, f"{message['type']} send failed", now)
        return False

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
            conn.proc.terminate()  # a forked worker cannot redial: stop it
        self.counters["dead"] += 1
        breaker = self._breakers.setdefault(
            conn.ident, CircuitBreaker(BREAKER_THRESHOLD, BREAKER_COOLDOWN)
        )
        if breaker.record_failure(now):
            self.counters["breaker_trips"] += 1
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
        if (
            self.spawn > 0
            and self._live() < self.spawn
            and self._respawn_budget > 0
            and self._open
        ):
            self._respawn_budget -= 1
            self.counters["respawned"] += 1
            self._spawn_worker()

    def _check_liveness(self, now: float) -> None:
        """Time out silent or stuck workers; fail fast when the fabric is empty.

        A worker whose current cell has run longer than the retry
        policy's ``timeout`` (``REPRO_CELL_TIMEOUT``) is handled like a
        silent one: reclaimed, one attempt charged, respawned. A worker is
        running a cell from a lease until it asks for work again, so one
        that has not yet been leased anything is never stuck.
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
        if not self._open:
            return
        if self._live():
            self._last_liveness = now
        elif now - self._last_liveness > STARTUP_TIMEOUT:
            raise FabricError(
                f"no live fabric worker for {STARTUP_TIMEOUT:.1f}s "
                f"({self.counters['workers_joined']} ever joined, respawn "
                f"budget {self._respawn_budget}) — fix the workers and run "
                f"the sweep again; the cells already stored are not recomputed"
            )


class FabricExecutor:
    """Adapter giving :func:`~repro.sim.sweep.run_sweep` a fabric backend.

    ``FabricExecutor(coordinator)`` runs every call on that started
    coordinator, attached workers included. It mirrors
    :meth:`SimulationRunner.execute`: cached cells are served (and
    streamed through ``progress`` with ``cached=True``) without touching
    the fabric; only cold cells become lease tasks, baselines included.
    The traces they need are synthesised here first, once, into the
    shared trace store, which workers load instead of each synthesising
    its own. Content-addressed ids make re-dispatch, stealing, and resume
    all idempotent.

    ``FabricExecutor(workers=N)`` is ``runner.execute(cells, workers=N)``
    itself, whose calls each fork their own local workers once the
    traces exist; :meth:`stats` sums those calls' coordinator counters
    (None while no call has needed a coordinator).
    """

    def __init__(
        self, coordinator: Optional[FabricCoordinator] = None, *, workers: int = 0
    ):
        self.coordinator = coordinator
        self.workers = workers
        self._summed: Optional[Dict] = None

    def execute(
        self,
        runner: SimulationRunner,
        cells: Sequence[Cell],
        *,
        progress: Optional[ProgressCallback] = None,
        retry: Optional[RetryPolicy] = None,
        failures: Optional[List[dict]] = None,
    ) -> None:
        if self.coordinator is None:
            runner.execute(
                cells, workers=self.workers, progress=progress, retry=retry,
                failures=failures,
            )
            stats, total = runner.fabric_stats, self._summed
            if stats is not None:  # counters add up; the rest is the latest
                self._summed = stats if total is None else {
                    key: total[key] + value if key in COUNTERS else value
                    for key, value in stats.items()
                }
            return
        tasks: List[dict] = []
        for cell in cells:
            cached = runner._load_cached(cell)
            if cached is not None:
                if progress is not None:
                    progress(cell.label, cell.bench, cached, True)
                continue
            tasks.append(
                {
                    "id": cell.key,
                    "label": cell.label,
                    "bench": cell.bench,
                    "spec": cell.spec.to_dict() if cell.spec is not None else None,
                    "misses": runner.misses,
                }
            )
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

    def stats(self) -> Optional[Dict[str, object]]:
        return self.coordinator.stats() if self.coordinator else self._summed
