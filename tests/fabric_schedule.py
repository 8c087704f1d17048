"""Virtual time for the fabric coordinator: scripted frames, scripted clock.

A :class:`Schedule` holds a :class:`~repro.fabric.FabricCoordinator`
that is never started. Its connections are :class:`FakeConn` objects
that record the frames the coordinator sends them; a "fork" registers
one the way ``_spawn_worker`` registers a forked child, respawns
included. The schedule feeds frames and clock readings into the same
``_handle`` / ``_check_liveness`` code the coordinator's loop calls. No socket, no
process, no thread and no sleep: a schedule that spans minutes of
heartbeats runs in microseconds, and runs the same way every time.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.fabric.coordinator import FabricCoordinator, _WorkerConn
from repro.fabric.worker import HEARTBEAT_INTERVAL
from repro.resilience import RetryPolicy
from repro.sim.runner import SimulationRunner


class FakeConn(_WorkerConn):
    """A worker connection that records what the coordinator sends it."""

    def __init__(self, log: List[dict], index: int, now: float):
        super().__init__(sock=None, timeout=None, index=index, now=now)
        self.log = log  # every frame sent to any connection, in order
        self.sent: List[dict] = []  # every frame, as the worker would read it
        self.leased_while_down: List[dict] = []
        self.todo: List[dict] = []  # leased tasks it has not answered yet
        self.closed = False

    def send(self, message: dict) -> None:
        frame = json.loads(json.dumps(message))  # what the wire would carry
        self.sent.append(frame)
        self.log.append(frame)
        if frame["type"] == "lease":
            if not self.alive:
                self.leased_while_down.append(frame)
            self.todo.extend(frame["tasks"])

    def close(self) -> None:
        self.closed = True

    def types(self) -> List[str]:
        return [frame["type"] for frame in self.sent]


def task(name: str, bench: str = "gob") -> dict:
    """A lease task for cell ``name``/``bench`` (its id is ``name/bench``)."""
    return {"id": f"{name}/{bench}", "label": name, "bench": bench,
            "spec": None, "misses": 40}


def result_payload(task: dict) -> dict:
    return {
        "benchmark": task["bench"], "scheme": task["label"], "cycles": 1.0,
        "instructions": 1, "llc_misses": 1, "oram_accesses": 1,
        "tree_accesses": 1,
    }


class Schedule:
    """One unstarted coordinator, driven frame by frame at ``self.now``.

    ``respawns`` is its respawn budget: a worker that dies is replaced by
    a new :class:`FakeConn` in :attr:`forked`, which asks for work only
    when the script says so (:meth:`adopt`), as a child would on a later
    turn.
    """

    def __init__(self, respawns: int = 0):
        runner = SimulationRunner(
            misses_per_benchmark=40, cache_dir=None, result_cache_dir=None
        )
        self.coordinator = FabricCoordinator(runner)
        self.coordinator._respawn_budget = respawns
        self.coordinator._spawn_worker = self._respawn  # no process: a FakeConn
        self.now = 0.0
        self.completed: List[str] = []  # task ids, in progress-callback order
        self.failures: List[dict] = []
        self.conns: List[FakeConn] = []
        self.forked: List[FakeConn] = []  # respawned, not yet asking for work
        self.log: List[dict] = []

    def __enter__(self) -> "Schedule":
        return self

    def __exit__(self, *exc) -> None:
        self.coordinator.store.close()

    @property
    def counters(self) -> Dict[str, int]:
        return self.coordinator.counters

    def begin(self, tasks: List[dict], retry: Optional[RetryPolicy] = None) -> None:
        """What ``execute(tasks)`` does before its first poll, at ``now``."""
        self.coordinator._begin(
            tasks, retry or RetryPolicy(), self.failures, self._progress, self.now
        )

    def _progress(self, label, bench, result, cached) -> None:
        self.completed.append(f"{label}/{bench}")

    @property
    def done(self) -> bool:
        return not self.coordinator._open

    # -- frames a worker sends ----------------------------------------------------

    def feed(self, conn: FakeConn, message: Optional[dict]) -> None:
        """One frame from ``conn`` (None: end-of-file) arriving at ``now``."""
        self.coordinator._handle(conn, message, self.now)

    def _fork(self, now: float) -> FakeConn:
        conn = FakeConn(self.log, len(self.coordinator._conns), now)
        self.conns.append(conn)
        self.coordinator._join(conn)
        return conn

    def _respawn(self, now: float) -> None:
        self.forked.append(self._fork(now))

    def join(self, need: bool = True) -> FakeConn:
        """A worker is forked and (by default) asks for work."""
        conn = self._fork(self.now)
        if need:
            self.feed(conn, {"type": "need"})
        return conn

    def adopt(self) -> List[FakeConn]:
        """Every respawned worker asks for work; returns them."""
        adopted, self.forked = self.forked, []
        for conn in adopted:
            self.feed(conn, {"type": "need"})
        return adopted

    def finish(
        self, conn: FakeConn, error: Optional[str] = None, need: bool = True
    ) -> dict:
        """``conn`` answers its oldest leased task; asks for work once idle."""
        job = conn.todo.pop(0)
        if error is None:
            self.feed(conn, {"type": "result", "id": job["id"],
                             "result": result_payload(job)})
        else:
            self.feed(conn, {"type": "error", "id": job["id"], "error": error})
        if need and not conn.todo:
            self.feed(conn, {"type": "need"})
        return job

    def tick(self, seconds: float, *beating: FakeConn) -> None:
        """Advance the clock, heartbeating ``beating`` all along; then poll."""
        end = self.now + seconds
        while self.now < end:
            self.now = min(end, self.now + HEARTBEAT_INTERVAL)
            for conn in beating:
                self.feed(conn, {"type": "heartbeat"})
            self.coordinator._check_liveness(self.now)
