"""Fabric lockstep: distributed sweeps equal the local golden, byte for byte.

The acceptance property of the sweep fabric mirrors the fault plane's:
for every scheduling event the coordinator can produce — work stealing,
worker connection loss, heartbeat silence, forked-worker death and
respawn, Ctrl-C + re-run across topologies — the completed report is
bit-identical to a fault-free local run at the same seed. Only the
``resilience`` accounting block (which carries the fabric counters) may
differ. Protocol framing gets unit coverage here too, since every
distributed guarantee rests on it.

Schedules that depend on time — stealing from a straggler, heartbeat
silence, the cell timeout, an empty fabric, attempt accounting — run in
virtual time through ``fabric_schedule.Schedule``: scripted frames and
clock values fed to the coordinator's decision code, with no socket,
process or sleep. Real forked workers run the lockstep and smoke tests.
"""

import ast
import contextlib
import inspect
import json
import re
import socket
import struct
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.errors import FabricError, SweepInterrupted
from repro.fabric import (
    FabricCoordinator,
    FabricExecutor,
    FabricWorker,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.fabric.coordinator import HEARTBEAT_TIMEOUT
from repro.fabric.protocol import MAX_MESSAGE_BYTES, FrameDecoder
from repro.fabric.worker import HEARTBEAT_INTERVAL
from repro.faults import injected
from repro.resilience import RetryPolicy
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec, run_sweep, sweep_table

from fabric_schedule import Schedule, result_payload, task

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
    respawns included. A plan installed here with ``injected`` is
    inherited by the forks too; it is how a fault on the coordinator's
    side of a frame is planted.
    """
    with FabricCoordinator(runner, spawn=n_workers) as coordinator:
        yield coordinator, FabricExecutor(coordinator)


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class TestProtocol:
    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"type": "lease", "tasks": [{"id": "k"}], "n": 1})
            assert recv_message(b) == {
                "type": "lease",
                "tasks": [{"id": "k"}],
                "n": 1,
            }
        finally:
            a.close()
            b.close()

    def test_clean_eof_at_frame_boundary_is_none(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"type": "need"})
            a.close()
            assert recv_message(b) == {"type": "need"}
            assert recv_message(b) is None  # orderly shutdown, not an error
        finally:
            b.close()

    def test_midframe_eof_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b'{"type":')  # truncated body
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    @pytest.mark.parametrize(
        "payload",
        [
            b"{not json",  # malformed
            b"[1, 2]",  # not an object
            b'{"n": 1}',  # object without a type
        ],
    )
    def test_bad_frames_are_protocol_errors(self, payload):
        a, b = socket.socketpair()
        try:
            a.sendall(_frame(payload))
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_oversize_frame_refused_before_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "message",
        [
            {"type": "need"},
            {"type": "lease", "tasks": [dict(task("P_X16"), attempt=1)]},
            {"type": "shutdown"},
            {"type": "result", "id": "P_X16/gob",
             "result": result_payload(task("P_X16"))},
            {"type": "error", "id": "P_X16/gob", "error": "InjectedFault: x"},
            {"type": "heartbeat", "n": 3},
        ],
        ids=["need", "lease", "shutdown", "result", "error", "heartbeat"],
    )
    def test_every_message_type_reads_back_on_both_readers(self, message):
        """What a worker's ``recv_message`` and the coordinator's
        ``FrameDecoder`` read is what was sent, for each message type."""
        a, b = socket.socketpair()
        try:
            send_message(a, message, "worker")
            send_message(a, message, "coordinator")
            assert recv_message(b, "worker") == message
            decoder = FrameDecoder("coordinator")
            got = []
            while not got:
                got.extend(decoder.feed(b.recv(1 << 16)))
            assert got == [message]
        finally:
            a.close()
            b.close()

    def test_injected_rpc_faults_surface_as_protocol_errors(self):
        a, b = socket.socketpair()
        try:
            with injected("fabric.rpc.crash@peer/send/need#1") as plan:
                with pytest.raises(ProtocolError):
                    send_message(a, {"type": "need"})
            assert plan.fired
            send_message(a, {"type": "need"})  # plan cleared: flows again
            with injected("fabric.rpc.crash@peer/recv/need#1"):
                with pytest.raises(ProtocolError):
                    recv_message(b)
        finally:
            a.close()
            b.close()


class TestFrameDecoder:
    """The coordinator's incremental framing equals ``recv_message``'s."""

    def test_frames_cut_at_any_byte_boundary(self):
        messages = [{"type": "need"}, {"type": "result", "id": "k", "n": [1, 2]}]
        stream = b"".join(
            _frame(json.dumps(m, sort_keys=True).encode()) for m in messages
        )
        for step in (1, 3, 7, len(stream)):
            decoder = FrameDecoder()
            got = [
                message
                for at in range(0, len(stream), step)
                for message in decoder.feed(stream[at:at + step])
            ]
            assert got == messages
            assert list(decoder.feed(b"")) == []  # clean end-of-file

    def test_eof_inside_a_frame_is_a_protocol_error(self):
        decoder = FrameDecoder()
        assert list(decoder.feed(struct.pack(">I", 100) + b'{"type":')) == []
        with pytest.raises(ProtocolError, match="mid-frame"):
            list(decoder.feed(b""))

    def test_frames_before_a_bad_one_are_delivered(self):
        decoder = FrameDecoder()
        got = []
        with pytest.raises(ProtocolError, match="exceeds"):
            for message in decoder.feed(
                _frame(b'{"type": "need"}') + struct.pack(">I", MAX_MESSAGE_BYTES + 1)
            ):
                got.append(message)
        assert got == [{"type": "need"}]

    def test_receive_faults_fire_per_frame(self):
        decoder = FrameDecoder("coordinator")
        with injected("fabric.rpc.crash@coordinator/recv/result#1") as plan:
            with pytest.raises(ProtocolError, match="injected"):
                list(decoder.feed(_frame(b'{"type": "result"}')))
        assert plan.fired


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
        assert fabric["reconnects"] == 0  # no worker can redial
        # 8 grid cells + 2 insecure baselines, all cold.
        assert fabric["completed"] == 10
        assert fabric["errors"] == 0

    def test_warm_cells_served_from_cache_not_fabric(self, tmp_path):
        runner = _runner(tmp_path, "w")
        golden = run_sweep(_sweep(), runner)  # local run warms the caches
        # No worker: a cold cell would find nobody to run it.
        with _fabric(runner, n_workers=0) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        fabric = report["resilience"]["fabric"]
        assert fabric["dispatched"] == 0  # every cell was content-addressed
        assert _strip(report) == _strip(golden)

    def test_worker_connection_drop_heals_bit_identical(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "d")
        # The first result frame the coordinator receives dies on the
        # wire; that worker's connection drops, its lease is reclaimed and
        # it is re-forked. The plan counts in this process only: a
        # worker's counters would restart in every respawn.
        with injected("fabric.rpc.crash@coordinator/recv/result#1") as plan:
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        assert plan.fired
        fabric = report["resilience"]["fabric"]
        assert fabric["dead"] == fabric["respawned"] == 1
        assert fabric["reclaimed"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_stalled_worker_cell_is_stolen(self):
        """A cell that stalls while its worker keeps beating is stolen.

        Heartbeats keep the stalled worker alive through a minute of
        virtual time, so only stealing can finish the call; the stalled
        copy's late result changes nothing.
        """
        with Schedule() as s:
            a, b = s.join(), s.join()
            s.begin([task("P_X16"), task("PC_X32")])
            (stalled,) = a.todo
            s.finish(b)  # b goes idle with the queue empty: it steals
            assert b.todo == [stalled]
            s.tick(60.0, a, b)
            assert not s.done
            s.finish(b)
            assert s.done and s.completed == ["PC_X32/gob", "P_X16/gob"]
            s.finish(a)
            assert s.counters["completed"] == 2
            assert s.counters["stolen"] == 1
            assert s.counters["timeouts"] == s.counters["dead"] == 0

    def test_heartbeat_silence_reclaims_and_heals(self):
        """A worker that goes dark is declared dead once, while polling.

        Its lease is reclaimed at the next attempt number and leased to
        the survivor as soon as that one asks for work.
        """
        with Schedule() as s:
            a, b = s.join(), s.join()
            s.begin([task("P_X16"), task("PC_X32")])
            (lost,) = a.todo
            s.tick(HEARTBEAT_TIMEOUT, b)  # silent for exactly the limit
            assert a.alive
            s.tick(HEARTBEAT_INTERVAL, b)
            assert not a.alive and a.closed
            assert s.counters["timeouts"] == s.counters["dead"] == 1
            assert s.counters["reclaimed"] == 1
            s.finish(b)
            assert b.todo == [dict(lost, attempt=2)]
            s.finish(b)
            assert s.done and sorted(s.completed) == ["PC_X32/gob", "P_X16/gob"]

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
        assert report["resilience"]["fabric"]["errors"] >= 2

    def test_no_live_worker_is_a_clear_fabric_error(self):
        with Schedule() as s:
            s.begin([task("P_X16")])
            with pytest.raises(FabricError, match="no live fabric worker"):
                s.coordinator._check_liveness(s.now)

    def test_the_last_death_without_budget_fails_at_once(self):
        """Two workers die with no respawn left: the same turn raises.

        Nothing can introduce another worker, so there is nothing to
        wait for; the clock never moves.
        """
        with Schedule() as s:
            a, b = s.join(), s.join()
            s.begin([task("P_X16"), task("PC_X32")])
            s.feed(a, None)
            s.coordinator._check_liveness(s.now)  # b still runs its lease
            s.feed(b, None)
            assert s.counters["dead"] == 2 and s.counters["respawned"] == 0
            with pytest.raises(FabricError, match="respawn budget spent"):
                s.coordinator._check_liveness(s.now)
            assert s.now == 0.0

    def test_a_death_is_respawned_while_budget_remains(self):
        with Schedule(respawns=1) as s:
            a = s.join()
            s.begin([task("P_X16")])
            s.feed(a, None)
            (fresh,) = s.adopt()
            assert fresh.todo == [dict(task("P_X16"), attempt=2)]
            s.feed(fresh, None)
            assert not s.forked
            with pytest.raises(FabricError, match="2 forked"):
                s.coordinator._check_liveness(s.now)


class TestLiveness:
    """Every worker is forked and introduced at fork: none left is final."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_turn_that_finds_every_worker_dead_raises(self, workers):
        with Schedule() as s:
            conns = [s.join() for _ in range(workers)]
            s.begin([task(f"S{i}") for i in range(workers)])
            for conn in conns:
                s.feed(conn, None)
            assert s.counters["dead"] == workers
            with pytest.raises(
                FabricError, match=rf"\({workers} forked, respawn budget spent\)"
            ):
                s.coordinator._check_liveness(s.now)
            assert s.now == 0.0

    def test_an_empty_fabric_fails_only_a_call_with_cells(self):
        with Schedule() as s:
            a = s.join()
            s.feed(a, None)
            s.coordinator._check_liveness(s.now)  # nothing open: nothing to fail
            s.begin([task("P_X16")])
            with pytest.raises(FabricError, match="no live fabric worker"):
                s.coordinator._check_liveness(s.now)


class TestStats:
    """``stats()`` keys the frozen ``perf/`` harness reads off a fabric sweep."""

    @pytest.mark.parametrize(
        "key, value",
        [("dispatched", 3), ("stolen", 1), ("rpc_timeouts", 0), ("reconnects", 0)],
    )
    def test_the_keys_the_perf_harness_reads(self, key, value):
        with Schedule() as s:
            a, b = s.join(), s.join()
            s.begin([task("P_X16"), task("PC_X32")])
            s.finish(b)  # b goes idle with the queue empty: it steals
            s.finish(b)
            s.finish(a)
            assert s.done
            assert FabricExecutor(s.coordinator).stats()[key] == value


class TestClose:
    def test_close_shuts_every_forked_worker_down(self, tmp_path):
        """Workers forked at ``start()`` carry their index; ``close()``
        sends each a ``shutdown`` and every one exits 0."""
        coordinator = FabricCoordinator(_runner(tmp_path, "c"), spawn=2)
        assert coordinator.start() is None
        conns = list(coordinator._conns.values())
        assert [conn.index for conn in conns] == [0, 1]
        assert [proc.name for proc in coordinator._procs] == [
            "fabric-worker-0", "fabric-worker-1"
        ]
        assert coordinator.stats()["workers_live"] == 2
        coordinator.close()
        assert [proc.exitcode for proc in coordinator._procs] == [0, 0]
        assert not any(conn.alive for conn in conns)
        assert all(conn.sock.fileno() == -1 for conn in conns)
        assert coordinator.stats()["workers_live"] == 0

    def test_an_unstarted_coordinator_forks_nothing(self, tmp_path):
        coordinator = FabricCoordinator(_runner(tmp_path, "u"), spawn=2)
        coordinator.close()
        assert coordinator._procs == [] and coordinator._conns == {}
        assert coordinator.counters["workers_joined"] == 0


class TestWorker:
    """One worker on its end of a socketpair, on a thread as in a fork."""

    @contextlib.contextmanager
    def _worker(self, runner):
        ours, theirs = socket.socketpair()
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(FabricWorker(theirs, runner, 0).run())
        )
        thread.start()
        try:
            yield ours, codes
        finally:
            ours.close()
            thread.join(timeout=30)
            assert not thread.is_alive()

    @staticmethod
    def _reply(sock):
        while True:
            message = recv_message(sock, timeout=30)
            if message["type"] != "heartbeat":
                return message

    def test_a_leased_cell_is_run_with_the_inherited_runner(self, tmp_path):
        runner = _runner(tmp_path, "w")
        (cell,) = runner.cells(["PC_X32"], ["gob"])
        lease = {"type": "lease", "tasks": [{
            "id": cell.key, "label": cell.label, "bench": cell.bench,
            "spec": cell.spec.to_dict(), "misses": MISSES, "attempt": 1,
        }]}
        with self._worker(runner) as (sock, codes):
            assert self._reply(sock) == {"type": "need"}
            send_message(sock, lease)
            reply = self._reply(sock)
            assert self._reply(sock) == {"type": "need"}
            send_message(sock, {"type": "shutdown"})
        assert codes == [0]
        assert reply["type"] == "result" and reply["id"] == cell.key
        expected = _runner(tmp_path, "serial").run_cell(cell, 1).to_dict()
        assert reply["result"] == json.loads(json.dumps(expected))

    def test_a_failing_cell_is_an_error_frame_not_a_death(self, tmp_path):
        runner = _runner(tmp_path, "e")
        lease = {"type": "lease", "tasks": [dict(task("P_X16"), attempt=2)]}
        with injected("fabric.worker.crash@P_X16/gob/2#1") as plan:
            with self._worker(runner) as (sock, codes):
                self._reply(sock)
                send_message(sock, lease)
                reply = self._reply(sock)
                assert self._reply(sock) == {"type": "need"}  # it serves on
        assert plan.fired == [("fabric.worker", "P_X16/gob/2", 1, "crash")]
        assert reply["type"] == "error" and reply["id"] == "P_X16/gob"
        assert reply["error"].startswith("InjectedFault: ")
        assert codes == [0]  # end-of-file: it exits cleanly

    def test_end_of_file_before_any_lease_exits_0(self, tmp_path):
        with self._worker(_runner(tmp_path, "x")) as (sock, codes):
            assert self._reply(sock) == {"type": "need"}
        assert codes == [0]


class TestReclaim:
    def test_each_attempt_is_charged_once_and_none_is_skipped(self):
        """A cell's attempts are leased 1, 2, 3 in order, as they run serially.

        A worker that dies spends its attempt even while a thief runs a
        copy of it (otherwise every respawned worker steals a stalling
        attempt back from its last holder, and the attempt never
        advances); the next attempt is queued at once. The thief's copy
        failing afterwards charges nothing: attempt 2 still runs.
        """
        with Schedule() as s:
            victim = s.join()
            s.begin([task("P_X16")], RetryPolicy(attempts=3))
            thief = s.join()  # idle, queue empty: steals attempt 1
            s.feed(victim, None)
            job = s.coordinator._open["P_X16/gob"]
            assert job["attempt"] == 2
            assert list(s.coordinator._pending) == ["P_X16/gob"]
            s.finish(thief, "InjectedFault: attempt 1 again")
            assert job["attempt"] == 2  # ...and the thief now runs it
            s.finish(thief, "InjectedFault: attempt 2")
            s.finish(thief, "InjectedFault: attempt 3")
            assert s.done and not s.coordinator._pending
            leased = [
                t["attempt"] for conn in (victim, thief) for frame in conn.sent
                if frame["type"] == "lease" for t in frame["tasks"]
            ]
            assert leased == [1, 1, 2, 3]
            assert [(f["attempts"], f["error"]) for f in s.failures] == [
                (3, "InjectedFault: attempt 3")
            ]


def _run(events, workers, tasks, attempts, timeout):
    """Drive one scripted schedule, then drain it on the healthy workers.

    Every death is respawned, as on a forked fabric with budget to
    spare; a respawned worker takes the dead one's slot in the script.
    """
    with Schedule(respawns=10_000) as s:
        conns = [s.join() for _ in range(workers)]
        dark = set()

        def tick():
            s.tick(HEARTBEAT_INTERVAL, *(c for c in s.conns if c not in dark))
            for fresh in s.adopt():
                slot = next(i for i, c in enumerate(conns) if not c.alive)
                conns[slot] = fresh

        jobs = [task(f"S{i}") for i in range(tasks)]
        s.begin([dict(job) for job in jobs], RetryPolicy(attempts, timeout=timeout))
        for kind, who, seconds in events:
            if s.done:
                break
            conn = conns[who % workers]
            awake = conn.alive and conn not in dark
            if kind in ("result", "error") and awake and conn.todo:
                s.finish(conn, None if kind == "result" else "InjectedFault: x")
            elif kind == "eof" and awake:
                s.feed(conn, None)
            elif kind == "silence":
                dark.add(conn)
            elif kind == "tick":
                for _ in range(round(seconds / HEARTBEAT_INTERVAL)):
                    tick()
            for fresh in s.adopt():  # an eof's respawn
                conns[conns.index(conn)] = fresh
        for _ in range(10_000):
            if s.done:
                break
            for conn in conns:
                while conn.alive and conn not in dark and conn.todo:
                    s.finish(conn)
            tick()
        return s, jobs


_EVENT = st.tuples(
    st.sampled_from(["result", "error", "eof", "silence", "tick"]),
    st.integers(0, 3),
    st.sampled_from([HEARTBEAT_INTERVAL, 1.0, HEARTBEAT_TIMEOUT + 1.0]),
)


class TestScheduleProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        events=st.lists(_EVENT, max_size=60),
        workers=st.integers(1, 4),
        tasks=st.integers(1, 12),
        attempts=st.integers(1, 3),
        timeout=st.sampled_from([None, 2.0]),
    )
    def test_every_interleaving_keeps_the_invariants(
        self, events, workers, tasks, attempts, timeout
    ):
        """Needs, results, errors, hang-ups, silences, respawns and clock
        ticks in any order: every task ends exactly once, its attempts are
        leased 1..k with none skipped, no lease reaches a connection that
        is down, and ``completed`` counts the progress calls."""
        s, jobs = _run(events, workers, tasks, attempts, timeout)
        ended = s.completed + [
            f"{f['scheme']}/{f['benchmark']}" for f in s.failures
        ]
        assert sorted(ended) == sorted(job["id"] for job in jobs)
        for job in jobs:
            leased = [
                t["attempt"] for frame in s.log if frame["type"] == "lease"
                for t in frame["tasks"] if t["id"] == job["id"]
            ]
            assert leased[0] == 1 and leased[-1] <= attempts
            assert all(b - a in (0, 1) for a, b in zip(leased, leased[1:]))
        assert not any(conn.leased_while_down for conn in s.conns)
        assert s.counters["completed"] == len(s.completed)


class TestFabricRerun:
    """An interrupted sweep finishes when run again, across topologies."""

    def test_local_interrupt_reruns_on_the_fabric(self, tmp_path):
        """Cells stored by a serial run are not leased to the fabric."""
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


class TestSpawnedWorkers:
    def test_worker_process_death_respawns_and_heals(
        self, tmp_path, monkeypatch
    ):
        """Real worker processes: one hard-exits mid-cell, fabric heals.

        The plan rides the environment so only the forked processes
        install it (``exit`` in a thread worker would kill pytest).
        """
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv("REPRO_FAULTS", "fabric.worker.exit@*/gob/1#1")
        runner = _runner(tmp_path, "k")
        coordinator = FabricCoordinator(runner, spawn=2)
        coordinator.start()
        try:
            report = run_sweep(
                _sweep(), runner, executor=FabricExecutor(coordinator)
            )
        finally:
            coordinator.close()
        fabric = report["resilience"]["fabric"]
        assert fabric["dead"] >= 1
        assert fabric["respawned"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_idle_workers_outlast_the_cell_timeout(self):
        """Workers that joined and wait for work are not stuck cells.

        They join at ``start()``, long before the first lease when a
        caller sets up in between, and nothing is read between two
        calls: only a leased cell is timed, from the moment a call
        starts its clocks.
        """
        retry = RetryPolicy(timeout=0.3)
        with Schedule() as s:
            a, b = s.join(), s.join()
            s.now += 100.0  # setup between start() and execute()
            s.begin([task("P_X16"), task("PC_X32")], retry)
            s.tick(0.25, a, b)
            s.finish(a)
            s.finish(b, need=False)
            assert s.done
            # b's "need" is still queued when the next call starts: its
            # last result is not a cell running in the gap.
            s.now += 100.0
            s.begin([task("P_X16", "hmmer")], retry)
            s.tick(0.25, a, b)
            s.feed(b, {"type": "need"})
            assert s.counters["dead"] == s.counters["timeouts"] == 0
            s.tick(0.25, a, b)
            assert s.counters["timeouts"] == 1  # a's lease ran past 0.3 s

    def test_duplicate_in_flight_at_close_exits_cleanly(self):
        """A stolen duplicate still running when the call ends costs nothing.

        The two baselines are the last phase, one lease each. ``gob``'s
        worker finishes first, goes idle and steals ``hmmer``; the
        owner's result ends the call while the copy still runs. Nobody
        is declared down (``close()`` then sends both a ``shutdown``),
        and the copy's late result is ignored.
        """
        with Schedule() as s:
            a, b = s.join(), s.join()
            s.begin([task("insecure", "gob"), task("insecure", "hmmer")])
            s.tick(0.7, a, b)
            s.finish(a)
            assert s.counters["stolen"] == 1
            s.tick(0.8, a, b)
            s.finish(b)
            assert s.done
            s.finish(a)
            assert s.counters["completed"] == 2
            assert s.counters["dead"] == s.counters["timeouts"] == 0
            assert a.alive and b.alive and not a.closed

    def test_forked_duplicate_in_flight_at_close_exits_0(
        self, tmp_path, monkeypatch
    ):
        """The same schedule on two forked workers ends with both exiting 0.

        The plan is installed per forked process, so each stalls on its
        own first attempt: ``gob``'s worker for 0.2 s, ``hmmer``'s for
        0.6 s. The first steals ``hmmer`` and is still in its own stall
        when the owner's result ends the sweep. Its late ``result`` finds
        the socket closed or a ``shutdown`` waiting, so it exits by
        itself: ``close()`` neither waits out its 5 s nor terminates it.
        """
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "fabric.worker.stall@insecure/gob/1#1|secs=0.2;"
            "fabric.worker.stall@insecure/hmmer/1#1|secs=0.6",
        )
        runner = _runner(tmp_path, "d")
        with FabricCoordinator(runner, spawn=2) as coordinator:
            report = run_sweep(
                _sweep(), runner, executor=FabricExecutor(coordinator)
            )
        assert report["resilience"]["fabric"]["stolen"] >= 1
        assert [proc.exitcode for proc in coordinator._procs] == [0, 0]
        assert _strip(report) == _strip(golden)

    def test_a_zero_cell_timeout_reclaims_nothing(self, tmp_path, monkeypatch):
        """``REPRO_CELL_TIMEOUT=0`` means no timeout, as ``REPRO_RPC_TIMEOUT=0`` does."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        report = run_sweep(
            _sweep(), _runner(tmp_path, "z"), executor=FabricExecutor(workers=2)
        )
        assert report["resilience"]["quarantined"] == []
        assert report["resilience"]["fabric"]["timeouts"] == 0
        assert _strip(report) == _strip(golden)

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
        assert [proc.exitcode for proc in coordinator._procs] == [0, 0, 0]


class TestOneThreadOneClock:
    def test_only_the_worker_starts_threads(self):
        threaded = {
            path.relative_to(SRC).as_posix()
            for package in ("fabric", "resilience")
            for path in (SRC / package).rglob("*.py")
            if re.search(r"^(import|from) (threading|queue)\b",
                         path.read_text("utf-8"), re.MULTILINE)
        }
        assert threaded == {"fabric/worker.py"}

    def test_the_coordinator_reads_the_clock_in_its_loop_and_close(self):
        tree = ast.parse((SRC / "fabric" / "coordinator.py").read_text("utf-8"))
        reads = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr == "monotonic"
        ]
        assert set(reads) == {"execute", "close"}
        assert reads.count("execute") == 1

    def test_no_timing_option_is_left(self):
        assert list(inspect.signature(FabricCoordinator).parameters) == [
            "runner", "spawn"
        ]
        assert list(inspect.signature(FabricWorker).parameters) == [
            "sock", "runner", "index"
        ]
