"""Fabric lockstep: distributed sweeps equal the local golden, byte for byte.

The acceptance property of the sweep fabric mirrors the fault plane's:
for every scheduling event the coordinator can produce — work stealing,
worker connection loss, heartbeat silence, forked-worker death and
respawn, Ctrl-C + resume across topologies — the completed report is
bit-identical to a fault-free local run at the same seed. Only the
``resilience`` accounting block (which carries the fabric counters) may
differ. Protocol framing and the runner wire format get unit coverage
here too, since every distributed guarantee rests on them.
"""

import contextlib
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigurationError,
    FabricError,
    SpecError,
    SweepInterrupted,
)
from repro.fabric import (
    FabricCoordinator,
    FabricExecutor,
    FabricWorker,
    ProtocolError,
    parse_address,
    recv_message,
    runner_from_wire,
    runner_to_wire,
    send_message,
)
from repro.fabric.coordinator import _WorkerConn
from repro.fabric.protocol import MAX_MESSAGE_BYTES
from repro.faults import injected
from repro.resilience import RetryPolicy
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


def _strip(report):
    """Drop the (intentionally differing) resilience accounting block."""
    clone = dict(report)
    assert "resilience" in clone
    clone.pop("resilience")
    return clone


def _start_worker(host, port):
    thread = threading.Thread(
        target=FabricWorker(host, port).run, daemon=True
    )
    thread.start()
    return thread


@contextlib.contextmanager
def _fabric(runner, n_workers=2, **coord_kw):
    """A coordinator plus in-process (thread) workers.

    Thread workers share the installed fault plan, which is exactly what
    the lockstep tests want — but it also means plans here must never
    use the ``exit`` action (``os._exit`` would take pytest down).
    """
    coord_kw.setdefault("heartbeat_interval", 0.05)
    coord_kw.setdefault("startup_timeout", 30.0)
    coordinator = FabricCoordinator(runner, spawn=0, **coord_kw)
    host, port = coordinator.start()
    threads = [_start_worker(host, port) for _ in range(n_workers)]
    try:
        yield coordinator, FabricExecutor(coordinator)
    finally:
        coordinator.close()
        for thread in threads:
            thread.join(timeout=5)


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class TestProtocol:
    def test_parse_address_round_trips(self):
        assert parse_address("127.0.0.1:7777") == ("127.0.0.1", 7777)
        assert parse_address("example.org:80") == ("example.org", 80)

    @pytest.mark.parametrize(
        "bad", ["", "nohost", ":80", "host:", "host:xx", "host:70000"]
    )
    def test_parse_address_rejects_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_address(bad)

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


class TestRunnerWire:
    def test_round_trip_preserves_cell_identity(self, tmp_path):
        runner = _runner(tmp_path, "wire", seed=7)
        clone = runner_from_wire(runner_to_wire(runner))
        assert clone.seed == runner.seed
        assert clone.misses == runner.misses
        assert clone.result_key("P_X16", "gob") == runner.result_key(
            "P_X16", "gob"
        )
        assert clone.result_key(
            "PC_X32", "hmmer", plb_capacity_bytes=8192
        ) == runner.result_key("PC_X32", "hmmer", plb_capacity_bytes=8192)

    def test_wire_format_is_json_safe(self, tmp_path):
        wire = runner_to_wire(_runner(tmp_path, "wire"))
        assert json.loads(json.dumps(wire, sort_keys=True)) == wire


class TestFabricLockstep:
    def test_fabric_sweep_bit_identical_to_serial(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "f")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)
        fabric = report["resilience"]["fabric"]
        # A worker that reconnects joins again under its old identity.
        assert fabric["workers_joined"] - fabric["reconnects"] == 2
        # 8 grid cells + 2 insecure baselines, all cold.
        assert fabric["completed"] == 10
        assert fabric["errors"] == 0

    def test_warm_cells_served_from_cache_not_fabric(self, tmp_path):
        runner = _runner(tmp_path, "w")
        golden = run_sweep(_sweep(), runner)  # local run warms the caches
        with _fabric(runner, n_workers=1) as (coordinator, executor):
            report = run_sweep(_sweep(), runner, executor=executor)
        fabric = report["resilience"]["fabric"]
        assert fabric["dispatched"] == 0  # every cell was content-addressed
        assert _strip(report) == _strip(golden)

    def test_worker_connection_drop_heals_bit_identical(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "d")
        # The first result frame sent anywhere in the process dies on the
        # wire; that worker's connection drops and its lease is reclaimed.
        with injected("fabric.rpc.crash@worker/send/result#1") as plan:
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        assert plan.fired
        fabric = report["resilience"]["fabric"]
        assert fabric["dead"] >= 1
        assert fabric["reclaimed"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_stalled_worker_cell_is_stolen(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "s")
        stall_secs = 60.0
        start = time.perf_counter()
        # One cell stalls far past the test budget; heartbeats keep the
        # stalled worker alive, so only stealing can finish the sweep.
        with injected(f"fabric.worker.stall@PC_X32*/hmmer/1#1|secs={stall_secs}"):
            with _fabric(
                runner, n_workers=2, heartbeat_timeout=stall_secs * 2
            ) as (coordinator, executor):
                report = run_sweep(_sweep(), runner, executor=executor)
        elapsed = time.perf_counter() - start
        assert elapsed < stall_secs / 2  # nobody waited out the stall
        fabric = report["resilience"]["fabric"]
        assert fabric["stolen"] >= 1
        assert fabric["timeouts"] == 0 and fabric["dead"] == 0
        assert _strip(report) == _strip(golden)

    def test_heartbeat_silence_reclaims_and_heals(self, tmp_path):
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "h")
        # Worker 0 goes fully dark: its heartbeats stall forever and its
        # first gob cell hangs. The coordinator must declare it dead on
        # heartbeat timeout, reclaim the lease, and re-dispatch.
        plan = (
            "fabric.heartbeat.stall@0/*|secs=60;"
            "fabric.worker.stall@*/gob/1#1|secs=60"
        )
        with injected(plan):
            coordinator = FabricCoordinator(
                runner,
                spawn=0,
                heartbeat_interval=0.05,
                heartbeat_timeout=0.5,
                startup_timeout=30.0,
            )
            host, port = coordinator.start()
            threads = [_start_worker(host, port)]
            try:
                # Let worker 0 join (and claim the first lease) before a
                # healthy worker 1 shows up to absorb the reclaim.
                deadline = time.time() + 10
                while (
                    coordinator.counters["workers_joined"] < 1
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
                assert coordinator.counters["workers_joined"] >= 1
                timer = threading.Timer(
                    0.4, lambda: threads.append(_start_worker(host, port))
                )
                timer.start()
                report = run_sweep(
                    _sweep(), runner, executor=FabricExecutor(coordinator)
                )
                timer.join(timeout=5)
            finally:
                coordinator.close()
        fabric = report["resilience"]["fabric"]
        assert fabric["timeouts"] >= 1
        assert fabric["dead"] >= 1
        assert fabric["reclaimed"] >= 1
        assert _strip(report) == _strip(golden)
        assert sweep_table(report) == sweep_table(golden)

    def test_exhausted_retries_quarantine_not_abort(self, tmp_path):
        runner = _runner(tmp_path, "q")
        # Both P_X16/gob cells crash on every attempt, on every worker.
        with injected("fabric.worker.crash@P_X16*/gob/*"):
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

    def test_no_live_worker_is_a_clear_fabric_error(self, tmp_path):
        runner = _runner(tmp_path, "n")
        coordinator = FabricCoordinator(
            runner, spawn=0, heartbeat_interval=0.05, startup_timeout=0.3
        )
        coordinator.start()
        try:
            with pytest.raises(FabricError, match="no live fabric worker"):
                run_sweep(
                    _sweep(), runner, executor=FabricExecutor(coordinator)
                )
        finally:
            coordinator.close()


class TestReclaim:
    def test_each_attempt_is_charged_once_and_none_is_skipped(self, tmp_path):
        """A cell's attempts are leased 1, 2, 3 in order, as they run serially.

        A worker that dies spends its attempt even while a thief runs a
        copy of it (otherwise every respawned worker steals a stalling
        attempt back from its last holder, and the attempt never
        advances); the next attempt is queued at once. The thief's copy
        failing afterwards charges nothing: attempt 2 still runs.
        """
        coordinator = FabricCoordinator(_runner(tmp_path, "r"), spawn=0)
        coordinator._retry = RetryPolicy(attempts=3)
        coordinator._failures = failures = []
        task = {"id": "t", "label": "P_X16", "bench": "gob", "attempt": 1}
        coordinator._open = {"t": task}
        pairs = [socket.socketpair() for _ in range(3)]
        victim, thief, other = (
            _WorkerConn(i, ours) for i, (ours, _) in enumerate(pairs)
        )
        for conn in (victim, thief, other):
            coordinator._conns[conn.index] = conn
        victim.leases["t"] = thief.leases["t"] = 1

        def error(conn, text):
            coordinator._handle("error", conn.index, {"id": "t", "error": text})

        try:
            coordinator._on_worker_down(victim, "stuck")
            assert task["attempt"] == 2 and list(coordinator._pending) == ["t"]
            error(thief, "InjectedFault: attempt 1 again")
            assert task["attempt"] == 2 and list(coordinator._pending) == ["t"]
            coordinator._pending.clear()
            other.leases["t"] = 2
            error(other, "InjectedFault: attempt 2")
            assert task["attempt"] == 3 and list(coordinator._pending) == ["t"]
            coordinator._pending.clear()
            other.leases["t"] = 3
            error(other, "InjectedFault: attempt 3")
            assert "t" not in coordinator._open and not coordinator._pending
            assert [(f["attempts"], f["error"]) for f in failures] == [
                (3, "InjectedFault: attempt 3")
            ]
        finally:
            for ours, theirs in pairs:
                ours.close()
                theirs.close()
            coordinator.store.close()


class TestClose:
    def test_hello_while_closing_is_refused_with_shutdown(self, tmp_path):
        """A worker dialling a closing coordinator is turned away, not configured.

        ``close()`` wakes the accept thread, but a redial can already be
        past ``accept`` by then; the refusal is what keeps it from
        joining a coordinator that will never lease to it.
        """
        coordinator = FabricCoordinator(_runner(tmp_path, "c"), spawn=0)
        host, port = coordinator.start()
        codes = []
        try:
            coordinator._closing = True  # close() has begun; listener still up
            worker = FabricWorker(host, port)
            thread = threading.Thread(target=lambda: codes.append(worker.run()))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            coordinator.close()
        assert codes == [0]
        assert worker.index is None  # no config frame ever reached it
        assert coordinator.counters["workers_joined"] == 0
        assert coordinator._conns == {}

    def test_concurrent_joins_are_all_counted(self, tmp_path):
        """More workers than cores join at once; no counter update is lost.

        Every connection thread counts its join: the increments must be
        serialised, as the copy ``stats()`` takes must be.
        """
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        coordinator = FabricCoordinator(_runner(tmp_path, "j"), spawn=0)
        host, port = coordinator.start()
        threads = [_start_worker(host, port) for _ in range(8)]
        try:
            deadline = time.time() + 20
            while (
                coordinator.stats()["workers_joined"] < 8
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert coordinator.stats()["workers_joined"] == 8
        finally:
            sys.setswitchinterval(interval)
            coordinator.close()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_close_stops_listening(self, tmp_path):
        """``close()`` wakes the accept thread instead of leaving it one more accept."""
        coordinator = FabricCoordinator(_runner(tmp_path, "l"), spawn=0)
        host, port = coordinator.start()
        thread = _start_worker(host, port)
        try:
            # A joined worker means the accept thread is back in accept().
            deadline = time.time() + 10
            while (
                coordinator.counters["workers_joined"] < 1
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert coordinator.counters["workers_joined"] == 1
        finally:
            coordinator.close()
        coordinator._accept_thread.join(timeout=5)
        assert not coordinator._accept_thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1).close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestFabricResume:
    def test_local_interrupt_resumes_on_the_fabric(self, tmp_path):
        """A journal written locally finishes on the fabric, bit-identically."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        ckpt_path = tmp_path / "fabric.ckpt.jsonl"
        with injected("sweep.interrupt@*#3"):
            with pytest.raises(SweepInterrupted):
                run_sweep(
                    _sweep(), _runner(tmp_path, "c"), checkpoint=ckpt_path
                )
        # Cold caches: the journal, not the result cache, supplies the
        # finished cells; the fabric replays only the remainder.
        runner = _runner(tmp_path, "c2")
        with _fabric(runner, n_workers=2) as (coordinator, executor):
            resumed = run_sweep(
                _sweep(),
                runner,
                checkpoint=ckpt_path,
                resume=True,
                executor=executor,
            )
        assert resumed["resilience"]["resumed"] == 3
        fabric = resumed["resilience"]["fabric"]
        assert fabric["completed"] == len(golden["cells"]) - 3 + len(BENCHES)
        assert _strip(resumed) == _strip(golden)
        assert sweep_table(resumed) == sweep_table(golden)

    def test_fabric_interrupt_resumes_locally(self, tmp_path):
        """The reverse topology change: fabric journal, local resume."""
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        ckpt_path = tmp_path / "fabric.ckpt.jsonl"
        runner = _runner(tmp_path, "c")
        with injected("sweep.interrupt@*#3"):
            with _fabric(runner, n_workers=2) as (coordinator, executor):
                with pytest.raises(SweepInterrupted):
                    run_sweep(
                        _sweep(),
                        runner,
                        checkpoint=ckpt_path,
                        executor=executor,
                    )
        resumed = run_sweep(
            _sweep(),
            _runner(tmp_path, "c2"),
            checkpoint=ckpt_path,
            resume=True,
        )
        assert resumed["resilience"]["resumed"] == 3
        assert _strip(resumed) == _strip(golden)

    def test_tampered_order_header_refuses_resume(self, tmp_path):
        ckpt_path = tmp_path / "sweep.ckpt.jsonl"
        runner = _runner(tmp_path, "t")
        with injected("sweep.interrupt@*#3"):
            with pytest.raises(SweepInterrupted):
                run_sweep(_sweep(), runner, checkpoint=ckpt_path)
        journal = SweepCheckpoint(ckpt_path)
        header = journal.load(HEADER)
        assert header["order"]  # every journal stamps the digest
        header["order"] = "0" * len(header["order"])
        assert journal.store(HEADER, header)
        with pytest.raises(ConfigurationError, match="cell ordering"):
            run_sweep(_sweep(), runner, checkpoint=ckpt_path, resume=True)


class TestFabricCli:
    def test_serve_worker_usage_errors(self, capsys):
        from repro.cli import main

        assert main(["fabric"]) == 2
        assert main(["fabric", "serve-worker"]) == 2
        assert main(["fabric", "serve-worker", "--connect", "nohostport"]) == 2
        assert "fabric" in capsys.readouterr().err

    def test_serve_worker_unreachable_coordinator(self, capsys):
        from repro.cli import main

        # Grab a port that is certainly closed right now.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = main(
            [
                "fabric",
                "serve-worker",
                f"--connect=127.0.0.1:{port}",
                "--timeout",
                "0.5",
            ]
        )
        assert rc == 2
        assert "fabric error" in capsys.readouterr().err


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

    def test_idle_workers_outlast_the_cell_timeout(self, tmp_path):
        """Workers that joined and wait for work are not stuck cells.

        They fork and join at ``start()``, long before the first lease
        when a caller sets up in between; only a leased cell is timed.
        """
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        runner = _runner(tmp_path, "i")
        with FabricCoordinator(runner, spawn=2) as coordinator:
            time.sleep(0.5)
            report = run_sweep(
                _sweep(), runner, retry=RetryPolicy(timeout=0.3),
                executor=FabricExecutor(coordinator),
            )
        fabric = report["resilience"]["fabric"]
        assert fabric["dead"] == fabric["timeouts"] == fabric["respawned"] == 0
        assert _strip(report) == _strip(golden)

    def test_duplicate_in_flight_at_close_exits_cleanly(
        self, tmp_path, monkeypatch
    ):
        """A stolen duplicate still running when the sweep ends exits 0.

        The two baselines are the last phase, one lease each. The plan
        (installed per forked process, so each process stalls on its own
        first attempt) holds ``gob``'s worker for 0.7 s and ``hmmer``'s
        for 1.5 s: the first goes idle, steals ``hmmer`` and is 0.7 s
        into its own stall when the owner's result ends the sweep. Its
        late ``result`` then finds the socket closed (or is answered by
        the ``shutdown`` already waiting) and its socketpair cannot be
        redialled, so it exits on its own — ``close()`` neither waits out
        its 5 s timeout nor terminates it.
        """
        golden = run_sweep(_sweep(), _runner(tmp_path, "g"))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "fabric.worker.stall@insecure/gob/1#1|secs=0.7;"
            "fabric.worker.stall@insecure/hmmer/1#1|secs=1.5",
        )
        runner = _runner(tmp_path, "d")
        coordinator = FabricCoordinator(runner, spawn=2)
        coordinator.start()
        try:
            report = run_sweep(
                _sweep(), runner, executor=FabricExecutor(coordinator)
            )
        finally:
            coordinator.close()
        assert report["resilience"]["fabric"]["stolen"] >= 1
        assert [proc.exitcode for proc in coordinator._procs] == [0, 0]
        assert _strip(report) == _strip(golden)

