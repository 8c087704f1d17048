"""Fault-injection plane: plan grammar, match counting, actions, retry."""

import multiprocessing
import os
import time

import pytest

from repro.errors import FaultKillPoint, InjectedFault, SpecError
from repro.faults import (
    FaultPlan,
    FaultSpec,
    active,
    clear,
    fault_hook,
    injected,
    install,
    install_from,
    parse,
)
from repro.faults.plan import SITES
from repro.resilience import RetryPolicy
from repro.settings import Settings


class TestGrammar:
    def test_basic_entry(self):
        plan = parse("cell.crash@PC_X32/gob/1")
        (spec,) = plan.specs
        assert spec == FaultSpec(site="cell", action="crash", key="PC_X32/gob/1")

    def test_dotted_site_splits_on_last_dot(self):
        (spec,) = parse("fabric.worker.stall@0").specs
        assert (spec.site, spec.action) == ("fabric.worker", "stall")

    def test_key_may_contain_at_signs(self):
        # Derived benchmark names ("mcf@wss=8388608") appear inside keys.
        (spec,) = parse("cell.crash@PC_X32/mcf@wss=8388608/1").specs
        assert spec.key == "PC_X32/mcf@wss=8388608/1"

    def test_hits_and_params(self):
        (spec,) = parse("fabric.worker.exit@*/gob/1#2,4|code=3,secs=0.5").specs
        assert spec.hits == (2, 4)
        assert spec.params == {"code": "3", "secs": "0.5"}

    def test_multiple_entries_split_on_semicolon(self):
        plan = parse("cell.crash@*/1#1; fabric.worker.exit@*;")
        assert [s.action for s in plan.specs] == ["crash", "exit"]

    def test_roundtrip_via_to_entry(self):
        text = "fabric.worker.stall@0/*#2|secs=3"
        (spec,) = parse(text).specs
        assert parse(spec.to_entry()).specs[0] == spec

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("cell.crash", "@keypat"),
            ("crash@*", "site.action"),
            ("cell.frobnicate@*", "unknown fault action"),
            ("cell.crash@*#x", "integers"),
            ("cell.crash@*#0", "1-based"),
            ("cell.crash@*|oops", "k=v"),
        ],
    )
    def test_rejects_malformed_entries(self, bad, match):
        with pytest.raises(SpecError, match=match):
            parse(bad)

    @pytest.mark.parametrize(
        "site", ["worker", "fabirc.worker", "fabric.worker.heartbeat", "cache"]
    )
    def test_an_unknown_site_names_itself_and_the_valid_ones(self, site):
        # Such a plan would parse and then never fire.
        with pytest.raises(SpecError, match="unknown fault site") as caught:
            parse(f"{site}.exit@*")
        assert repr(site) in str(caught.value)
        assert all(valid in str(caught.value) for valid in SITES)

    @pytest.mark.parametrize("site", ["rpc.flap", "fabric.heartbeat"])
    def test_a_removed_site_is_refused_in_a_plan(self, site, monkeypatch):
        """No worker redials and no test injects heartbeats: a plan that
        names either site is refused, from a string or from the environment."""
        assert site not in SITES
        with pytest.raises(SpecError, match="unknown fault site"):
            parse(f"{site}.crash@*#1")
        monkeypatch.setenv("REPRO_FAULTS", f"cell.crash@*#1;{site}.stall@*")
        with pytest.raises(SpecError, match=repr(site)):
            install_from(Settings.from_env())

    @pytest.mark.parametrize("site", SITES)
    def test_each_site_round_trips_through_its_entry(self, site):
        """Dotted sites split on their last dot, with hits and params kept."""
        (spec,) = parse(f"{site}.stall@a/*/1#2,3|secs=0").specs
        assert (spec.site, spec.action, spec.key) == (site, "stall", "a/*/1")
        assert (spec.hits, spec.params) == ((2, 3), {"secs": "0"})
        assert parse(spec.to_entry()).specs == [spec]

    @pytest.mark.parametrize("site", ["fabric.rpc", "rpc.timeout"])
    def test_the_socket_protocol_sites_are_gone(self, site):
        """Workers talk over pipes with no frames and no RPC deadline: a
        plan naming either old site is refused, naming the five left."""
        assert len(SITES) == 5 and site not in SITES
        with pytest.raises(SpecError, match="unknown fault site") as caught:
            parse(f"{site}.crash@*")
        assert str(SITES) in str(caught.value)

    @pytest.mark.parametrize(
        "entry",
        [
            "rpc.timeout.crash@coordinator/send/lease#1",
            "fabric.rpc.crash@coordinator/recv/result#1",
            "fabric.rpc.crash@peer/send/need#1",
            "rpc.timeout.crash@worker/send/need",
            "rpc.timeout.crash@worker/send/need#1",
            "fabric.rpc.crash@*/send/need#2",
            "fabric.rpc.stall@worker/recv/*#1,3|secs=1",
            "rpc.timeout.crash@*#1",
        ],
    )
    def test_a_plan_written_for_the_socket_protocol_is_refused(self, entry):
        """Entries the frame-level sites once took, counted or not, on
        either end, now name an unknown site instead of never firing."""
        site = entry.split("@")[0].rsplit(".", 1)[0]
        with pytest.raises(SpecError, match=f"unknown fault site '{site}'"):
            parse(f"cell.crash@*/gob/1;{entry}")

    @pytest.mark.parametrize(
        "entry",
        [
            "fabric.worker.exit@*/*/1#1",
            "fabric.worker.exit@P_X16/gob/*",
            "fabric.worker.crash@P_X16*/gob/1",
            "fabric.worker.stall@*/gob/1|secs=30",
        ],
    )
    def test_hits_on_the_worker_site_still_parse(self, entry):
        (spec,) = parse(entry).specs
        assert spec.site == "fabric.worker"
        assert parse(spec.to_entry()).specs == [spec]

    def test_every_declared_site_parses(self):
        assert [spec.site for spec in parse(
            ";".join(f"{site}.crash@*" for site in SITES)
        ).specs] == list(SITES)


class TestMatchCounting:
    def test_unconditional_fires_every_match(self):
        plan = parse("cell.crash@*")
        assert plan.match("cell", "a").action == "crash"
        assert plan.match("cell", "b").action == "crash"

    def test_hits_count_per_injector_across_varying_keys(self):
        # The injector's counter advances on every match, whatever the
        # key was — "#2" means "the second event this injector watches".
        plan = parse("sweep.interrupt@*#2")
        assert plan.match("sweep", "PC_X32/gob") is None
        assert plan.match("sweep", "PC_X32/mcf").action == "interrupt"
        assert plan.match("sweep", "PC_X32/hmmer") is None

    def test_pattern_scopes_the_counter(self):
        plan = parse("cell.crash@*/gob/*#2")
        assert plan.match("cell", "A/mcf/1") is None  # no match, no count
        assert plan.match("cell", "A/gob/1") is None  # match 1
        assert plan.match("cell", "B/gob/1").action == "crash"  # match 2

    def test_site_mismatch_never_counts(self):
        plan = parse("cell.crash@*#1")
        assert plan.match("sweep", "x") is None
        assert plan.match("cell", "x").action == "crash"

    def test_fired_log_records_what_happened(self):
        plan = parse("cell.stall@*#1|secs=0")
        plan.fire("cell", "k")
        assert plan.fired == [("cell", "k", 1, "stall")]


class TestActions:
    def test_crash_raises_injected_fault(self):
        with injected("cell.crash@*") as plan:
            with pytest.raises(InjectedFault, match="cell@k"):
                fault_hook("cell", "k")
        assert plan.fired

    def test_kill_raises_kill_point(self):
        with injected("cache.write.kill@result/replace"):
            with pytest.raises(FaultKillPoint):
                fault_hook("cache.write", "result/replace")

    def test_interrupt_raises_keyboard_interrupt(self):
        with injected("sweep.interrupt@*"):
            with pytest.raises(KeyboardInterrupt):
                fault_hook("sweep", "x")

    def test_exit_ends_the_process_with_its_code(self):
        def child():
            with injected("cell.exit@*|code=9"):
                fault_hook("cell", "k")

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 9

    def test_stall_sleeps_then_returns(self):
        with injected("cell.stall@*|secs=0.01"):
            start = time.perf_counter()
            fault_hook("cell", "x")
            assert time.perf_counter() - start >= 0.01

    def test_corrupt_flips_a_byte_keeping_length(self, tmp_path):
        path = tmp_path / "entry.bin"
        path.write_bytes(b"A" * 64)
        with injected("cache.entry.corrupt@*"):
            fault_hook("cache.entry", "trace/k", path)
        damaged = path.read_bytes()
        assert len(damaged) == 64 and damaged != b"A" * 64

    def test_truncate_shortens_deterministically(self, tmp_path):
        cuts = []
        for _ in range(2):
            path = tmp_path / "entry.bin"
            path.write_bytes(bytes(range(256)))
            with injected(parse("cache.entry.truncate@*", seed=7)):
                fault_hook("cache.entry", "trace/k", path)
            cuts.append(path.read_bytes())
        assert cuts[0] == cuts[1]
        assert len(cuts[0]) < 256
        assert bytes(range(256)).startswith(cuts[0])


class TestInstallation:
    def test_hook_is_noop_without_plan(self):
        clear()
        fault_hook("cell", "anything")  # must not raise

    def test_injected_restores_previous_plan(self):
        outer = FaultPlan([])
        install(outer)
        try:
            with injected("cell.crash@nothing"):
                assert active() is not outer
            assert active() is outer
        finally:
            clear()

    def test_install_from_parses_and_installs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cell.crash@*#1")
        plan = install_from(Settings.from_env())
        try:
            assert plan is active() and plan.seed == 0
        finally:
            clear()

    def test_install_from_keeps_inherited_plan_when_unset(self, monkeypatch):
        # A fork-inherited plan must survive a worker's install_from()
        # when the env var is absent.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        inherited = parse("cell.crash@never")
        install(inherited)
        try:
            assert install_from(Settings.from_env()) is None
            assert active() is inherited
        finally:
            clear()


class TestRetryPolicy:
    def test_deterministic_geometric_backoff(self):
        policy = RetryPolicy(attempts=4, backoff=0.1, factor=2.0, max_backoff=0.3)
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == [0.0, 0.1, 0.2, 0.3]

    def test_from_settings(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "5")
        monkeypatch.setenv("REPRO_RETRY_BASE", "0.25")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "30")
        policy = RetryPolicy.from_settings(Settings.from_env())
        assert (policy.attempts, policy.backoff, policy.timeout) == (5, 0.25, 30.0)

    def test_from_settings_defaults(self, monkeypatch):
        for env in ("REPRO_RETRIES", "REPRO_RETRY_BASE", "REPRO_CELL_TIMEOUT"):
            monkeypatch.delenv(env, raising=False)
        policy = RetryPolicy.from_settings(Settings.from_env())
        assert policy.attempts >= 1 and policy.timeout is None
