"""CLI dispatch."""

import hashlib
import json
import os
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import fabric
from repro.cli import EXPERIMENTS, build_parser, main
from repro.errors import SpecError
from repro.fabric import FabricExecutor
from repro.sim import native as native_pkg
from repro.settings import FALSE_WORDS, TRUE_WORDS, Settings
from repro.sim.sweep import SweepSpec

from helpers import strip_wall

NATIVE_ENV = "REPRO_NATIVE"
FORCE_ENV = "REPRO_FORCE"
WORKERS_ENV = "REPRO_WORKERS"
CACHE_ENV = "REPRO_TRACE_CACHE"
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "table2", "fig6", "hashbw"):
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_rejected(self, capsys):
        assert main(["fig99"]) == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err

    def test_bench_is_not_a_command(self, capsys):
        assert main(["bench"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bench'" in err
        assert "bench" not in err.split("choose from")[1]

    def test_runs_cheap_experiment(self, capsys):
        assert main(["table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_multiple_names(self, capsys):
        assert main(["compression", "hashbw"]) == 0
        out = capsys.readouterr().out
        assert "compressed PosMap" in out
        assert "hashbw.reduction.L16 " in out

    def test_registry_complete(self):
        assert set(EXPERIMENTS) >= {
            "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table2", "table3", "hashbw", "compression",
        }


class TestHelp:
    """``--help`` everywhere: generated, exit 0, nothing replayed."""

    COMMANDS = ("", "sweep", "serve")

    @pytest.mark.parametrize("index", range(3), ids=COMMANDS)
    def test_help_lists_every_declared_flag(self, index, capsys):
        command, parser = self.COMMANDS[index].split(), build_parser()[1][index]
        assert main([*command, "--help"]) == 0
        captured = capsys.readouterr()
        declared = [
            option for action in parser._actions for option in action.option_strings
        ]
        assert "--help" in declared and len(declared) > 2
        for option in declared:
            assert option in captured.out
        assert captured.out.startswith(f"usage: python -m repro {' '.join(command)}")
        assert parser.format_help() == captured.out
        assert captured.err == ""  # no tier line: nothing resolved, nothing run

    def test_an_experiment_has_help_too(self, capsys):
        assert main(["fig6", "--help"]) == 0
        captured = capsys.readouterr()
        assert "--workers" in captured.out and captured.err == ""

    def test_a_bad_variable_exits_2_naming_it_even_for_list(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "requrie")
        assert main(["list"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("REPRO_NATIVE='requrie': expected ")
        assert captured.out == ""

    def test_an_oversized_deadline_exits_2_naming_it(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1e300")
        assert main(["list"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("REPRO_CELL_TIMEOUT='1e300': expected ")


class TestRemovedFabricFlags:
    """Every worker is forked: nothing binds a port or dials one."""

    def test_sweep_has_no_connect_flag(self, capsys):
        assert main(["sweep", "--connect", "127.0.0.1:1"]) == 2
        assert "unrecognized arguments: --connect" in capsys.readouterr().err
        assert main(["sweep", "--help"]) == 0
        assert "--connect" not in capsys.readouterr().out

    def test_there_is_no_fabric_command(self, capsys):
        assert main(["fabric", "serve-worker", "--connect", "127.0.0.1:1"]) == 2
        assert "invalid choice: 'fabric'" in capsys.readouterr().err
        assert main(["list"]) == 0
        assert "serve-worker" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["fabric"], ["fabric", "--help"], ["fabric", "serve-worker", "--help"],
         ["--workers", "2", "fabric", "serve-worker"]],
        ids=["bare", "help", "serve-worker-help", "after-global-flags"],
    )
    def test_fabric_is_a_usage_error_in_every_form(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'fabric'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["connect_retries", "faults_seed"])
    def test_settings_has_no_dial_or_damage_seed_field(self, field):
        assert not hasattr(Settings(), field)


class TestRemovedServeSweep:
    """A sweep is replay cells: a serving scenario is one ``serve`` run,
    and the fabric runs through ``runner.execute`` or a coordinator."""

    @pytest.mark.parametrize("axis", ["tenants=2", "shards=1,2"])
    def test_serve_words_are_no_grid_axis(self, axis):
        with pytest.raises(SpecError, match="unknown spec field"):
            SweepSpec.from_args(["PC_X32"], grid=[axis])

    def test_sweep_refuses_a_shards_axis(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--grid", "shards=1,2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "shards" in err and "python -m repro serve" in err
        assert "benchmark axes: misses, wss" in err
        assert not out.exists()

    def test_fabric_executor_takes_only_a_coordinator(self):
        with pytest.raises(TypeError):
            FabricExecutor(workers=2)

    def test_the_fabric_has_no_store_of_its_own(self):
        assert not hasattr(fabric, "SharedStore")
        assert "SharedStore" not in fabric.__all__


_WORDS = set(TRUE_WORDS + FALSE_WORDS)
_paths = (
    st.text(
        st.characters(blacklist_characters="\x00", blacklist_categories=["Cs"]),
        min_size=1,
    )
    .filter(lambda text: text == text.strip() and text.lower() not in _WORDS)
)
_seconds = st.floats(min_value=0, allow_nan=False, allow_infinity=False)
#: A deadline: positive, and no longer than a Python wait takes.
_deadlines = st.floats(
    min_value=0, max_value=threading.TIMEOUT_MAX, exclude_min=True
)
_settings = st.builds(
    Settings,
    native=st.sampled_from(["on", "off", "require"]),
    workers=st.integers(min_value=1),
    trace_cache=st.none() | _paths,
    result_cache=st.none() | _paths,
    force=st.booleans(),
    full=st.booleans(),
    retries=st.integers(min_value=1),
    retry_base=_seconds,
    cell_timeout=st.none() | _deadlines,
    faults=st.text(st.characters(blacklist_categories=["Cs"])).map(str.strip),
)


class TestExport:
    """What ``main`` exports is what every child reads back."""

    @given(_settings)
    def test_to_env_round_trips(self, settings):
        env = settings.to_env()
        assert Settings.from_env(env) == settings
        assert Settings.from_env(env).to_env() == env

    def test_defaults_stay_unset(self):
        assert Settings().to_env() == {}
        assert Settings(workers=8, trace_cache=None, force=True).to_env() == {
            "REPRO_WORKERS": "8", "REPRO_TRACE_CACHE": "off", "REPRO_FORCE": "1",
        }


class TestCliFlags:
    @pytest.fixture(autouse=True)
    def _restore_env(self):
        """Undo env mutations made by ``main()`` during a test.

        ``monkeypatch.delenv(raising=False)`` on an absent variable
        records nothing, so a variable the CLI *sets* during the test
        would otherwise leak into the rest of the session (e.g.
        ``REPRO_WORKERS=4`` flipping later suites into pool mode).
        """
        keys = (WORKERS_ENV, CACHE_ENV, RESULT_CACHE_ENV, FORCE_ENV, NATIVE_ENV)
        saved = {key: os.environ.get(key) for key in keys}
        yield
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    def test_workers_flag_sets_env(self, capsys, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert main(["--workers", "4", "table2"]) == 0
        assert capsys.readouterr().out  # experiment still ran
        import os

        assert os.environ.get(WORKERS_ENV) == "4"

    def test_workers_equals_form(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert main(["--workers=2", "table2"]) == 0
        import os

        assert os.environ.get(WORKERS_ENV) == "2"

    def test_workers_rejects_bad_value(self, capsys):
        assert main(["--workers", "zero", "table2"]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_rejects_missing_value(self, capsys):
        assert main(["table2", "--workers"]) == 2
        assert "--workers: expected one argument" in capsys.readouterr().err

    def test_no_trace_cache_flag(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert main(["--no-trace-cache", "table2"]) == 0
        import os

        assert os.environ.get(CACHE_ENV) == "off"

    def test_trace_cache_dir_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert main([f"--trace-cache={tmp_path}", "table2"]) == 0
        import os

        assert os.environ.get(CACHE_ENV) == str(tmp_path)

    def test_no_result_cache_flag(self, monkeypatch):
        monkeypatch.delenv(RESULT_CACHE_ENV, raising=False)
        assert main(["--no-result-cache", "table2"]) == 0
        assert os.environ.get(RESULT_CACHE_ENV) == "off"

    def test_result_cache_dir_flag(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RESULT_CACHE_ENV, raising=False)
        assert main([f"--result-cache={tmp_path}", "table2"]) == 0
        assert os.environ.get(RESULT_CACHE_ENV) == str(tmp_path)

    def test_force_flag_sets_env(self, monkeypatch):
        monkeypatch.delenv(FORCE_ENV, raising=False)
        assert main(["--force", "table2"]) == 0
        assert os.environ.get(FORCE_ENV) == "1"

    def test_unknown_option_rejected(self, capsys):
        assert main(["--frobnicate", "table2"]) == 2
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    def test_list_mentions_options(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "--workers" in out and "--no-trace-cache" in out
        assert "--no-result-cache" in out and "--saved" in out
        assert "--force" in out and "--grid" in out
        assert "sweep" in out and "serve" in out
        for removed in ("  bench ", "array", "batched"):
            assert removed not in out


class TestTierLine:
    """One stderr line names the resolved replay tier, reports never."""

    def test_reference(self, capsys, monkeypatch):
        monkeypatch.setenv(NATIVE_ENV, "off")
        assert main(["table2"]) == 0
        assert capsys.readouterr().err == "replay tier reference\n"

    def test_fast_says_how_it_runs(self, capsys, fast_tier):
        assert main(["table2"]) == 0
        assert capsys.readouterr().err == "replay tier fast: native kernels\n"

    def test_a_fallen_back_reference_says_how_to_build(self, capsys, monkeypatch):
        monkeypatch.delenv(NATIVE_ENV, raising=False)
        monkeypatch.setattr(
            native_pkg, "_CORE_CACHE", [(None, "the native extension is not built")]
        )
        assert main(["table2"]) == 0
        assert capsys.readouterr().err == (
            "replay tier reference — build it with: "
            "python setup.py build_ext --inplace\n"
        )

    def test_stale_env_value_is_an_error_naming_the_survivors(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv(NATIVE_ENV, "batched")
        assert main(["table2"]) == 2
        captured = capsys.readouterr()
        assert "REPRO_NATIVE='batched'" in captured.err
        assert "'require'" in captured.err and "off" in captured.err
        assert "Table 2" not in captured.out

    def test_list_and_fabric_do_not_replay_and_print_none(self, capsys):
        assert main(["list"]) == 0
        assert main(["fabric"]) == 2
        assert "replay tier" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("sweep", "serve"))
    def test_subcommands_print_it_and_keep_it_out_of_the_report(
        self, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "traces"))
        monkeypatch.setenv(RESULT_CACHE_ENV, str(tmp_path / "results"))
        monkeypatch.setenv(NATIVE_ENV, "off")
        out = tmp_path / "report.json"
        extra = ["--scheme", "PC_X32"] if command == "sweep" else ["--requests", "20"]
        assert main([
            command, "--bench", "gob", "--misses", "120", "--out", str(out), *extra,
        ]) == 0
        assert capsys.readouterr().err == "replay tier reference\n"
        text = out.read_text("utf-8")
        assert "tier" not in text and "scalar" not in text


class TestCliSweep:
    @pytest.fixture(autouse=True)
    def _isolated_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "traces"))
        monkeypatch.setenv(RESULT_CACHE_ENV, str(tmp_path / "results"))
        # The CLI exports its settings into os.environ (monkeypatch can't
        # see that); restore them so e.g. --workers can't leak session-wide.
        keys = (WORKERS_ENV, FORCE_ENV, NATIVE_ENV, "REPRO_FAULTS")
        saved = {key: os.environ.get(key) for key in keys}
        yield
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    def test_sweep_smoke_writes_report(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep",
            "--scheme", "PC_X32",
            "--bench", "gob",
            "--grid", "plb=4KiB,8KiB",
            "--misses", "120",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "geomean" in printed and f"wrote {out}" in printed
        import json

        report = json.loads(out.read_text("utf-8"))
        assert report["kind"] == "sweep"
        assert len(report["cells"]) == 2  # 2 grid points x 1 benchmark

    def test_workers_sweep_runs_on_forked_fabric_workers(self, tmp_path):
        import json

        args = [
            "sweep", "--scheme", "PC_X32", "--bench", "gob", "--bench", "hmmer",
            "--grid", "plb=4KiB,8KiB", "--misses", "120",
        ]
        serial, forked = tmp_path / "serial.json", tmp_path / "forked.json"
        assert main(["--no-result-cache", *args, "--out", str(serial)]) == 0
        assert main([
            "--workers", "2", "--no-result-cache", *args, "--out", str(forked),
        ]) == 0
        golden, report = (json.loads(p.read_text("utf-8")) for p in (serial, forked))
        assert "fabric" not in golden["resilience"]
        fabric = report["resilience"].pop("fabric")
        assert fabric["completed"] == 4  # the grid cells; baselines stay here
        assert fabric["workers_joined"] == 2
        assert report == golden

    def test_sweep_spec_string_scheme(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep",
            "--scheme", "PC_X32:ways=2",
            "--bench", "gob",
            "--misses", "120",
            "--out", str(out),
        ])
        assert code == 0
        assert "plb_ways=2" in capsys.readouterr().out

    def test_sweep_bad_grid_rejected(self, capsys):
        assert main(["sweep", "--grid", "frobnication=1,2"]) == 2
        assert "sweep error" in capsys.readouterr().err

    def test_sweep_unknown_scheme_rejected(self, capsys):
        assert main(["sweep", "--scheme", "NOPE", "--bench", "gob"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_sweep_unknown_option_rejected(self, capsys):
        assert main(["sweep", "--frobnicate"]) == 2
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    def test_sweep_after_experiment_is_unknown_experiment(self, capsys):
        assert main(["fig6", "sweep"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_flag_value_named_sweep_not_hijacked(self, tmp_path, capsys):
        """A cache dir literally called 'sweep' must not trigger the
        subcommand."""
        sweep_dir = tmp_path / "sweep"
        code = main(["--trace-cache", str(sweep_dir), "table2"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_global_flags_before_sweep_accepted(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--workers", "1", "sweep",
            "--scheme", "PC_X32", "--bench", "gob",
            "--misses", "120", "--out", str(out),
        ])
        assert code == 0 and out.exists()

    def test_sweep_bench_grid_axes(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep",
            "--scheme", "PC_X32",
            "--bench", "gob",
            "--grid", "misses=100,200",
            "--out", str(out),
        ])
        assert code == 0
        assert "misses=100" in capsys.readouterr().out
        import json

        report = json.loads(out.read_text("utf-8"))
        assert [cell["misses"] for cell in report["cells"]] == [100, 200]

    def test_saved_sweep_runs_fig5(self, tmp_path, capsys):
        out = tmp_path / "saved.json"
        code = main([
            "sweep", "--saved", "fig5",
            "--bench", "gob", "--misses", "120",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "geomean" in printed and f"wrote {out}" in printed
        import json

        report = json.loads(out.read_text("utf-8"))
        # The fig5 sweep: PC_X32 across the four PLB capacities.
        assert len(report["cells"]) == 4
        assert {c["spec"]["plb_capacity_bytes"] for c in report["cells"]} == {
            8 * 1024, 32 * 1024, 64 * 1024, 128 * 1024
        }

    def test_saved_sweep_default_out_names_figure(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "sweep", "--saved", "fig7", "--bench", "gob", "--misses", "120",
        ])
        assert code == 0
        assert (tmp_path / "SWEEP_fig7.json").exists()

    def test_saved_sweep_fig8_uses_platform_runner(self, tmp_path, capsys):
        out = tmp_path / "fig8.json"
        code = main([
            "sweep", "--saved", "fig8",
            "--bench", "gob", "--misses", "120",
            "--out", str(out),
        ])
        assert code == 0
        import json

        report = json.loads(out.read_text("utf-8"))
        # [26]'s parameters: every scheme row pins Z=3.
        assert all(
            c["spec"]["blocks_per_bucket"] == 3 for c in report["cells"]
        )

    def test_saved_rejects_unknown_figure(self, capsys):
        assert main(["sweep", "--saved", "fig99"]) == 2
        assert "fig5" in capsys.readouterr().err

    def test_saved_rejects_scheme_combination(self, capsys):
        code = main(["sweep", "--saved", "fig5", "--scheme", "PC_X32"])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--resume"], ["--checkpoint", "DIR"]], ids=["resume", "checkpoint"]
    )
    def test_journal_flags_are_gone(self, flags, capsys):
        """A sweep is finished by running it again; there is no journal."""
        assert main(["sweep", *flags]) == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_quarantined_baseline_renders_a_dash_and_keeps_the_report(
        self, tmp_path, capsys
    ):
        out = tmp_path / "sweep.json"
        assert main([
            "--no-result-cache", "--faults", "cell.crash@insecure/gob/*",
            "sweep", "--scheme", "PC_X32", "--bench", "gob", "--bench", "hmmer",
            "--misses", "120", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr()
        report = json.loads(out.read_text("utf-8"))
        (failure,) = report["resilience"]["quarantined"]
        assert (failure["scheme"], failure["benchmark"]) == ("insecure", "gob")
        gob, hmmer = report["cells"]
        assert "slowdown" not in gob and hmmer["slowdown"] > 1
        (row,) = [line for line in printed.out.splitlines() if "PC_X32" in line]
        assert row.split() == [
            "PC_X32", "-", f"{hmmer['slowdown']:.2f}", f"{hmmer['slowdown']:.2f}",
        ]
        assert "re-running the sweep recomputes every cell" in printed.err

    def test_interrupted_sweep_finishes_when_run_again(self, tmp_path, capsys):
        args = [
            "sweep", "--scheme", "PC_X32", "--bench", "gob", "--bench", "hmmer",
            "--grid", "plb=4KiB,8KiB", "--misses", "120",
        ]
        golden = tmp_path / "golden.json"
        assert main(["--no-result-cache", *args, "--out", str(golden)]) == 0
        golden_out = capsys.readouterr().out
        out, store = tmp_path / "sweep.json", tmp_path / "store"
        assert main([
            "--result-cache", str(store), "--faults", "sweep.interrupt@*#2",
            *args, "--out", str(out),
        ]) == 130
        err = capsys.readouterr().err
        assert f"result store {store}; re-run the same sweep" in err
        assert json.loads(out.read_text("utf-8"))["resilience"]["interrupted"]
        os.environ.pop("REPRO_FAULTS")
        assert main(["--result-cache", str(store), *args, "--out", str(out)]) == 0
        rerun_out = capsys.readouterr().out
        report = json.loads(out.read_text("utf-8"))
        resilience = report.pop("resilience")
        assert (resilience["from_cache"], resilience["executed"]) == (2, 4)
        expected = json.loads(golden.read_text("utf-8"))
        expected.pop("resilience")
        assert report == expected
        # The same table, under a different report path.
        assert rerun_out.replace(str(out), "") == golden_out.replace(str(golden), "")
        assert not list(tmp_path.rglob("*.ckpt*"))

    def test_a_forced_sweep_is_finished_without_force(self, tmp_path, capsys):
        """``--force`` stores but never loads: the re-run drops it."""
        store, out = tmp_path / "store", tmp_path / "sweep.json"
        args = [
            "--result-cache", str(store), "sweep", "--scheme", "PC_X32",
            "--bench", "gob", "--misses", "120", "--out", str(out),
        ]
        assert main(["--force", "--faults", "sweep.interrupt@*#1", *args]) == 130
        assert "re-run the same sweep without --force" in capsys.readouterr().err
        os.environ.pop("REPRO_FAULTS")
        os.environ.pop(FORCE_ENV)
        assert main(args) == 0
        resilience = json.loads(out.read_text("utf-8"))["resilience"]
        assert (resilience["from_cache"], resilience["executed"]) == (1, 1)


class TestCliServe:
    @pytest.fixture(autouse=True)
    def _isolated_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "traces"))
        monkeypatch.setenv(RESULT_CACHE_ENV, str(tmp_path / "results"))

    @pytest.mark.parametrize("tenants, shards, digest", [
        (1, 1, "d491befa715d0906c0e959a675ce736676f107a1135823c3cbf3dcf663c8d4f1"),
        (1, 2, "c8b25f955c272c1d83854667aab2c283b58152275975daa0f1e4944511ecd617"),
        (2, 1, "a02d1b0c38603863080a1ea84dae567159355bdb6dc467ba19822488503242ae"),
        (2, 2, "a4257018346e4ec1a45cd6c9ccf8d8d9a3fc6ba61885eed843f99874c88d0a72"),
    ])
    def test_a_serve_run_is_a_deleted_serve_sweep_cell(
        self, tenants, shards, digest, tmp_path, capsys
    ):
        """Each cell of the deleted ``--grid tenants=1,2 --grid shards=1,2``
        sweep (PC_X32 over hmmer, seed 5, 400 misses) is one ``serve`` run:
        the digests are of those cells' ``serve`` blocks, recorded before
        the serve axes were deleted, with host wall time stripped."""
        out = tmp_path / "serve.json"
        assert main([
            "serve", "--scheme", "PC_X32", "--bench", "hmmer",
            "--tenants", str(tenants), "--shards", str(shards),
            "--seed", "5", "--misses", "400", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text("utf-8"))
        blob = json.dumps(strip_wall(report), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_serve_smoke_writes_report(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main([
            "serve",
            "--tenants", "2", "--shards", "2",
            "--bench", "gob", "--bench", "hmmer",
            "--requests", "40", "--misses", "150",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "2 tenant(s) on 2 shard(s)" in printed
        assert f"wrote {out}" in printed
        import json

        report = json.loads(out.read_text("utf-8"))
        assert report["kind"] == "serve"
        assert [t["name"] for t in report["tenants"]] == ["t0:gob", "t1:hmmer"]
        assert report["totals"]["requests"] == 80

    def test_serve_demo_preset(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        # Explicit flags override the demo presets (smaller here for speed)
        # while still exercising the demo roster, which includes a mix.
        code = main([
            "serve", "--demo",
            "--requests", "30", "--misses", "150",
            "--out", str(out),
        ])
        assert code == 0
        import json

        report = json.loads(out.read_text("utf-8"))
        assert len(report["tenants"]) == 4
        assert len(report["shards"]) == 2
        assert any("+" in t["benchmark"] for t in report["tenants"])

    def test_serve_rejects_unknown_option(self, capsys):
        assert main(["serve", "--frobnicate"]) == 2
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["panic", "throttle"])
    def test_serve_rejects_bad_policy(self, capsys, policy):
        assert main(["serve", "--policy", policy]) == 2
        err = capsys.readouterr().err
        # The parse-time message enumerates every valid policy, so the
        # rejection doubles as discovery.
        assert "choose from 'defer', 'shed'" in err

    def test_serve_has_no_mode_flag(self, capsys):
        # One epoch loop: there is no driver to choose.
        assert main(["serve", "--help"]) == 0
        assert "--mode" not in capsys.readouterr().out
        assert main(["serve", "--mode", "async"]) == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--admission", "--deadline", "--quota", "--throttle-epochs",
         "--degrade-after", "--recover-after"],
    )
    def test_serve_has_no_overload_flags(self, capsys, flag):
        # FIFO admission and a defer-or-shed queue are all there is.
        assert main(["serve", "--help"]) == 0
        assert flag not in capsys.readouterr().out
        assert main(["serve", flag, "2"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-3", "0", "x"])
    @pytest.mark.parametrize(
        "flag",
        ["--tenants", "--shards", "--requests", "--burst", "--max-batch",
         "--queue-cap", "--seed", "--misses"],
    )
    def test_serve_rejects_non_positive_counts(self, capsys, flag, value):
        assert main(["serve", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "positive integer" in err

    def test_max_batch_is_the_rows_of_one_replay_call(self):
        """A shard runs its whole epoch queue every epoch, in ``run_batch``
        calls of at most ``max_batch`` rows; it is not an epoch's cap."""
        (serve,) = [p for p in build_parser()[1] if p.prog.endswith(" serve")]
        (action,) = [a for a in serve._actions if "--max-batch" in a.option_strings]
        assert action.help == (
            "requests per replay call (a shard runs its whole epoch queue, "
            "N at a time)"
        )

    def test_serve_flags_reach_the_report(self, tmp_path, capsys):
        out = tmp_path / "shed.json"
        code = main([
            "serve", "--tenants", "2", "--bench", "gob",
            "--requests", "20", "--misses", "150",
            "--burst", "8", "--queue-cap", "2", "--policy", "shed",
            "--out", str(out),
        ])
        assert code == 0
        assert "policy shed" in capsys.readouterr().out
        import json

        report = json.loads(out.read_text("utf-8"))
        assert report["config"]["policy"] == "shed"
        assert report["config"]["queue_capacity"] == 2
        assert report["totals"]["shed"] > 0
        assert report["totals"]["requests"] + report["totals"]["shed"] == 40

    def test_serve_unknown_benchmark_is_serve_error(self, capsys):
        code = main(["serve", "--bench", "nonesuch", "--requests", "5"])
        assert code == 2
        assert "serve error" in capsys.readouterr().err

    def test_list_mentions_serve(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out and "--tenants" in out and "--policy" in out
