"""``repro.settings``: the one reader of the environment.

The grammar of every ``REPRO_*`` variable, the mis-parses ``Settings``
replaced (each case here failed at the parent commit), what a forked
worker inherits, and the three lists that must not drift apart:
the variables ``Settings`` declares, the README's table, and the flags
the CLI's parsers declare against the README's CLI section.
"""

import dataclasses
import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.cli import build_parser, main
from repro.config import OramConfig
from repro.errors import ConfigurationError, NativeKernelUnavailable
from repro.fabric import FabricCoordinator, FabricWorker
from repro.resilience import RpcPolicy
from repro.settings import FALSE_WORDS, TRUE_WORDS, Settings
from repro.sim import native as native_pkg
from repro.sim.replay import resolve_replay_mode
from repro.sim.runner import SimulationRunner
from repro.storage import make_storage

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent
VARIABLES = {f.metadata["env"]: f for f in dataclasses.fields(Settings)}


def test_one_reader_of_the_environment():
    """A second module that reads a variable is a failing test."""
    sites = {"os.environ": set(), "getenv": set()}
    for path in SRC.rglob("*.py"):
        text = path.read_text("utf-8")
        for needle, found in sites.items():
            if needle in text:
                found.add(path.relative_to(SRC).as_posix())
    assert sites == {"os.environ": {"settings.py"}, "getenv": set()}


def test_thirteen_variables_and_no_field_without_one():
    assert len(VARIABLES) == 13 == len(dataclasses.fields(Settings))
    assert all(name.startswith("REPRO_") for name in VARIABLES)


class TestGrammar:
    def test_unset_and_empty_are_the_defaults(self):
        assert Settings.from_env({}) == Settings()
        assert Settings.from_env(dict.fromkeys(VARIABLES, "  ")) == Settings()
        assert Settings().native == "on" and Settings().miss_budget == 6_000

    @pytest.mark.parametrize("word", FALSE_WORDS + ("OFF", " No "))
    def test_false_words_mean_false_everywhere(self, word):
        settings = Settings.from_env({
            "REPRO_FULL": word, "REPRO_FORCE": word, "REPRO_NATIVE": word,
            "REPRO_TRACE_CACHE": word, "REPRO_RESULT_CACHE": word,
            "REPRO_RPC_TIMEOUT": word, "REPRO_CELL_TIMEOUT": word,
        })
        assert settings.miss_budget == 6_000 and not settings.force
        assert settings.native == "off" and settings.rpc_timeout is None
        assert settings.cell_timeout is None
        assert settings.trace_cache is None and settings.result_cache is None

    @pytest.mark.parametrize("word", TRUE_WORDS + ("Yes", " ON "))
    def test_true_words_mean_true_everywhere(self, word):
        settings = Settings.from_env({
            "REPRO_FULL": word, "REPRO_FORCE": word, "REPRO_NATIVE": word,
            "REPRO_TRACE_CACHE": word,
        })
        assert settings.miss_budget == 50_000 and settings.force
        assert settings.native == "on"
        assert settings.trace_cache == Settings().trace_cache

    def test_a_cache_directory_is_a_path(self, tmp_path):
        settings = Settings.from_env({"REPRO_RESULT_CACHE": str(tmp_path)})
        assert settings.result_cache == str(tmp_path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_NATIVE", "requrie"),
            ("REPRO_FULL", "maybe"),
            ("REPRO_FORCE", "2"),
            ("REPRO_WORKERS", "two"),
            ("REPRO_WORKERS", "0"),
            ("REPRO_RETRIES", "three"),
            ("REPRO_RETRY_BASE", "fast"),
            ("REPRO_RETRY_BASE", "-1"),
            ("REPRO_CELL_TIMEOUT", "soon"),
            ("REPRO_CELL_TIMEOUT", "nan"),
            ("REPRO_RPC_TIMEOUT", "never"),
            ("REPRO_CONNECT_RETRIES", "3.5"),
            ("REPRO_FAULTS_SEED", "x"),
        ],
    )
    def test_a_bad_value_names_the_variable_and_what_it_accepts(self, name, value):
        with pytest.raises(ConfigurationError) as caught:
            Settings.from_env({name: value})
        message = str(caught.value)
        assert message.startswith(f"{name}={value!r}: expected ")

    def test_values_valid_before_keep_their_meaning(self):
        settings = Settings.from_env({
            "REPRO_NATIVE": "require", "REPRO_FULL": "1",
            "REPRO_CONNECT_RETRIES": "3", "REPRO_RPC_TIMEOUT": "30",
            "REPRO_RESULT_CACHE": "/tmp/fabric-smoke/results-golden",
            "REPRO_RETRIES": "0", "REPRO_WORKERS": "4",
        })
        assert settings.native == "require"
        assert settings.miss_budget == 50_000 and settings.workers == 4
        assert settings.retries == 1  # below 1 has always meant 1
        assert RpcPolicy.from_settings(settings, seed=2) == RpcPolicy(
            connect_attempts=3, timeout=30.0, seed=2
        )
        assert settings.result_cache == "/tmp/fabric-smoke/results-golden"
        assert Settings.from_env({"REPRO_RPC_TIMEOUT": "-5"}).rpc_timeout is None

    def test_a_zero_cell_timeout_is_no_timeout(self):
        """``0`` used to be a timeout of 0 s, which reclaimed every forked cell."""
        assert Settings.from_env({"REPRO_CELL_TIMEOUT": "0"}).cell_timeout is None
        assert Settings.from_env({"REPRO_CELL_TIMEOUT": "off"}).cell_timeout is None
        assert Settings.from_env({"REPRO_CELL_TIMEOUT": "2.5"}).cell_timeout == 2.5

    def test_names_it_does_not_declare_are_ignored(self):
        """The benchmark harness still pins two tier variables beside
        ``REPRO_NATIVE=require``; what they say is what the fast tier now
        is, and an environment that sets them parses as if they were
        unset, as does any other name ``Settings`` does not declare."""
        pins = benchmark_pins()
        assert len(pins) == 3 and pins["REPRO_NATIVE"] == "require"
        assert Settings.from_env(pins) == Settings(native="require")
        assert Settings.from_env(
            {"REPRO_FIGURE_CACHE": "figures", "REPRO_UNKNOWN": "?"}
        ) == Settings()


def benchmark_pins():
    """The ``REPRO_*`` variables ``perf/run.py`` pins for every workload."""
    spec = importlib.util.spec_from_file_location("perf_run", ROOT / "perf" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {k: v for k, v in module.pinned_env().items() if k.startswith("REPRO_")}


class TestCallersReadTheEnvironmentWhenTheyRun:
    """No process-global cache: a per-test ``setenv`` takes effect."""

    def test_full_zero_is_the_default_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "0")
        assert SimulationRunner(cache_dir=None, result_cache_dir=None).misses == 6_000
        monkeypatch.setenv("REPRO_FULL", "1")
        assert SimulationRunner(cache_dir=None, result_cache_dir=None).misses == 50_000

    def test_force_y_forces_and_cache_no_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE", "y")
        monkeypatch.setenv("REPRO_TRACE_CACHE", "no")
        runner = SimulationRunner(result_cache_dir=None)
        assert runner.force is True and runner.trace_cache is None

    def test_a_native_typo_aborts_like_a_replay_typo(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "requrie")
        with pytest.raises(ConfigurationError, match="REPRO_NATIVE"):
            native_pkg.load_native_core()
        with pytest.raises(ConfigurationError, match="REPRO_NATIVE"):
            resolve_replay_mode()

    def test_retry_variables_fail_with_their_name(self, monkeypatch):
        runner = SimulationRunner(
            misses_per_benchmark=40, cache_dir=None, result_cache_dir=None
        )
        monkeypatch.setenv("REPRO_RETRIES", "three")
        with pytest.raises(ConfigurationError, match="REPRO_RETRIES='three'"):
            runner.execute(runner.cells(["P_X16"], ["gob"]))

    def test_the_pinned_triple_is_the_native_fast_tier(self, monkeypatch):
        """The environment the benchmark pins is the fast tier with
        columnar storage, or a hard error."""
        for name, value in benchmark_pins().items():
            monkeypatch.setenv(name, value)
        assert Settings.from_env().native == "require"
        monkeypatch.setattr(
            native_pkg, "_CORE_CACHE", [(None, "the native extension is not built")]
        )
        with pytest.raises(NativeKernelUnavailable, match="REPRO_NATIVE=require"):
            resolve_replay_mode()
        with pytest.raises(NativeKernelUnavailable, match="build_ext --inplace"):
            make_storage("default", OramConfig(num_blocks=64))

    @pytest.mark.parametrize("storage", ("object", "columnar", "tree"))
    @pytest.mark.parametrize("replay", ("scalar", "compiled", "batched"))
    def test_retired_tier_variables_pick_nothing(
        self, monkeypatch, replay, storage
    ):
        """Whatever the two retired variables say, each ``REPRO_NATIVE``
        value resolves the tier and the default storage it resolves
        alone: three environments pick a tier, not twenty-seven."""

        def outcome():
            try:
                mode = resolve_replay_mode()
                kind = type(make_storage("default", OramConfig(num_blocks=64)))
            except NativeKernelUnavailable as exc:
                return str(exc)
            return mode, kind

        for policy in ("on", "off", "require"):
            monkeypatch.setenv("REPRO_NATIVE", policy)
            monkeypatch.delenv("REPRO_REPLAY", raising=False)
            monkeypatch.delenv("REPRO_STORAGE", raising=False)
            alone = outcome()
            monkeypatch.setenv("REPRO_REPLAY", replay)
            monkeypatch.setenv("REPRO_STORAGE", storage)
            assert outcome() == alone, policy


# -- what a child process inherits -------------------------------------------------

FLAGS = ["--force", "--faults", "cell.crash@never"]


def _seen():
    """Runs in the child: the settings it reads, the plan it installed."""
    settings = Settings.from_env()
    plan = faults.active()
    return [
        settings.force, str(settings.trace_cache),
        [spec.to_entry() for spec in plan.specs] if plan is not None else None,
    ]


@pytest.fixture
def exported_flags(tmp_path):
    """``main()`` has parsed FLAGS + a trace cache and exported them."""
    saved = {name: os.environ.get(name) for name in VARIABLES}
    assert main([*FLAGS, "--trace-cache", str(tmp_path / "t"), "list"]) == 0
    # The parent's own install: a child has to get the plan from the
    # exported variable, not from memory it was forked with.
    faults.clear()
    yield [True, str(tmp_path / "t"), ["cell.crash@never"]]
    for name, value in saved.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


def test_a_forked_worker_sees_the_flags_its_parent_was_started_with(
    exported_flags, tmp_path, monkeypatch
):
    """``_spawn_worker``'s own child reports what it read, then exits."""
    seen = tmp_path / "seen.json"

    def run(worker):
        seen.write_text(json.dumps(_seen()), "utf-8")
        return 0

    monkeypatch.setattr(FabricWorker, "run", run)
    runner = SimulationRunner(misses_per_benchmark=40, result_cache_dir=None)
    with FabricCoordinator(runner, spawn=1) as coordinator:
        (child,) = coordinator._procs
        child.join(timeout=60)
    assert child.exitcode == 0
    assert json.loads(seen.read_text("utf-8")) == exported_flags


# -- the three lists ---------------------------------------------------------------

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text("utf-8")
    start = text.index(f"\n{title}\n") + 1
    end = text.find("\n## ", start + len(title))
    return text[start:end if end != -1 else None]


def test_readme_table_names_exactly_the_declared_variables():
    rows = re.findall(
        r"^\| `(REPRO_[A-Z_]+)` \|", _readme_section("## Command line and environment"),
        re.MULTILINE,
    )
    assert sorted(rows) == sorted(VARIABLES)


def test_readme_and_generated_help_name_exactly_the_declared_flags():
    declared = set()
    for parser in build_parser()[1]:
        own = {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert own <= set(_FLAG.findall(parser.format_help()))
        declared |= own
    for parser in build_parser()[1]:
        # Prose may mention another parser's flag; nothing undeclared.
        assert set(_FLAG.findall(parser.format_help())) <= declared
    readme = set(_FLAG.findall(_readme_section("## Command line and environment")))
    assert readme == declared
