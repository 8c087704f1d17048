"""Each experiment's platform, and the cache keys its runner produces.

The key pins are hex digests recorded before the figures' runners were
built from one platform table: a warm trace or result store stays warm
only while every saved figure keys its traces and cells exactly as it
did then.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro.eval.saved as saved_mod
from repro.config import Platform, ProcessorConfig
from repro.dram.config import DramConfig
from repro.eval import SAVED_SWEEPS
from repro.eval.paper_values import PLATFORMS, TABLE1, report
from repro.fabric import FabricCoordinator
from repro.sim.runner import SimulationRunner

#: The fields a row holds values in (the rest document them).
VALUE_FIELDS = tuple(
    f.name for f in dataclasses.fields(Platform) if f.name not in ("name", "sources", "note")
)

#: ``{figure: (trace key of gob, first cell's key, insecure baseline's key)}``
#: at 400 misses per benchmark.
PINNED_KEYS = {
    "ablation-plb": (
        "e51a50b68d1da8a13ab03792f011838b6ad66042",
        "53bee350655623a76bc50b4a0ae74d8309fa5a82",
        "9d2c594673adffe1e02c68723031962aebe44f22",
    ),
    "fig5": (
        "e51a50b68d1da8a13ab03792f011838b6ad66042",
        "c2e9b52d7d7edf6f5ddcf516cdc5002fda5ce6c3",
        "9d2c594673adffe1e02c68723031962aebe44f22",
    ),
    "fig6": (
        "e51a50b68d1da8a13ab03792f011838b6ad66042",
        "27231c6d22b26dc0aa1344aff1ff2dbde235d352",
        "9d2c594673adffe1e02c68723031962aebe44f22",
    ),
    "fig7": (
        "e51a50b68d1da8a13ab03792f011838b6ad66042",
        "1822ccc85b1026240f6157622e853dcf87206a76",
        "9d2c594673adffe1e02c68723031962aebe44f22",
    ),
    "fig8": (
        "31575aba3d3b5e6a49a21f979de7b4a8a9dd7235",
        "43a100473ae8df0337f3c429e38297a9d9bb8af9",
        "4f6b27e8194e71c02e4c359270a3d20e5d5c6f57",
    ),
    "fig9": (
        "60679654331d5a952af98ee6726c8cae9b524204",
        "5ffed3f4b59dca777e53e2af9c4d382e68efc477",
        "3be1b4c86ff3c88cc1217154dfd23a1fa25112ed",
    ),
}


class _Captured(Exception):
    """Stops a figure's run at its first sweep, carrying its runner."""

    def __init__(self, sweep, runner):
        super().__init__("captured")
        self.sweep, self.runner = sweep, runner


def _first_sweep_and_runner(name, monkeypatch):
    """The (sweep, runner) a figure's ``run(["gob"], 400)`` hands to its
    first ``run_sweep``."""

    def capture(sweep, runner, *args, **kwargs):
        raise _Captured(sweep, runner)

    monkeypatch.setattr(saved_mod, "run_sweep", capture)
    with pytest.raises(_Captured) as caught:
        SAVED_SWEEPS[name].run(["gob"], 400)
    return caught.value.sweep, caught.value.runner


@pytest.mark.parametrize("name", sorted(SAVED_SWEEPS))
def test_figure_cache_keys_are_pinned(name, monkeypatch):
    sweep, runner = _first_sweep_and_runner(name, monkeypatch)
    first_label = sweep.points()[0][0]
    assert (
        runner.trace_cache_key("gob"),
        runner.result_key(first_label, "gob"),
        runner.result_key("insecure", "gob"),
    ) == PINNED_KEYS[name]


def test_table1_row_is_the_component_defaults():
    """The row and ProcessorConfig / DramConfig cannot drift apart."""
    assert TABLE1.proc == ProcessorConfig()
    assert TABLE1.dram == DramConfig()
    assert SimulationRunner().platform is TABLE1


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_every_value_names_its_source(name):
    row = PLATFORMS[name]
    assert row.name == name
    assert sorted(row.sources) == sorted(VALUE_FIELDS)
    assert all(row.sources.values())


@pytest.mark.parametrize("name", sorted(SAVED_SWEEPS))
def test_figure_runner_is_built_from_its_row(name):
    row = PLATFORMS[name]
    runner = saved_mod.figure_runner(name, 400)
    assert runner.platform is row
    assert (runner.proc.line_bytes, runner.proc.core_ghz) == (row.line_bytes, row.core_ghz)
    assert runner.dram.channels == row.channels
    assert runner.misses == 400
    assert not hasattr(SAVED_SWEEPS[name], "make_runner")


def test_runner_takes_one_platform():
    params = inspect.signature(SimulationRunner).parameters
    assert "platform" in params
    for gone in ("proc", "dram", "proc_ghz", "plb_capacity_bytes", "onchip_entries"):
        assert gone not in params


def test_the_runner_a_forked_worker_inherits_keeps_the_row():
    """A fork inherits the coordinator's runner, attached to the shared
    store: it must key traces and cells as the figure's own runner does."""
    runner = saved_mod.figure_runner("fig8", 400)
    coordinator = FabricCoordinator(runner)
    try:
        inherited = coordinator.runner
        assert inherited.platform == runner.platform
        assert inherited.platform.sources == runner.platform.sources
        assert inherited.result_key("PC_X64", "gob") == runner.result_key("PC_X64", "gob")
        assert inherited.trace_cache_key("gob") == runner.trace_cache_key("gob")
    finally:
        coordinator.close()


def test_phantom_depth_is_derived_from_its_row():
    """Fig. 9's (L + 1) of Phantom's path: 2^20 blocks of 4 KB, L = 19."""
    phantom = PLATFORMS["phantom"]
    assert phantom.oram.levels == 19
    assert phantom.capacity_bytes == PLATFORMS["fig9"].capacity_bytes


def test_scorecard_header_names_the_row(capsys):
    report("fig8", {})
    header = capsys.readouterr().out.splitlines()[1]
    assert header.startswith("[platform fig8: 128 B lines, 128 B blocks, Z=3, 4 ch, 2.6 GHz;")
    assert "capacity: paper 4 GiB, simulated " in header
    report("table2", {})
    assert "closed form at the paper's" in capsys.readouterr().out
