"""Every table of the evaluation: goldens, saved sweeps and staleness.

A simulated figure is a saved sweep plus a pure ``table_from_report``
(:mod:`repro.eval`). The goldens below are literal tables recorded before
the figures moved onto that protocol, when each was a hand-rolled loop of
``run_one`` calls, at the scale of the smoke tests (``gob`` / ``hmmer``,
300-400 misses). They are float-equal on every tier: a change that moves
one changed simulated behaviour or a figure's arithmetic.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import pkgutil
from importlib import import_module

import pytest

import repro.eval
import repro.sim.runner as runner_mod
from repro.cli import main
from repro.dram.config import DramConfig
from repro.eval import (
    SAVED_SWEEPS,
    ablation_plb,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    saved,
    table2,
    table3,
)
from repro.errors import ReproError
from repro.faults import injected

GIB = 2**30


class TestGoldens:
    def test_fig5(self):
        assert fig5.run(["gob"], 400) == {
            "gob": {
                8192: 1.0,
                32768: 0.9726157943368773,
                65536: 0.9620834075433689,
                131072: 0.9620834075433689,
            }
        }

    def test_fig6(self):
        assert fig6.run(["gob", "hmmer"], 400) == {
            "R_X8": {
                "gob": 5.099116623280198,
                "hmmer": 4.603800660285363,
                "geomean": 4.845133277540406,
            },
            "PC_X32": {
                "gob": 4.833482901618732,
                "hmmer": 3.66401315914533,
                "geomean": 4.208318542605228,
            },
            "PIC_X32": {
                "gob": 5.502609613021863,
                "hmmer": 4.141030096505349,
                "geomean": 4.773517782185711,
            },
        }

    def test_fig7_bars(self):
        bars = [
            (b.scheme, b.capacity_bytes, b.total_kb, b.posmap_kb)
            for b in fig7.run(["gob"], 300)
        ]
        assert bars == [
            ("R_X8", 4 * GIB, 34.75, 18.5),
            ("P_X16", 4 * GIB, 39.578125, 22.703125),
            ("PC_X32", 4 * GIB, 31.36328125, 14.48828125),
            ("PI_X8", 4 * GIB, 56.220703125, 35.970703125),
            ("PIC_X32", 4 * GIB, 37.6357421875, 17.3857421875),
            ("R_X8", 16 * GIB, 38.0, 20.5),
            ("P_X16", 16 * GIB, 42.5107421875, 24.3857421875),
            ("PC_X32", 16 * GIB, 33.6865234375, 15.5615234375),
            ("PI_X8", 16 * GIB, 60.384765625, 38.634765625),
            ("PIC_X32", 16 * GIB, 40.423828125, 18.673828125),
            ("R_X8", 64 * GIB, 45.0, 26.25),
            ("P_X16", 64 * GIB, 45.4423828125, 26.0673828125),
            ("PC_X32", 64 * GIB, 36.009765625, 16.634765625),
            ("PI_X8", 64 * GIB, 64.5498046875, 41.2998046875),
            ("PIC_X32", 64 * GIB, 43.2109375, 19.9609375),
        ]

    def test_fig8(self):
        assert fig8.run(["gob"], 400) == (
            {
                "R_X8": {"gob": 6.754601143351807, "geomean": 6.754601143351807},
                "PC_X64": {"gob": 6.060493590968236, "geomean": 6.060493590968236},
                "PC_X32": {"gob": 4.964198785909554, "geomean": 4.964198785909554},
            },
            {
                "R_X8": {"gob": 4864.0},
                "PC_X64": {"gob": 6083.03317535545},
                "PC_X32": {"gob": 5144.265402843602},
            },
        )

    def test_fig9(self):
        assert fig9.run(["gob"], 300) == {"gob": 24.45987306194382}

    def test_ablations(self):
        assert ablation_plb.run(["gob", "hmmer"], 400) == (
            {
                1: 1.0,
                2: 0.9960856827546308,
                4: 0.9941659864263264,
                8: 0.9925857743699555,
            },
            {"gob": 1.0766323449469095, "hmmer": 1.1563174677831696},
        )

    def test_fig3(self):
        data = fig3.run()
        assert list(data) == ["b64_pm8", "b128_pm8", "b64_pm256", "b128_pm256"]
        for points in data.values():
            assert [c for c, _f in points] == list(range(30, 41))
        assert {label: [f for _c, f in points] for label, points in data.items()} == {
            "b64_pm8": [
                0.5555555555555556, 0.5614035087719298, 0.5666666666666667,
                0.5945945945945946, 0.6, 0.6049046321525886, 0.6268656716417911,
                0.6318289786223278, 0.6363636363636364, 0.6540880503144654,
                0.6586345381526104,
            ],
            "b128_pm8": [
                0.37462235649546827, 0.4098360655737705, 0.4155844155844156,
                0.4207920792079208, 0.4489795918367347, 0.45454545454545453,
                0.45962732919254656, 0.4827586206896552, 0.48807339449541287,
                0.49295774647887325, 0.5123152709359606,
            ],
            "b64_pm256": [
                0.47368421052631576, 0.4769874476987448, 0.5323741007194245,
                0.5360824742268041, 0.5394736842105263, 0.5797101449275363,
                0.5833333333333334, 0.5866666666666667, 0.6172248803827751,
                0.6206896551724138, 0.6238938053097345,
            ],
            "b128_pm256": [
                0.3300970873786408, 0.3333333333333333, 0.336283185840708,
                0.387434554973822, 0.39097744360902253, 0.3942307692307692,
                0.43383947939262474, 0.4375, 0.4408817635270541,
                0.4725274725274725, 0.47619047619047616,
            ],
        }

    def test_table2(self):
        assert table2.run() == {
            1: 2197.4881699775115,
            2: 1183.994916604198,
            4: 685.0443918665668,
            8: 435.56912949775113,
        }

    def test_table3(self):
        assert {ch: dataclasses.asdict(b) for ch, b in table3.run().items()} == {
            1: {
                "posmap": 0.0228, "plb": 0.03165, "pmmac": 0.039, "misc": 0.0043,
                "stash": 0.08900000000000001, "aes": 0.1259,
            },
            2: {
                "posmap": 0.0228, "plb": 0.03165, "pmmac": 0.039, "misc": 0.0046,
                "stash": 0.094, "aes": 0.1318,
            },
            4: {
                "posmap": 0.0228, "plb": 0.03165, "pmmac": 0.039, "misc": 0.0052,
                "stash": 0.10400000000000001, "aes": 0.2536,
            },
        }


def names_called(module) -> set:
    """Every global or attribute name the module's own functions load —
    what their code refers to, whatever their docstrings say."""
    names: set = set()

    def walk(code):
        names.update(code.co_names)
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const)

    for value in vars(module).values():
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            walk(value.__code__)
    return names


class TestSavedSweeps:
    def test_registry_is_exactly_the_simulated_figures(self):
        """A figure module that runs a simulation is a saved sweep: it
        exposes the protocol's ``sweep`` and ``table_from_report``, or
        builds its runner through ``saved.figure_runner``."""
        simulated = set()
        for info in pkgutil.iter_modules(repro.eval.__path__):
            module = import_module(f"repro.eval.{info.name}")
            if module is saved:  # the protocol's shared pieces, not a figure
                continue
            protocol = all(
                callable(getattr(module, name, None))
                for name in ("sweep", "table_from_report")
            )
            if protocol or "figure_runner" in names_called(module):
                simulated.add(module)
        assert set(SAVED_SWEEPS.values()) == simulated
        for name, module in SAVED_SWEEPS.items():
            assert module.__name__ == f"repro.eval.{name.replace('-', '_')}"

    @pytest.mark.parametrize("name", sorted(SAVED_SWEEPS))
    def test_cli_report_converts_to_the_figure(self, name, tmp_path, capsys):
        """``sweep --saved`` runs the sweep ``run()`` does, on its runner."""
        figure = SAVED_SWEEPS[name]
        out = tmp_path / "report.json"
        assert main([
            "sweep", "--saved", name, "--bench", "gob", "--misses", "400",
            "--out", str(out),
        ]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        assert not (tmp_path / "report.ckpt").exists()
        report = json.loads(out.read_text("utf-8"))
        extra = (
            (fig9.phantom_replays(saved.figure_runner("fig9", 400), ["gob"]),)
            if figure is fig9
            else ()
        )
        assert figure.table_from_report(report, *extra) == figure.run(["gob"], 400)

    def test_several_sweeps_write_a_list_of_reports(self, tmp_path):
        out = tmp_path / "ablation.json"
        assert main([
            "sweep", "--saved", "ablation-plb", "--bench", "gob",
            "--misses", "120", "--out", str(out),
        ]) == 0
        reports = json.loads(out.read_text("utf-8"))
        assert [r["schemes"] for r in reports] == [
            [f"PC_X32:plb_capacity_bytes=8192,plb_ways={w}" for w in (1, 2, 4, 8)],
            ["PC_X32:plb_capacity_bytes=65536", "PC_X32:plb_capacity_bytes=64"],
        ]


class TestIncompleteSweeps:
    """A figure never builds a table from a sweep that lost a cell."""

    @pytest.fixture(autouse=True)
    def _cold_results(self, monkeypatch, tmp_path):
        # A cell served from the result store never runs, so never crashes.
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))

    def test_quarantined_scheme_cell_raises(self):
        with injected("cell.crash@R_X8/gob/*"):
            with pytest.raises(ReproError, match=r"R_X8/gob"):
                fig6.run(["gob"], 300)

    def test_quarantined_baseline_raises(self):
        with injected("cell.crash@insecure/gob/*"):
            with pytest.raises(ReproError, match=r"insecure/gob"):
                fig6.run(["gob"], 300)

    @pytest.mark.parametrize("name", sorted(SAVED_SWEEPS))
    def test_every_figure_shares_the_check(self, name):
        with injected("cell.crash@PC_X32*/gob/*"):
            with pytest.raises(ReproError, match=r"quarantined"):
                SAVED_SWEEPS[name].run(["gob"], 120)


class TestWarmFigures:
    @pytest.mark.parametrize("name", sorted(SAVED_SWEEPS))
    def test_warm_run_replays_nothing(self, name, monkeypatch):
        """The result store serves every cell of a figure's second run."""
        figure = SAVED_SWEEPS[name]
        cold = figure.run(["gob"], 250)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a warm figure replayed a cell")

        monkeypatch.setattr(runner_mod, "replay_trace", boom)
        monkeypatch.setattr(runner_mod, "insecure_cycles", boom)
        monkeypatch.setattr(runner_mod, "synthesize_trace", boom)
        assert figure.run(["gob"], 250) == cold


class TestTablesAreRecomputed:
    """A table is derived from its cells on every call, never stored, so
    an input the cell keys cannot see still reaches it."""

    def test_table2_sees_a_changed_dram_timing(self, monkeypatch):
        before = table2.run()

        @dataclasses.dataclass(frozen=True)
        class SlowCas(DramConfig):
            t_cas: int = 30

        monkeypatch.setattr("repro.eval.table2.DramConfig", SlowCas)
        after = table2.run()
        assert after != before
        assert all(after[ch] > before[ch] for ch in before)

    def test_fig9_sees_a_changed_phantom_latency(self, monkeypatch):
        before = fig9.run(["gob"], 300)
        latency = fig9.phantom_oram_latency()
        monkeypatch.setattr(
            "repro.eval.fig9.phantom_oram_latency", lambda: 2 * latency
        )
        assert fig9.run(["gob"], 300)["gob"] > before["gob"]
