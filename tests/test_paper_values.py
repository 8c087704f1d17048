"""The paper-value table and the gate every benchmark checks it with."""

import pytest

from repro.cli import EXPERIMENTS
from repro.eval import paper_values
from repro.eval.paper_values import PAPER, ROWS, Row, report


@pytest.fixture
def rows(monkeypatch):
    """Swap in synthetic rows: one closed-form experiment, one saved sweep."""
    synthetic = (
        Row("table2.plain", 10, "x", 1),
        Row("table2.listed", 10, "x", 1, "a known cause"),
        Row("fig6.plain", 10, "x", 1),
    )
    monkeypatch.setattr(paper_values, "ROWS", synthetic)
    monkeypatch.delenv("REPRO_FULL", raising=False)
    return synthetic


def test_rows_inside_or_listed_pass(rows, capsys):
    assert report("table2", {"table2.plain": 10.5, "table2.listed": 20}) == []
    out = capsys.readouterr().out
    assert "table2.listed" in out and "deviation  a known cause" in out


def test_an_unlisted_row_outside_tolerance_fails(rows):
    assert report("table2", {"table2.plain": 12, "table2.listed": 20}) == ["table2.plain"]


def test_a_listed_row_back_inside_fails(rows, capsys):
    assert report("table2", {"table2.plain": 10, "table2.listed": 10.5}) == ["table2.listed"]
    assert "back inside" in capsys.readouterr().out


def test_a_missing_row_fails(rows):
    assert report("table2", {"table2.plain": 10}) == ["table2.listed"]


def test_a_saved_sweep_is_checked_only_at_the_paper_budget(rows, monkeypatch, capsys):
    assert report("fig6", {"fig6.plain": 99}, misses=300) == []
    assert "300 misses/benchmark, checked at 50000" in capsys.readouterr().out
    monkeypatch.setenv("REPRO_FULL", "1")
    assert report("fig6", {"fig6.plain": 99}) == ["fig6.plain"]
    assert "50000 misses/benchmark, checked]" in capsys.readouterr().out


def test_keys_are_unique():
    assert len(PAPER) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.key)
def test_row_is_well_formed(row):
    assert row.tol > 0
    assert row.key.split(".")[0] in EXPERIMENTS
