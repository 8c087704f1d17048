"""The committed scorecards: one entry per paper row, and today's values.

``scorecard.json`` (the paper's budget) is checked value by value by the
paper-budget benchmarks; here its shape, and the default-budget image
``scorecard_default.json`` rebuilt whole from ``repro all``'s rows on
the fast tier (both tiers print the same rows, which CI's compiled lane
diffs).
"""

import json

import pytest

from repro.eval import scorecard
from repro.eval.paper_values import ROWS
from repro.settings import Settings

CARDS = {
    "full": (scorecard.SCORECARD, Settings(full=True)),
    "default": (scorecard.DEFAULT_SCORECARD, Settings()),
}


@pytest.mark.parametrize("name", CARDS)
def test_one_entry_per_row_and_nothing_else(name):
    path, settings = CARDS[name]
    card = json.loads(path.read_text(encoding="utf-8"))
    assert set(card) == {"budget", "rows"}
    assert card["budget"] == settings.miss_budget
    assert [entry["key"] for entry in card["rows"]] == [row.key for row in ROWS]
    for entry in card["rows"]:
        assert set(entry) == {"key", "ours", "status"}


def test_the_closed_forms_are_the_same_at_either_budget():
    full, default = (scorecard.load(path) for path, _ in CARDS.values())
    closed = [
        (a, b) for a, b in zip(full["rows"], default["rows"])
        if a["key"].partition(".")[0] in ("fig3", "table2", "table3", "compression", "hashbw")
    ]
    assert closed and all(a == b for a, b in closed)


def test_the_default_budget_image_is_todays(fast_tier, monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    ours = scorecard.headlines()
    assert scorecard.image(ours, Settings()) == scorecard.load(scorecard.DEFAULT_SCORECARD)


def test_moved_names_the_rows_off_the_card():
    card = scorecard.load()
    ours = {entry["key"]: entry["ours"] for entry in card["rows"]}
    assert scorecard.moved("fig9", ours, card) == []
    ours["fig9.speedup"] += 0.1  # one printed place: 25.0 -> 25.1
    assert scorecard.moved("fig9", ours, card) == ["fig9.speedup"]
    del ours["fig9.byte_ratio"]
    assert scorecard.moved("fig9", ours, card) == ["fig9.speedup", "fig9.byte_ratio"]
