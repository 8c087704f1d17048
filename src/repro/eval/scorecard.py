"""The scorecard as committed files: our value of every paper row.

``scorecard.json`` beside this module holds, for every row of
:data:`repro.eval.paper_values.ROWS` in order, its key, our value to the
printed precision and its status, and the budget (misses per benchmark
of the simulated figures): what ``REPRO_FULL=1 python -m repro all``
prints. ``scorecard_default.json`` is the same at the default budget,
what ``python -m repro all`` prints. :func:`write` takes the values from
the rows ``repro all`` itself prints — every experiment's ``main()``,
whose ``headline()`` values :func:`~repro.eval.paper_values.report`
records — and ``python -m repro.eval.scorecard`` writes both files.

A change that moves a value regenerates the files in the same change,
so their diff is the change's effect on the scorecard. The paper-budget
benchmarks (``REPRO_FULL=1 pytest benchmarks``) fail on a row that
differs from ``scorecard.json`` (:func:`moved`); tier-1 rebuilds the
default-budget image and compares it whole.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from importlib import import_module
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.eval import ORDER
from repro.eval.paper_values import ROWS, is_checked, recording, status
from repro.settings import Settings

#: The scorecard at the paper's budget, and at the default one.
SCORECARD = Path(__file__).with_name("scorecard.json")
DEFAULT_SCORECARD = Path(__file__).with_name("scorecard_default.json")


def headlines(names=ORDER) -> Dict[str, float]:
    """The values the experiments' ``main()`` print beside the paper's,
    by key, at the configured budget (their tables are not printed)."""
    with recording() as values, contextlib.redirect_stdout(io.StringIO()):
        for name in names:
            import_module(f"repro.eval.{name.replace('-', '_')}").main()
    return values


def image(ours: Mapping[str, float], settings: Settings) -> Dict[str, object]:
    """The scorecard of ``ours`` under ``settings``: the budget, and one
    entry per row in ``ROWS`` order, with the status ``report`` prints."""
    return {
        "budget": settings.miss_budget,
        "rows": [
            {
                "key": row.key,
                "ours": None if value is None else float(row.printed(value)),
                "status": status(
                    row, value, is_checked(row.key.partition(".")[0], settings)
                ),
            }
            for row in ROWS
            for value in (ours.get(row.key),)
        ],
    }


def write(full: bool) -> Dict[str, object]:
    """Run every experiment at the paper's budget (``full``) or the
    default one and write that scorecard. The budget is exported to the
    process environment, as the CLI exports its settings."""
    settings = dataclasses.replace(Settings.from_env(), full=full)
    settings.export()
    card = image(headlines(), settings)
    rows = ",\n  ".join(json.dumps(entry) for entry in card["rows"])
    (SCORECARD if full else DEFAULT_SCORECARD).write_text(
        f'{{\n "budget": {card["budget"]},\n "rows": [\n  {rows}\n ]\n}}\n',
        encoding="utf-8",
    )
    return card


def load(path: Path = SCORECARD) -> Dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def moved(experiment: str, ours: Mapping[str, float],
          card: Optional[Mapping[str, object]] = None) -> List[str]:
    """The keys of ``experiment``'s rows whose value, as printed, is not
    the one in ``card`` (default: ``scorecard.json``)."""
    card = load() if card is None else card
    committed = {entry["key"]: entry["ours"] for entry in card["rows"]}
    out = []
    for row in (row for row in ROWS if row.key.startswith(f"{experiment}.")):
        value, stored = ours.get(row.key), committed[row.key]
        if (value is None) != (stored is None) or (
            value is not None and row.printed(value) != row.printed(stored)
        ):
            out.append(row.key)
    return out


if __name__ == "__main__":
    write(full=True)
    write(full=False)
