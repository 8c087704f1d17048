"""Sweep checkpoints: a :class:`~repro.sim.store.Store` of completed cells.

A journal is a directory (``SWEEP_*.ckpt/`` beside the report) holding
one atomically written JSON entry per completed sweep cell, stored the
moment the cell finishes under the cell's key: the runner's canonical
result digest for a replay cell (the same key the result cache uses —
every construction knob, seed, miss budget and benchmark folded in), a
digest of the scenario for a serve cell. A crash, ``kill -9`` or Ctrl-C
therefore loses at most the cells in flight; ``python -m repro sweep
--resume`` loads the entries and recomputes only the missing cells,
producing a report bit-identical to an uninterrupted run (JSON
round-trips Python floats exactly). An entry that does not decode is the
store's counted, warned eviction, so its cell is simply recomputed.

One ``header`` entry carries a fingerprint of the sweep + runner
identity. Resuming against a journal written by a *different* sweep is
refused with a clear error instead of silently recomputing everything
(the cell keys would simply never match). The fingerprint covers every
input of the report's cell order — points, benchmarks and both grids —
so a journal that passes it orders the report as the original run did.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import ConfigurationError
from repro.sim.store import Codec, Store

#: Bump when the journal's entry format changes.
#: v2: one store entry per cell (v1 was a JSONL file).
CHECKPOINT_VERSION = 2

#: Key of the entry holding the journal's identity.
HEADER = "header"


def sweep_fingerprint(sweep, runner) -> str:
    """Digest of the sweep + runner identity guarding journal reuse.

    Coarser than the per-cell keys (which already encode everything): its
    job is to catch the human error of pointing ``--resume`` at the wrong
    journal, so it folds in the expanded point labels, the benchmark
    matrix, and the runner knobs that change every cell.
    """
    import repro

    ident = {
        "points": [label for label, _spec in sweep.points()],
        "benchmarks": sweep.bench_names(),
        "bench_grid": [[axis, list(values)] for axis, values in sweep.bench_grid],
        "serve_grid": [[axis, list(values)] for axis, values in sweep.serve_grid],
        "seed": runner.seed,
        "misses": runner.misses,
        "proc_ghz": repr(runner.proc_ghz),
        "version": getattr(repro, "__version__", "0"),
    }
    blob = json.dumps(ident, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:40]


def default_checkpoint_path(out_path: Union[str, Path]) -> Path:
    """Journal location derived from a report path (``X.json`` -> ``X.ckpt``)."""
    out = Path(out_path)
    stem = out.name[: -len(".json")] if out.name.endswith(".json") else out.name
    return out.with_name(f"{stem}.ckpt")


def _decode_entry(data: bytes) -> dict:
    entry = json.loads(data.decode("utf-8"))
    if not isinstance(entry, dict):
        raise ValueError("a journal entry is a JSON object")
    return entry


JOURNAL_CODEC = Codec(
    kind="journal",
    suffix=".ckpt.json",
    evicted="sweep journal: evicted corrupt entry {name}; recomputing its cell",
    encode=lambda entry: json.dumps(entry, sort_keys=True).encode("utf-8"),
    decode=_decode_entry,
)


class SweepCheckpoint(Store):
    """Journal of completed sweep cells, one store entry per cell."""

    def __init__(self, path: Union[str, Path]):
        super().__init__(path, JOURNAL_CODEC)

    def start(self, fingerprint: str, resume: bool) -> Dict[str, dict]:
        """Start journaling; returns the completed entries when resuming.

        ``resume=False`` deletes the entries of any existing journal (and
        nothing else in the directory) and writes a fresh header.
        ``resume=True`` refuses a fingerprint mismatch and returns
        ``{key: payload}`` of every entry that loads. Header fields
        beyond the three checked (an older journal's ``order``) are
        ignored.
        """
        header = {
            "kind": "sweep-checkpoint",
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
        }
        if resume:
            entries = self._read(header)
        else:
            entries = {}
            self.clear()
        if not self.store(HEADER, header):
            raise ConfigurationError(f"cannot write a sweep journal under {self.root}")
        return entries

    def _read(self, header: dict) -> Dict[str, dict]:
        keys = [key for key in self.keys() if key != HEADER]
        found = self.load(HEADER)
        if found is None and not keys:
            return {}  # nothing to resume from
        if found is None or any(
            found.get(field) != header[field] for field in ("kind", "version")
        ):
            raise ConfigurationError(
                f"{self.root} is not a version-{CHECKPOINT_VERSION} sweep checkpoint"
            )
        if found.get("fingerprint") != header["fingerprint"]:
            raise ConfigurationError(
                f"{self.root} was written by a different sweep/runner "
                f"configuration; refusing to resume from it (delete the "
                f"journal or drop --resume to start fresh)"
            )
        loaded = {key: self.load(key) for key in keys}
        return {key: entry for key, entry in loaded.items() if entry is not None}

    def record(self, key: str, payload: dict) -> None:
        """Store one completed cell (idempotent per key: first write wins)."""
        if key not in self:
            self.store(key, payload)

    def clear(self) -> None:
        """Delete every journal entry; other files in the directory stay."""
        for key in self.keys():
            self.path_for(key).unlink(missing_ok=True)

    def retire(self) -> None:
        """Delete the journal: its entries, then the directory if empty."""
        self.clear()
        try:
            self.root.rmdir()
        except OSError:
            pass
