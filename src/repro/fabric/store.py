"""The trace + result stores every participant of a fabric run shares.

The fabric does not invent a storage format: the experiment engine
already content-addresses every artifact (:mod:`repro.sim.store` — miss
traces under ``trace_key``, replay results under ``result_key``).
:class:`SharedStore` only decides *where* those two stores live for the
duration of a run:

- every worker is attached to the *same* pair of directories, so a cell
  computed by any worker (including a worker that later dies) is
  instantly reusable by every other worker, by the coordinator's own
  pre-dispatch lookup, and by later local or fabric runs — same-key
  racers (two workers on one stolen cell) are safe by the store's
  atomic-write rule;
- when the runner's stores are disabled, an ephemeral directory pair is
  provisioned for the run, so cross-worker reuse works even for
  cache-less runs (cleaned up on :meth:`close`).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, Optional

from repro.sim.store import ResultCache, TraceCache


class SharedStore:
    """The trace + result store pair every fabric participant shares."""

    def __init__(self, runner):
        """Colocate with a runner's stores; ephemeral where it has none."""
        roots = [
            store.root if store is not None else None
            for store in (runner.trace_cache, runner.result_cache)
        ]
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if None in roots:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fabric-store-")
            base = Path(self._tmp.name)
            roots = [
                root if root is not None else base / subdir
                for root, subdir in zip(roots, ("traces", "results"))
            ]
        self.trace_cache = TraceCache(roots[0])
        self.result_cache = ResultCache(roots[1])

    def attach(self, runner):
        """A runner whose on-disk stores are this pair.

        This is the runner the coordinator's workers inherit when they
        are forked, so every worker process reads and writes the same
        content-addressed entries. Only the directories differ, so it
        shares ``runner``'s in-memory traces — the ones a forked worker
        inherits.
        """
        attached = runner.derive(
            cache_dir=self.trace_cache.root,
            result_cache_dir=self.result_cache.root,
        )
        attached._traces = runner._traces
        return attached

    def stats(self) -> Dict[str, object]:
        """JSON-safe inventory snapshot for the report's resilience block."""
        return {
            "trace_root": str(self.trace_cache.root),
            "result_root": str(self.result_cache.root),
            "traces": len(self.trace_cache.keys()),
            "results": len(self.result_cache.keys()),
            "ephemeral": self._tmp is not None,
        }

    def close(self) -> None:
        """Release the ephemeral directories, if this store owns any."""
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
