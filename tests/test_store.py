"""The one on-disk store: design invariants and on-disk compatibility.

Three things a store refactor must not do silently: grow a second
atomic-write site (or a second process pool), re-key entries, or
re-encode them. The golden digests and the fixture directory under
``tests/data/store_compat`` were produced by the per-kind cache
classes this store replaced, with ``repro.__version__`` pinned to
``"store-compat"`` so a release bump does not move them; a bump of
``TRACE_VERSION`` / ``RESULT_SCHEMA_VERSION`` is *supposed* to.
"""

import re
import shutil
import warnings
from pathlib import Path

import pytest

import repro
from repro.config import ProcessorConfig
from repro.dram.config import DramConfig
from repro.sim.runner import SimulationRunner
from repro.sim.store import ResultCache, TraceCache, result_key, trace_key

SRC = Path(repro.__file__).resolve().parent
FIXTURE = Path(__file__).parent / "data" / "store_compat"

TRACE_KEY = "01d8c59d8f55b302137eeacf45dd290a657e78ef"
CELL_KEY = "452d0559250e67d310c25f4ecb477a950b448c74"
INSECURE_KEY = "40a568085ecbb9eb6755d5e5a895a3990a6d67c9"


def test_one_atomic_write_site():
    """A second atomic writer or a second pool is a failing test, not a
    review note."""
    sites = {"os.replace": set(), "ProcessPoolExecutor(": set()}
    for path in SRC.rglob("*.py"):
        text = path.read_text("utf-8")
        for needle, found in sites.items():
            if needle in text:
                found.add(path.relative_to(SRC).as_posix())
    assert sites == {
        "os.replace": {"sim/store.py"},
        "ProcessPoolExecutor(": {"sim/runner.py"},
    }


#: A file write: ``write_bytes(`` / ``write_text(``, or ``open`` for writing.
_WRITES = re.compile(r"""write_bytes\(|write_text\(|\bopen\([^)]*["'][wa][bt+]*["']""")


def test_only_the_store_writes_files():
    """Whatever persists goes through the store; the ``--out`` report and
    the file-damaging fault are the only other writers."""
    writers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _WRITES.search(path.read_text("utf-8"))
    }
    assert writers == {"sim/store.py", "cli.py", "faults/plan.py"}


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setattr(repro, "__version__", "store-compat")


def _runner(root: Path) -> SimulationRunner:
    return SimulationRunner(
        seed=2015,
        misses_per_benchmark=40,
        cache_dir=root / "traces",
        result_cache_dir=root / "results",
    )


class TestKeyGoldens:
    def test_key_functions(self, pinned_version):
        proc, dram = ProcessorConfig(), DramConfig()
        assert trace_key("gob", 2015, proc, 40, 81920) == TRACE_KEY
        assert (
            result_key("insecure", "gob", 2015, proc, dram, 1.3, 40, 81920)
            == INSECURE_KEY
        )

    def test_runner_keys(self, pinned_version, tmp_path):
        runner = _runner(tmp_path)
        assert runner.trace_cache_key("gob") == TRACE_KEY
        assert runner.result_key("PC_X32", "gob") == CELL_KEY
        assert runner.result_key("insecure", "gob") == INSECURE_KEY
        (cell,) = runner.cells(["PC_X32"], ["gob"])
        (base,) = runner.baseline_cells(["gob"])
        assert (cell.key, base.key) == (CELL_KEY, INSECURE_KEY)


def test_entries_written_before_the_store_still_load(pinned_version, tmp_path):
    """A user's existing ``~/.cache/repro`` must survive the refactor."""
    root = tmp_path / "cache"
    shutil.copytree(FIXTURE, root)  # a failed load would unlink the entry
    stores = [
        (TraceCache(root / "traces"), TRACE_KEY),
        (ResultCache(root / "results"), CELL_KEY),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace, result = (store.load(key) for store, key in stores)
    assert sum(store.hits for store, _ in stores) == 2
    assert sum(store.misses for store, _ in stores) == 0
    assert sum(store.corrupt_evictions for store, _ in stores) == 0
    assert (trace.name, len(trace.events)) == ("gob", 41)
    assert (result.scheme, result.cycles) == ("PC_X32", 79842.30195839587)
    # ... and are what the runner would have computed: a runner over the
    # fixture serves the cell from it, and re-encoding changes no byte.
    runner = _runner(root)
    assert runner.run_one("PC_X32", "gob") == result
    assert runner.trace("gob") == trace
    assert runner.result_cache.hits == 1 and runner.result_cache.stores == 0
    for (store, key), value in zip(stores, (trace, result)):
        before = store.path_for(key).read_bytes()
        assert store.store(key, value)
        assert store.path_for(key).read_bytes() == before
