"""Unit tests for repro.utils.stats."""

import math
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend.stash import OccupancyStats
from repro.config import OramConfig
from repro.crypto.pad import PadGenerator
from repro.frontend import FrontendStats
from repro.presets import build_frontend
from repro.serve.stats import ShardStats, TenantStats
from repro.sim.native import load_native_core, unavailable_reason
from repro.storage.columnar import ColumnarTreeStorage
from repro.storage.encrypted import EncryptedTreeStorage
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng
from repro.utils.stats import (
    LEDGERS,
    LedgerSlot,
    RunningStats,
    chi_square_uniform,
    geometric_mean,
    histogram,
    normalize,
)
from lockstep import ledger_owners


class TestGeometricMean:
    def test_constant(self):
        assert geometric_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestHistogram:
    def test_counts(self):
        assert histogram([1, 2, 2, 3, 3, 3]) == {1: 1, 2: 2, 3: 3}

    def test_empty(self):
        assert histogram([]) == {}


class TestChiSquare:
    def test_uniform_is_small(self):
        stat, dof = chi_square_uniform([100, 100, 100, 100])
        assert stat == 0.0
        assert dof == 3

    def test_skewed_is_large(self):
        stat, _ = chi_square_uniform([400, 0, 0, 0])
        assert stat > 100

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError):
            chi_square_uniform([10])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chi_square_uniform([0, 0])


class TestRunningStats:
    def test_mean_and_extremes(self):
        rs = RunningStats()
        for x in (1.0, 2.0, 3.0):
            rs.add(x)
        assert rs.mean == pytest.approx(2.0)
        assert rs.min == 1.0
        assert rs.max == 3.0
        assert rs.count == 3

    def test_variance(self):
        rs = RunningStats()
        for x in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            rs.add(x)
        assert rs.variance == pytest.approx(32.0 / 7.0)
        assert rs.stddev == pytest.approx(math.sqrt(32.0 / 7.0))

    def test_variance_single_sample_is_zero(self):
        rs = RunningStats()
        rs.add(5.0)
        assert rs.variance == 0.0

    def test_as_dict_keys(self):
        rs = RunningStats()
        rs.add(1.0)
        assert set(rs.as_dict()) == {"count", "mean", "stddev", "min", "max"}

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_matches_direct_computation(self, values):
        rs = RunningStats()
        for v in values:
            rs.add(v)
        assert rs.mean == pytest.approx(sum(values) / len(values), abs=1e-6)
        assert rs.max == max(values)
        assert rs.min == min(values)


#: The serving layer's ledgers, whose owners are the same objects on
#: either tier.
SERVE_OWNERS = {"tenant": lambda: TenantStats("t0", "gob"), "shard": lambda: ShardStats(0)}


def owners_of(ledger, storage):
    """A PIC_X32 frontend's owners of ``ledger`` on ``storage`` (the helper
    every ledger test reads through), and the column they count in; a
    serving record for the serving layer's ledgers."""
    if ledger in SERVE_OWNERS:
        return [SERVE_OWNERS[ledger]()], "ledger"
    if storage == "columnar" and load_native_core() is None:
        pytest.skip(unavailable_reason())
    frontend = build_frontend(
        "PIC_X32", num_blocks=64, rng=DeterministicRng(1), storage=storage
    )
    column = "moments" if ledger == "moments" else "ledger"
    return ledger_owners(frontend)[ledger], column


#: (ledger, storage) for every owner of every ledger on both tiers; the
#: object stash's occupancy summary is a RunningStats, not a ledger, and
#: a serving record does not depend on the storage.
OWNED = [
    (ledger, storage)
    for ledger in LEDGERS
    for storage in ("object", "columnar")
    if storage == "columnar" and ledger not in SERVE_OWNERS
    or storage == "object" and ledger not in ("occupancy", "moments")
]


class TestLedgerSlot:
    """A counter is one slot of its owner's ``ledger``: the name and the
    slot are the same item, whichever side writes it, laid out as the
    table says on both tiers."""

    @pytest.mark.parametrize("ledger,storage", OWNED)
    def test_each_name_is_its_own_slot(self, ledger, storage):
        owners, column = owners_of(ledger, storage)
        layout = LEDGERS[ledger]
        for owner in owners:
            items = getattr(owner, column)
            assert items.typecode == layout.typecode
            assert list(items) == [0] * len(layout.slots)
            for index, name in enumerate(layout.slots):
                items[index] = 7 + index  # what a kernel writes
                assert getattr(owner, name) == 7 + index
                if isinstance(getattr(type(owner), name), LedgerSlot):
                    setattr(owner, name, 1000 + index)
                    assert items[index] == 1000 + index
            if column == "ledger":
                with pytest.raises(OverflowError):
                    setattr(owner, layout.slots[0], 2**63)
                with pytest.raises(TypeError):
                    setattr(owner, layout.slots[0], "seven")

    @pytest.mark.parametrize("storage", ["object", "columnar"])
    @pytest.mark.parametrize("ledger", ["plb", "mac", "storage"])
    def test_reset_counters_zeroes_the_ledger(self, ledger, storage):
        owners, _ = owners_of(ledger, storage)
        for owner in owners:
            owner.ledger[:] = array("q", range(1, len(owner.ledger) + 1))
            owner.reset_counters()
            if ledger == "plb":
                assert list(owner.ledger) == [1, 0, 0]  # the LRU clock runs on
            else:
                assert not any(owner.ledger)

    @pytest.mark.parametrize("kind", ["object", "encrypted", "columnar"])
    def test_every_storage_accounts_buckets_alike(self, kind):
        """The three storages share one accounting: a path read and written
        back is levels + 1 buckets each way, at the padded bucket size."""
        config = OramConfig(num_blocks=64, block_bytes=8)
        if kind == "encrypted":
            storage = EncryptedTreeStorage(config, PadGenerator(b"k" * 16))
        else:
            storage = (ColumnarTreeStorage if kind == "columnar" else TreeStorage)(config)
        suffix = "_slots" if kind == "columnar" else ""
        getattr(storage, "read_path" + suffix)(3)
        getattr(storage, "write_path" + suffix)(3)
        path = config.levels + 1
        assert (storage.buckets_read, storage.buckets_written) == (path, path)
        assert storage.bytes_read == storage.bytes_written == path * config.bucket_bytes
        assert storage.bytes_moved == 2 * path * config.bucket_bytes
        storage.reset_counters()
        assert list(storage.ledger) == [0, 0] and storage.bytes_moved == 0

    def test_frontend_stats_compare_by_value(self):
        a, b = FrontendStats(), FrontendStats()
        assert a == b
        b.plb_misses += 1
        assert a != b and b.tree_accesses == 0
        b.data_tree_accesses = 3
        assert (b.tree_accesses, b.posmap_fraction) == (3, 0.0)
        assert "plb_misses=1" in repr(b)

    @given(st.lists(st.integers(0, 200), max_size=40))
    def test_occupancy_columns_read_as_running_stats(self, samples):
        """What the access kernel writes into the two occupancy columns —
        ``RunningStats.add``'s arithmetic — reads back under the
        ``RunningStats`` names, sentinels included."""
        expected, occupancy = RunningStats(), OccupancyStats()
        for n in samples:
            expected.add(n)
            count, _, _ = occupancy.ledger
            mean, m2 = occupancy.moments
            delta = n - mean
            mean += delta / (count + 1)
            occupancy.moments[:] = array("d", (mean, m2 + delta * (n - mean)))
            occupancy.ledger[:] = array("q", (
                count + 1,
                max(n, occupancy.ledger[1]) if count else n,
                min(n, occupancy.ledger[2]) if count else n,
            ))
        for name in ("count", "mean", "_m2", "max", "min", "variance"):
            assert getattr(occupancy, name) == getattr(expected, name), name
        assert occupancy.as_dict() == expected.as_dict()


class TestNormalize:
    def test_divides(self):
        assert normalize([2.0, 4.0], 2.0) == [1.0, 2.0]

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            normalize([1.0], 0.0)
