"""Integrity layer vs the active adversary, across every block store.

The paper's integrity guarantees (PMMAC §6.2, the Merkle baseline §6.3)
are properties of the *scheme*, not of the tree's in-memory
representation — so tampered buckets and replayed (stale) counters must
be detected **identically** whether the tree lives as bucket objects or
columnar slot arenas. Each scenario here runs the same seeded attack
under ``storage=object/columnar`` and asserts not just "detected" but *detected at the same access index*.

Also covers the Merkle adapter over the bucket-object store (it refuses
a columnar one) and the negative control: with no integrity layer, the
same tampering silently succeeds everywhere.

The native frontend kernel (PMMAC verify/seal in C, as a hook inside the
backend kernel's tree access) gets the same attacks, against the
frontend's interpreted access over the same columnar backend: same
detection index, same message, and the same state afterwards — the data
block's access rolled back through the backend's one ``_abort_access``,
a PosMap block's refill left where the interpreted path leaves it.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.adversary.tamper import StorageTamperer
from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend, make_backend
from repro.config import OramConfig
from repro.crypto.mac import Mac
from repro.errors import ConfigurationError, IntegrityViolationError
from repro.integrity.adapter import MerkleVerifiedStorage
from repro.presets import build_frontend
from repro.sim.native import load_native_core, unavailable_reason
from repro.storage import make_storage
from repro.storage.snapshot import tree_digest, tree_records
from repro.utils.rng import DeterministicRng

STORAGES = ("object", "columnar")

CORE = load_native_core()
#: Columnar frontends run on the native access kernel.
needs_core = pytest.mark.skipif(CORE is None, reason=unavailable_reason())

#: Small PMMAC frontends so tampering targets land in the tree quickly.
PMMAC_KWARGS = dict(
    num_blocks=2**8,
    onchip_entries=2**3,
    plb_capacity_bytes=1024,
)


def pmmac_frontend(storage: str, posmap_format: str = "flat"):
    scheme = "PI_X8" if posmap_format == "flat" else "PIC_X32"
    return build_frontend(
        scheme, rng=DeterministicRng(19), storage=storage, **PMMAC_KWARGS
    )


def detection_step(frontend, addr: int, rounds: int = 80) -> Optional[int]:
    """First access index at which reading ``addr`` raises, or None."""
    for step in range(rounds):
        try:
            frontend.read(addr)
        except IntegrityViolationError:
            return step
    return None


@needs_core
@pytest.mark.parametrize("posmap_format", ["flat", "compressed"])
class TestPmmacTamperAcrossStorages:
    """Data corruption / MAC corruption / deletion / counter replay."""

    def _prepared(self, posmap_format):
        """One frontend per storage, driven through identical traffic."""
        frontends = {}
        for storage in STORAGES:
            frontend = pmmac_frontend(storage, posmap_format)
            frontend.write(42, b"\xAA" * 64)
            rng = DeterministicRng(2)
            for _ in range(60):
                frontend.read(rng.randrange(2**8))
            frontends[storage] = frontend
        return frontends

    def _assert_identical_detection(self, frontends, attack):
        steps = {}
        for storage, frontend in frontends.items():
            tamperer = StorageTamperer(frontend.backend.storage)
            assert attack(tamperer, frontend), "block still in stash after traffic"
            steps[storage] = detection_step(frontend, 42)
        assert steps["object"] is not None, "tampering went undetected"
        assert steps["object"] == steps["columnar"]

    def test_data_corruption_detected_identically(self, posmap_format):
        self._assert_identical_detection(
            self._prepared(posmap_format),
            lambda tamperer, _frontend: tamperer.corrupt_data(42, byte_offset=5),
        )

    def test_mac_corruption_detected_identically(self, posmap_format):
        self._assert_identical_detection(
            self._prepared(posmap_format),
            lambda tamperer, _frontend: tamperer.corrupt_mac(42),
        )

    def test_block_deletion_detected_identically(self, posmap_format):
        """Erasure cannot masquerade as never-written (counter > 0)."""
        self._assert_identical_detection(
            self._prepared(posmap_format),
            lambda tamperer, _frontend: tamperer.delete_block(42),
        )

    def test_replayed_counters_detected_identically(self, posmap_format):
        """Whole-tree rollback: stale counters must fail freshness checks."""
        steps = {}
        for storage in STORAGES:
            frontend = pmmac_frontend(storage, posmap_format)
            frontend.write(7, b"\x01" * 64)
            rng = DeterministicRng(3)
            for _ in range(30):
                frontend.read(rng.randrange(2**8))
            tamperer = StorageTamperer(frontend.backend.storage)
            tamperer.snapshot()
            frontend.write(7, b"\x02" * 64)
            for _ in range(30):
                frontend.read(rng.randrange(2**8))
            tamperer.replay_all()
            step = None
            for index in range(120):
                try:
                    frontend.read(rng.randrange(2**8))
                except IntegrityViolationError:
                    step = index
                    break
            steps[storage] = step
        assert steps["object"] is not None, "replay attack went undetected"
        assert steps["object"] == steps["columnar"]


@needs_core
class TestNoIntegrityNegativeControl:
    """Without PMMAC the same corruption silently succeeds — everywhere."""

    def test_corruption_undetected_without_pmmac(self):
        outcomes = {}
        for storage in STORAGES:
            frontend = build_frontend(
                "P_X16",
                rng=DeterministicRng(19),
                storage=storage,
                **PMMAC_KWARGS,
            )
            frontend.write(42, b"\xAA" * 64)
            rng = DeterministicRng(2)
            for _ in range(60):
                frontend.read(rng.randrange(2**8))
            tamperer = StorageTamperer(frontend.backend.storage)
            assert tamperer.corrupt_data(42, byte_offset=5), (
                "block still in stash after traffic"
            )
            outcomes[storage] = frontend.read(42)
        # The flipped bit reads back unnoticed, identically corrupted.
        assert outcomes["object"] == outcomes["columnar"]
        assert outcomes["object"] != b"\xAA" * 64


@pytest.mark.parametrize("storage", STORAGES)
def test_replay_all_empties_the_buckets_filled_since(storage):
    """A freshness attack rolls the tree back as it was, on either
    storage: buckets empty at the snapshot and filled since are emptied
    again, one by one or all at once."""
    if storage == "columnar" and CORE is None:
        pytest.skip(unavailable_reason())
    frontend = build_frontend(
        "P_X16", rng=DeterministicRng(19), storage=storage, **PMMAC_KWARGS
    )
    rng = DeterministicRng(3)
    for _ in range(20):
        frontend.read(rng.randrange(2**8))
    tree = frontend.backend.storage
    tamperer = StorageTamperer(tree)
    tamperer.snapshot()
    before = tree_records(tree)
    for _ in range(100):
        frontend.write(rng.randrange(2**8), bytes(64))
    filled = sorted(
        {index for index, _ in tree_records(tree)}
        - {index for index, _ in before}
    )
    assert len(filled) > 10
    tamperer.replay_bucket(filled[0])
    assert tree.bucket_records(filled[0]) == ()
    tamperer.replay_all()
    assert tree_records(tree) == before


class TestMerkleAcrossStorages:
    """The [25]-style Merkle baseline detects tampering over a bucket store."""

    def _verified_backend(self, kind: str):
        config = OramConfig(num_blocks=2**6, block_bytes=32)
        inner = make_storage(kind, config)
        verified = MerkleVerifiedStorage(inner, Mac(b"merkle-key-tests"))
        backend = make_backend(config, verified, DeterministicRng(5))
        assert isinstance(backend, PathOramBackend)
        return config, inner, backend

    def test_columnar_inner_store_refused(self):
        """Columnar storage has no bucket objects for the adapter to hash."""
        config = OramConfig(num_blocks=2**6, block_bytes=32)
        with pytest.raises(ConfigurationError, match="columnar storage"):
            MerkleVerifiedStorage(make_storage("columnar", config), Mac(b"k" * 16))

    @pytest.mark.parametrize("kind", ["object"])
    def test_honest_operation_verifies(self, kind):
        config, _inner, backend = self._verified_backend(kind)
        rng = DeterministicRng(11)
        posmap = {}
        for step in range(80):
            addr = rng.randrange(32)
            new_leaf = rng.random_leaf(config.levels)

            def update(block, step=step):
                block.data = bytes([step % 256]) * 32

            backend.access(Op.WRITE, addr, posmap.get(addr, 0), new_leaf,
                           update=update)
            posmap[addr] = new_leaf

    @pytest.mark.parametrize("kind", ["object"])
    def test_bucket_tamper_detected(self, kind):
        config, inner, backend = self._verified_backend(kind)
        rng = DeterministicRng(11)
        posmap = {}
        for _ in range(40):
            addr = rng.randrange(32)
            new_leaf = rng.random_leaf(config.levels)
            backend.access(Op.READ, addr, posmap.get(addr, 0), new_leaf)
            posmap[addr] = new_leaf
        tamperer = StorageTamperer(inner)
        target = next(a for a in posmap if tamperer.find(a) is not None)
        assert tamperer.corrupt_data(target)
        with pytest.raises(IntegrityViolationError, match="Merkle root"):
            backend.access(Op.READ, target, posmap[target], 0)

    @pytest.mark.parametrize("kind", ["object"])
    def test_bucket_replay_detected(self, kind):
        """Restoring a stale bucket image breaks the hash chain."""
        config, inner, backend = self._verified_backend(kind)
        rng = DeterministicRng(11)
        posmap = {}

        def traffic(rounds):
            for step in range(rounds):
                addr = rng.randrange(32)
                new_leaf = rng.random_leaf(config.levels)

                def update(block, step=step):
                    block.data = bytes([step % 256]) * 32

                backend.access(Op.WRITE, addr, posmap.get(addr, 0), new_leaf,
                               update=update)
                posmap[addr] = new_leaf

        traffic(30)
        tamperer = StorageTamperer(inner)
        tamperer.snapshot()
        traffic(30)
        tamperer.replay_all()
        with pytest.raises(IntegrityViolationError, match="Merkle root"):
            traffic(40)

    def test_merkle_detection_step_identical_across_storages(self):
        """Same seeded attack -> same first-failing access, run after run
        (the adapter takes a bucket-object store only, so the columnar
        leg is gone)."""
        steps = {}
        for run in ("first", "second"):
            config, inner, backend = self._verified_backend("object")
            rng = DeterministicRng(13)
            posmap = {}
            for _ in range(40):
                addr = rng.randrange(32)
                new_leaf = rng.random_leaf(config.levels)
                backend.access(Op.READ, addr, posmap.get(addr, 0), new_leaf)
                posmap[addr] = new_leaf
            tamperer = StorageTamperer(inner)
            tamperer.snapshot()
            # Mutate then roll back one bucket on a known-resident path.
            target = next(a for a in posmap if tamperer.find(a) is not None)
            index, _position = tamperer.find(target)
            tamperer.corrupt_data(target)
            step = None
            for attempt in range(60):
                addr = rng.randrange(32)
                try:
                    backend.access(
                        Op.READ, addr, posmap.get(addr, 0),
                        rng.random_leaf(config.levels),
                    )
                except IntegrityViolationError:
                    step = attempt
                    break
            steps[run] = step
        assert steps["first"] is not None
        assert steps["first"] == steps["second"]


# ---------------------------------------------------------------------------
# The same attacks against the native frontend kernel
# ---------------------------------------------------------------------------


def kernel_pair(scheme: str, **overrides):
    """A columnar frontend on its interpreted access and one whose
    frontend kernel is engaged too (both backends are the kernel)."""
    fields = dict(PMMAC_KWARGS, storage="columnar", **overrides)
    ref = build_frontend(scheme, rng=DeterministicRng(19), **fields)
    nat = build_frontend(scheme, rng=DeterministicRng(19), **fields)
    nat.enable_native_kernel(CORE)
    assert isinstance(nat._kernel, CORE.FrontendKernel)
    return ref, nat


def outcome(frontend, addrs):
    """(index, message) of the first violation reading ``addrs``, then
    the state it left: statistics, crypto counters, PLB tags, tree and
    stash images, backend counters."""
    detected = None
    for index, addr in enumerate(addrs):
        try:
            frontend.read(addr)
        except IntegrityViolationError as exc:
            detected = (index, str(exc))
            break
    backend, crypto = frontend.backend, frontend.crypto
    return (
        detected,
        frontend.stats,
        (crypto.mac.call_count, crypto.mac.bytes_hashed,
         crypto.prf.call_count),
        (sorted(entry.tagged_addr for entry in frontend.plb.entries()),
         frontend.plb._clock),
        tree_digest(backend.storage),
        backend.stash_snapshot(),
        (backend.access_count, backend.tree_access_count,
         backend.append_count),
    )


@needs_core
@pytest.mark.parametrize("scheme", ["PI_X8", "PIC_X32"])
class TestPmmacTamperOnTheNativeKernel:
    def prepared(self, scheme, **overrides):
        pair = kernel_pair(scheme, **overrides)
        for frontend in pair:
            frontend.write(42, b"\xAA" * 64)
            rng = DeterministicRng(2)
            for _ in range(60):
                frontend.read(rng.randrange(2**8))
        return pair

    def assert_same_detection(self, pair, attack, addrs):
        outcomes = []
        for frontend in pair:
            assert attack(StorageTamperer(frontend.backend.storage)), (
                "target not in the tree after traffic"
            )
            outcomes.append(outcome(frontend, addrs))
        assert outcomes[0][0] is not None, "tampering went undetected"
        assert outcomes[0] == outcomes[1]
        # Both frontends stay in step after the violation (a lost PosMap
        # block keeps failing its subtree, identically).
        assert outcome(pair[0], [9, 200]) == outcome(pair[1], [9, 200])

    @pytest.mark.parametrize(
        "attack",
        [
            lambda tamperer: tamperer.corrupt_data(42, byte_offset=5),
            lambda tamperer: tamperer.corrupt_mac(42),
            lambda tamperer: tamperer.delete_block(42),
        ],
        ids=["corrupt-data", "corrupt-mac", "delete"],
    )
    def test_data_block_attacks(self, scheme, attack):
        """Caught inside the data access: the backend rolls it back."""
        self.assert_same_detection(self.prepared(scheme), attack, [42] * 80)

    def test_posmap_block_corruption(self, scheme):
        """Caught after the readrmv of a refill: nothing to roll back.
        (A two-entry PLB, so most level-1 blocks live in the tree.)"""
        pair = self.prepared(scheme, plb_capacity_bytes=128)
        ref = pair[0]
        tamperer = StorageTamperer(ref.backend.storage)
        tag = next(
            ref.space.tag(1, index)
            for index in range(ref.space.level_blocks(1))
            if tamperer.find(ref.space.tag(1, index)) is not None
        )
        child = (tag & ((1 << 48) - 1)) * ref.space.fanout
        self.assert_same_detection(
            pair, lambda tamperer: tamperer.corrupt_data(tag), [child] * 4
        )

    def test_replayed_counters(self, scheme):
        pair = kernel_pair(scheme)
        outcomes = []
        for frontend in pair:
            frontend.write(7, b"\x01" * 64)
            rng = DeterministicRng(3)
            for _ in range(30):
                frontend.read(rng.randrange(2**8))
            tamperer = StorageTamperer(frontend.backend.storage)
            tamperer.snapshot()
            frontend.write(7, b"\x02" * 64)
            for _ in range(30):
                frontend.read(rng.randrange(2**8))
            tamperer.replay_all()
            outcomes.append(
                outcome(frontend, [rng.randrange(2**8) for _ in range(120)])
            )
        assert outcomes[0][0] is not None, "replay attack went undetected"
        assert outcomes[0] == outcomes[1]


@needs_core
def test_kernel_negative_control_reads_the_corruption_silently():
    ref, nat = kernel_pair("P_X16")
    reads = []
    for frontend in (ref, nat):
        frontend.write(42, b"\xAA" * 64)
        rng = DeterministicRng(2)
        for _ in range(60):
            frontend.read(rng.randrange(2**8))
        tamperer = StorageTamperer(frontend.backend.storage)
        assert tamperer.corrupt_data(42, byte_offset=5), (
            "block still in stash after traffic"
        )
        reads.append(frontend.read(42))
    assert reads[0] == reads[1] != b"\xAA" * 64
    assert outcome(ref, []) == outcome(nat, [])
