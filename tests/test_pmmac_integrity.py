"""PMMAC integrity verification against an active adversary (§6).

These tests run the PIC/PI frontends over *real* encrypted storage and
mount the §2 threat-model attacks with the Tamperer: data corruption,
block deletion, and whole-tree replay. Every attack must be detected the
moment the affected block becomes the block of interest.
"""

import pytest

from repro.adversary.tamper import Tamperer
from repro.backend.ops import Op
from repro.crypto.suite import CryptoSuite
from repro.errors import IntegrityViolationError
from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec
from repro.storage.encrypted import EncryptedTreeStorage, EncryptionScheme
from repro.utils.rng import DeterministicRng


def make_frontend(posmap_format="flat", seed=19, num_blocks=2**8):
    crypto = CryptoSuite.fast(b"pmmac-test")

    def storage_factory(config, observer):
        return EncryptedTreeStorage(
            config, crypto.pad, EncryptionScheme.GLOBAL_SEED
        )

    frontend = PlbFrontend(
        SchemeSpec(
            num_blocks=num_blocks,
            posmap_format=posmap_format,
            pmmac=True,
            onchip_entries=2**3,
            plb_capacity_bytes=1024,
        ),
        rng=DeterministicRng(seed),
        crypto=crypto,
        storage_factory=storage_factory,
    )
    return frontend


def find_block_bucket(storage: EncryptedTreeStorage, addr: int):
    """(bucket_index, slot) of a block in untrusted memory, or None."""
    for index in range(storage.config.num_buckets):
        image = storage._images[index]
        if image is None:
            continue
        bucket = storage._decrypt_bucket_image(index, image)
        for slot, block in enumerate(bucket.blocks):
            if block.addr == addr:
                return index, slot
    return None


@pytest.mark.parametrize("posmap_format", ["flat", "compressed"])
class TestTamperDetection:
    def test_honest_operation_verifies(self, posmap_format):
        frontend = make_frontend(posmap_format)
        rng = DeterministicRng(1)
        shadow = {}
        for step in range(200):
            addr = rng.randrange(2**8)
            if rng.random() < 0.5:
                data = bytes([step % 256]) * 64
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(64))
        assert frontend.stats.mac_checks > 0

    def test_data_corruption_detected(self, posmap_format):
        frontend = make_frontend(posmap_format)
        frontend.write(42, b"\xAA" * 64)
        # Push the block out of the stash into the tree by random traffic.
        rng = DeterministicRng(2)
        for _ in range(50):
            frontend.read(rng.randrange(2**8))
        storage = frontend.backend.storage
        location = find_block_bucket(storage, 42)
        if location is None:
            pytest.skip("block still in stash after traffic (rare)")
        index, slot = location
        tamperer = Tamperer(storage)
        # Flip a bit inside the slot's data region (slot header is 17 B).
        slot_bytes = storage._slot_bytes()
        tamperer.corrupt_body(index, slot * slot_bytes + 17 + 5)
        with pytest.raises(IntegrityViolationError):
            for _ in range(3):
                frontend.read(42)

    def test_whole_tree_replay_detected(self, posmap_format):
        """Freshness: rolling the entire DRAM back must be caught."""
        frontend = make_frontend(posmap_format)
        frontend.write(7, b"\x01" * 64)
        rng = DeterministicRng(3)
        for _ in range(30):
            frontend.read(rng.randrange(2**8))
        tamperer = Tamperer(frontend.backend.storage)
        tamperer.snapshot()
        frontend.write(7, b"\x02" * 64)
        for _ in range(30):
            frontend.read(rng.randrange(2**8))
        tamperer.replay_all()
        with pytest.raises(IntegrityViolationError):
            for _ in range(60):
                frontend.read(7)

    def test_block_deletion_detected(self, posmap_format):
        """Erasing the block of interest cannot masquerade as fresh."""
        frontend = make_frontend(posmap_format)
        frontend.write(9, b"\x0F" * 64)
        rng = DeterministicRng(4)
        for _ in range(50):
            frontend.read(rng.randrange(2**8))
        storage = frontend.backend.storage
        location = find_block_bucket(storage, 9)
        if location is None:
            pytest.skip("block still in stash after traffic (rare)")
        index, slot = location
        # Zero the slot's valid flag by replacing the bucket with an
        # empty image snapshot from before any writes.
        tamperer = Tamperer(storage)
        slot_bytes = storage._slot_bytes()
        tamperer.corrupt_body(index, slot * slot_bytes)  # flip 'valid' bit
        with pytest.raises(IntegrityViolationError):
            for _ in range(3):
                frontend.read(9)


class TestUntamperedSurvivesTamperElsewhere:
    def test_other_block_tamper_not_detected_until_accessed(self):
        """Authenticate-then-encrypt caveat (§6.5.2): tampering block B is
        only caught when B itself is requested."""
        frontend = make_frontend("flat")
        frontend.write(10, b"\x10" * 64)
        frontend.write(11, b"\x11" * 64)
        rng = DeterministicRng(5)
        for _ in range(50):
            frontend.read(rng.randrange(2**8))
        storage = frontend.backend.storage
        loc = find_block_bucket(storage, 11)
        if loc is None:
            pytest.skip("block still in stash (rare)")
        index, slot = loc
        Tamperer(storage).corrupt_body(
            index, slot * storage._slot_bytes() + 17 + 1
        )
        # Accessing *other* blocks does not raise...
        for addr in (10, 20, 30):
            frontend.read(addr)
        # ...but accessing the victim does.
        with pytest.raises(IntegrityViolationError):
            for _ in range(3):
                frontend.read(11)


class TestCounterProperties:
    def test_counters_never_repeat(self):
        """Observation 3: each (a, c) pair the Frontend MACs is unique."""
        crypto = CryptoSuite.fast(b"ctr-test")
        seen = set()
        original = crypto.mac.block_tag

        def spy(count, address, data):
            assert (address, count) not in seen, "repeated (a, c) pair"
            seen.add((address, count))
            return original(count, address, data)

        crypto.mac.block_tag = spy
        frontend = PlbFrontend(
            SchemeSpec(
                num_blocks=2**8,
                posmap_format="compressed",
                compressed_beta=3,
                pmmac=True,
                onchip_entries=2**3,
                plb_capacity_bytes=1024,
                storage="object",
            ),
            rng=DeterministicRng(6),
            crypto=crypto,
        )
        rng = DeterministicRng(7)
        for _ in range(150):
            addr = rng.randrange(2**8)
            if rng.random() < 0.5:
                frontend.write(addr, bytes(64))
            else:
                frontend.read(addr)
        for _ in range(40):  # hammer one block to force IC rollovers
            frontend.read(5)
        assert frontend.stats.group_remaps > 0  # rollovers happened
        assert len(seen) > 0
