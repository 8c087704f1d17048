"""MerkleVerifiedStorage under an unmodified Backend/Frontend."""

import pytest

from repro.backend.ops import Op
from repro.crypto.mac import Mac
from repro.errors import IntegrityViolationError
from repro.frontend.linear import LinearFrontend
from repro.integrity.adapter import MerkleVerifiedStorage
from repro.spec import SchemeSpec
from repro.storage.block import Block
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng


def build(num_blocks=2**6):
    mac = Mac(b"adapter-key", mode=Mac.MODE_FAST)
    frontend = LinearFrontend(
        SchemeSpec(frontend="linear", num_blocks=num_blocks, block_bytes=32),
        rng=DeterministicRng(3),
        storage_factory=lambda config, _observer: MerkleVerifiedStorage(
            TreeStorage(config), mac
        ),
    )
    return frontend.config, frontend.backend.storage, frontend


class TestHonest:
    def test_frontend_works_through_adapter(self):
        config, storage, frontend = build()
        payload = b"\x44" * 32
        frontend.write(5, payload)
        assert frontend.read(5) == payload

    def test_long_random_workload_verifies(self):
        config, storage, frontend = build()
        rng = DeterministicRng(9)
        shadow = {}
        for step in range(300):
            addr = rng.randrange(config.num_blocks)
            if rng.random() < 0.5:
                data = bytes([step % 256]) * 32
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(32))

    def test_hash_cost_is_two_paths_per_access(self):
        config, storage, frontend = build()
        storage.mac.reset_counters()
        frontend.read(3)
        assert storage.mac.call_count == 2 * (config.levels + 1)

    def test_bandwidth_delegated(self):
        config, storage, frontend = build()
        frontend.read(1)
        assert storage.bytes_moved == storage.inner.bytes_moved > 0


class TestTamper:
    def test_direct_bucket_mutation_detected(self):
        config, storage, frontend = build()
        frontend.write(9, b"\x09" * 32)
        rng = DeterministicRng(2)
        for _ in range(30):
            frontend.read(rng.randrange(config.num_blocks))
        # The adversary edits a bucket behind the verifier's back.
        for index in range(config.num_buckets):
            bucket = storage.inner._buckets[index]
            if bucket is not None and len(bucket):
                bucket.blocks[0].data = b"\xFF" * 32
                break
        with pytest.raises(IntegrityViolationError):
            for _ in range(200):
                frontend.read(rng.randrange(config.num_blocks))

    def test_block_injection_detected(self):
        config, storage, frontend = build()
        frontend.write(1, b"\x01" * 32)
        storage.inner.bucket_at(0).add(Block(99, 0, bytes(32)))
        with pytest.raises(IntegrityViolationError):
            frontend.read(1)

    def test_merkle_catches_any_path_tamper_unlike_pmmac(self):
        """Merkle detects tampering of *any* block on the path, not only
        the block of interest — its stronger (and costlier) guarantee."""
        config, storage, frontend = build()
        frontend.write(1, b"\x01" * 32)
        frontend.write(2, b"\x02" * 32)
        rng = DeterministicRng(8)
        for _ in range(30):
            frontend.read(rng.randrange(config.num_blocks))
        # Corrupt whichever real block we find (victim unknown to reader).
        for index in range(config.num_buckets):
            bucket = storage.inner._buckets[index]
            if bucket is not None and len(bucket):
                bucket.blocks[0].data = b"\x7F" * 32
                break
        with pytest.raises(IntegrityViolationError):
            for _ in range(200):
                frontend.read(rng.randrange(config.num_blocks))
