"""Cross-module integration: frontends over encrypted storage, observers
through the full stack, the sub-block scheme's bandwidth position, and
end-to-end determinism."""

import pytest

from repro.adversary.observer import TraceObserver
from repro.backend.ops import Op
from repro.crypto.suite import CryptoSuite
from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.subblock import SubBlockFrontend
from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec
from repro.storage.encrypted import EncryptedTreeStorage, EncryptionScheme
from repro.utils.rng import DeterministicRng


class TestPlbOverEncryptedStorage:
    """The PLB frontend must work unchanged over byte-accurate encrypted
    memory, with or without PMMAC (the Backend-opacity claim)."""

    @pytest.mark.parametrize("pmmac", [False, True])
    def test_shadow_consistency(self, pmmac):
        crypto = CryptoSuite.fast(b"integration")

        def factory(config, observer):
            return EncryptedTreeStorage(
                config, crypto.pad, EncryptionScheme.GLOBAL_SEED
            )

        frontend = PlbFrontend(
            SchemeSpec(
                num_blocks=2**8,
                posmap_format="compressed",
                pmmac=pmmac,
                onchip_entries=2**3,
                plb_capacity_bytes=1024,
            ),
            rng=DeterministicRng(1),
            crypto=crypto,
            storage_factory=factory,
        )
        rng = DeterministicRng(2)
        shadow = {}
        for step in range(150):
            addr = rng.randrange(2**8)
            if rng.random() < 0.5:
                data = bytes([step % 256]) * 64
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(64))

    def test_ciphertext_fresh_across_schemes(self):
        """Every path write-back re-encrypts: images change even when the
        plaintext does not."""
        crypto = CryptoSuite.fast(b"fresh")

        def factory(config, observer):
            return EncryptedTreeStorage(
                config, crypto.pad, EncryptionScheme.GLOBAL_SEED
            )

        frontend = PlbFrontend(
            SchemeSpec(num_blocks=2**7, onchip_entries=2**3, plb_capacity_bytes=1024),
            rng=DeterministicRng(3),
            crypto=crypto,
            storage_factory=factory,
        )
        frontend.read(0)
        root_before = frontend.backend.storage.raw_image(0)
        frontend.read(0)
        assert frontend.backend.storage.raw_image(0) != root_before


class TestObserverThroughFullStack:
    def test_unified_frontend_emits_paired_events(self):
        observer = TraceObserver()
        frontend = PlbFrontend(
            SchemeSpec(
                num_blocks=2**8,
                onchip_entries=2**3,
                plb_capacity_bytes=1024,
                storage="object",
            ),
            rng=DeterministicRng(4),
            observer=observer,
        )
        for addr in range(20):
            frontend.read(addr)
        reads = [e for e in observer.events if e.kind == "read"]
        writes = [e for e in observer.events if e.kind == "write"]
        assert len(reads) == len(writes) == frontend.stats.tree_accesses
        # Read/write pairs target the same leaf (path write-back).
        for r, w in zip(reads, writes):
            assert r.leaf == w.leaf

    def test_recursive_trees_interleave_in_fixed_order(self):
        observer = TraceObserver()
        frontend = RecursiveFrontend(
            SchemeSpec(
                frontend="recursive",
                num_blocks=2**9,
                onchip_entries=2**3,
                storage="object",
            ),
            rng=DeterministicRng(5),
            observer=observer,
        )
        for addr in range(10):
            frontend.read(addr)
        sequence = observer.tree_sequence()
        h = frontend.num_levels
        # Every access walks top PosMap ... ORam1, then data (tree 0).
        for i in range(0, len(sequence), h):
            chunk = sequence[i : i + h]
            assert chunk == sorted(chunk, reverse=True)
            assert chunk[-1] == 0


class TestSubBlockVsRecursive:
    """§5.4's concrete wins at finite scale are structural: the X'=32
    compressed fan-out needs fewer recursion levels than the X=8
    baseline at an equal on-chip budget, and splitting keeps the *data*
    byte volume of big blocks comparable while the asymptotic PosMap
    term shrinks (the formula itself is checked in test_analytic)."""

    def test_compression_shrinks_recursion_depth(self):
        num_blocks = 2**20
        sub = SubBlockFrontend(
            num_blocks=num_blocks,
            data_block_bytes=512,
            posmap_block_bytes=64,
            onchip_entries=2**6,
            rng=DeterministicRng(6),
        )
        rec = RecursiveFrontend(
            SchemeSpec(
                frontend="recursive",
                num_blocks=num_blocks,
                block_bytes=512,
                posmap_block_bytes=32,
                onchip_entries=2**6,
                storage="object",
            ),
            rng=DeterministicRng(6),
        )
        assert sub.num_levels < rec.num_levels

    def test_data_byte_volume_comparable(self):
        """Splitting B into s pieces of Bp moves ~the same data bytes as
        one B-sized path access (slot metadata aside)."""
        num_blocks, big_b = 2**8, 512
        sub = SubBlockFrontend(
            num_blocks=num_blocks,
            data_block_bytes=big_b,
            posmap_block_bytes=64,
            onchip_entries=2**3,
            rng=DeterministicRng(6),
        )
        rec = RecursiveFrontend(
            SchemeSpec(
                frontend="recursive",
                num_blocks=num_blocks,
                block_bytes=big_b,
                posmap_block_bytes=32,
                onchip_entries=2**3,
                storage="object",
            ),
            rng=DeterministicRng(6),
        )
        rng = DeterministicRng(7)
        for _ in range(40):
            addr = rng.randrange(num_blocks)
            sub.read(addr)
            rec.read(addr)
        ratio = sub.data_bytes_moved / rec.data_bytes_moved
        assert 0.5 < ratio < 2.5


class TestDeterminism:
    def test_full_stack_bitwise_reproducible(self):
        """Same seeds end-to-end -> identical stats, bytes, and traces."""
        def run():
            observer = TraceObserver()
            frontend = PlbFrontend(
                SchemeSpec(
                    num_blocks=2**8,
                    posmap_format="compressed",
                    pmmac=True,
                    onchip_entries=2**3,
                    plb_capacity_bytes=1024,
                    storage="object",
                ),
                rng=DeterministicRng(8),
                observer=observer,
                crypto=CryptoSuite.fast(b"det"),
            )
            rng = DeterministicRng(9)
            for step in range(120):
                addr = rng.randrange(2**8)
                if rng.random() < 0.5:
                    frontend.write(addr, bytes([step % 256]) * 64)
                else:
                    frontend.read(addr)
            return (
                frontend.stats.tree_accesses,
                frontend.stats.plb_hits,
                frontend.total_bytes_moved,
                [e.leaf for e in observer.events],
            )

        assert run() == run()
