"""Scenario: an active data-centre adversary vs PMMAC (§6).

Runs the PIC_X32 frontend over byte-accurate encrypted storage and
mounts three attacks from the threat model:

1. flip a ciphertext bit in the victim block  -> caught at next access;
2. replay a stale snapshot of all of DRAM     -> caught (freshness);
3. the §6.4 seed-rollback attack against the legacy bucket-seed
   encryption, showing the one-time-pad reuse the paper fixes with a
   global seed.

Run:  python examples/tamper_detection.py
"""

from repro import CryptoSuite, DeterministicRng, IntegrityViolationError, get_spec
from repro.adversary.tamper import Tamperer
from repro.crypto.pad import PadGenerator
from repro.frontend.unified import PlbFrontend
from repro.storage.block import Block
from repro.storage.encrypted import EncryptedTreeStorage, EncryptionScheme


def build_verified_oram():
    crypto = CryptoSuite.fast(b"demo-session-key")

    def storage_factory(config, observer):
        return EncryptedTreeStorage(config, crypto.pad, EncryptionScheme.GLOBAL_SEED)

    spec = get_spec("PIC_X32").with_(
        num_blocks=2**8, onchip_entries=2**3, plb_capacity_bytes=1024
    )
    return PlbFrontend(
        spec,
        crypto=crypto,
        rng=DeterministicRng(99),
        storage_factory=storage_factory,
    )


def attack_bit_flip() -> None:
    print("Attack 1: flip one ciphertext bit of the victim block")
    oram = build_verified_oram()
    oram.write(42, b"ledger: alice owes bob 10".ljust(64, b"\x00"))
    rng = DeterministicRng(5)
    for _ in range(60):  # drive the block out of the stash into DRAM
        oram.read(rng.randrange(2**8))
    storage = oram.backend.storage
    tamperer = Tamperer(storage)
    slot_bytes = storage._slot_bytes()
    for index in range(storage.config.num_buckets):
        for slot in range(storage.config.blocks_per_bucket):
            # Flip a data bit in every slot: wherever the victim lives,
            # its ciphertext is now corrupted.
            tamperer.corrupt_body(index, slot * slot_bytes + 20)
    try:
        for _ in range(3):
            oram.read(42)
        print("  !! tampering went UNDETECTED (should never happen)")
    except IntegrityViolationError as exc:
        print(f"  caught: {exc}")


def attack_replay() -> None:
    print("Attack 2: roll all of DRAM back to a stale snapshot")
    oram = build_verified_oram()
    oram.write(7, b"version 1".ljust(64, b"\x00"))
    rng = DeterministicRng(6)
    for _ in range(40):
        oram.read(rng.randrange(2**8))
    tamperer = Tamperer(oram.backend.storage)
    tamperer.snapshot()
    oram.write(7, b"version 2".ljust(64, b"\x00"))
    for _ in range(40):
        oram.read(rng.randrange(2**8))
    tamperer.replay_all()
    try:
        for _ in range(80):
            oram.read(7)
        print("  !! replay went UNDETECTED (should never happen)")
    except IntegrityViolationError as exc:
        print(f"  caught: {exc}")


def attack_seed_rollback() -> None:
    print("Attack 3 (§6.4): seed rollback against bucket-seed encryption")
    from repro.config import OramConfig

    config = OramConfig(num_blocks=32, block_bytes=32)

    for scheme in (EncryptionScheme.BUCKET_SEED, EncryptionScheme.GLOBAL_SEED):
        gen = PadGenerator(b"pad-demo-key")
        storage = EncryptedTreeStorage(config, gen, scheme)
        tamperer = Tamperer(storage)

        def write_known(payload):
            path = storage.read_path(0)
            path[0][1].blocks = []
            path[0][1].add(Block(1, 0, payload))
            storage.write_path(0)
            body = storage._serialise_bucket(path[0][1])
            return PadGenerator.xor(storage.raw_image(0)[8:], body)

        pad_before = write_known(b"\x01" * 32)
        tamperer.rollback_seed(0, delta=1)
        path = storage.read_path(0)
        storage.write_path(0)
        body = storage._serialise_bucket(path[0][1])
        pad_after = PadGenerator.xor(storage.raw_image(0)[8:], body)
        reused = pad_after == pad_before
        print(
            f"  {scheme.value:>12}: pad reused after rollback? "
            f"{'YES - two-time pad, plaintext leaks' if reused else 'no - fresh pad'}"
        )


def main() -> None:
    attack_bit_flip()
    print()
    attack_replay()
    print()
    attack_seed_rollback()


if __name__ == "__main__":
    main()
