"""Active adversary: tampering primitives against untrusted storage.

Implements the attack repertoire the paper's integrity analysis considers:
bit flips in block data, wholesale replay of stale bucket images
(freshness violation), and the §6.4 seed-rollback attack that coerces
one-time-pad reuse under the bucket-seed encryption scheme.

Two tamperers cover the two storage families:

- :class:`Tamperer` attacks ciphertext images of an
  :class:`~repro.storage.encrypted.EncryptedTreeStorage` (the realistic
  adversary, who sees only encrypted bytes);
- :class:`StorageTamperer` attacks *content records* of any plaintext
  storage model (object, columnar) through the shared
  ``bucket_records``/``replace_bucket_records`` interface — the
  storage-representation-agnostic adversary used to prove that PMMAC and
  Merkle detection behave identically under every block-store layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.storage.encrypted import EncryptedTreeStorage
from repro.storage.snapshot import tree_records


class StorageTamperer:
    """Content-level tampering against any plaintext tree storage.

    Works uniformly on :class:`~repro.storage.tree.TreeStorage` and
    :class:`~repro.storage.columnar.ColumnarTreeStorage`: every attack is
    expressed over canonical ``(addr, leaf, data, mac)`` records, so one
    test exercises every representation of the tree.
    """

    def __init__(self, storage):
        self.storage = storage
        self._snapshots: Dict[int, Dict[int, tuple]] = {}

    # -- location -------------------------------------------------------------

    def find(self, addr: int) -> Optional[Tuple[int, int]]:
        """(bucket index, slot position) of a block in the tree, or None."""
        for index in self.storage.occupied_buckets():
            for position, record in enumerate(self.storage.bucket_records(index)):
                if record[0] == addr:
                    return index, position
        return None

    def _edit(self, addr: int, editor) -> bool:
        """Apply ``editor(record) -> record-or-None`` to a located block.

        Returns False when the block is not currently tree-resident (it
        may be in the stash); ``None`` from the editor deletes the block.
        """
        located = self.find(addr)
        if located is None:
            return False
        index, position = located
        records = list(self.storage.bucket_records(index))
        edited = editor(records[position])
        if edited is None:
            del records[position]
        else:
            records[position] = edited
        self.storage.replace_bucket_records(index, tuple(records))
        return True

    # -- attacks --------------------------------------------------------------

    def corrupt_data(self, addr: int, byte_offset: int = 0, bit: int = 0) -> bool:
        """Flip one bit of a block's stored payload."""

        def editor(record):
            a, leaf, data, mac = record
            body = bytearray(data)
            body[byte_offset] ^= 1 << bit
            return (a, leaf, bytes(body), mac)

        return self._edit(addr, editor)

    def corrupt_mac(self, addr: int) -> bool:
        """Flip one bit of a block's stored MAC tag (PMMAC blocks only)."""

        def editor(record):
            a, leaf, data, mac = record
            body = bytearray(mac)
            body[0] ^= 1
            return (a, leaf, data, bytes(body))

        return self._edit(addr, editor)

    def delete_block(self, addr: int) -> bool:
        """Erase a block from its bucket (a targeted deletion attack)."""
        return self._edit(addr, lambda record: None)

    # -- snapshots (replay / freshness attacks) -------------------------------

    def snapshot(self, tag: int = 0) -> None:
        """Record the content of every bucket under ``tag`` (the buckets
        holding a block; every other one was empty)."""
        self._snapshots[tag] = dict(tree_records(self.storage))

    def replay_bucket(self, index: int, tag: int = 0) -> None:
        """Restore one bucket to its snapshotted content."""
        self.storage.replace_bucket_records(
            index, self._snapshots[tag].get(index, ())
        )

    def replay_all(self, tag: int = 0) -> None:
        """Roll the whole tree back to a snapshot (freshness attack): the
        snapshotted buckets, and every bucket filled since, emptied."""
        buckets = self._snapshots[tag]
        for index in sorted(buckets.keys() | set(self.storage.occupied_buckets())):
            self.storage.replace_bucket_records(index, buckets.get(index, ()))


class Tamperer:
    """Wraps an :class:`EncryptedTreeStorage` with tampering operations."""

    def __init__(self, storage: EncryptedTreeStorage):
        self.storage = storage
        self._snapshots: Dict[int, List[bytes]] = {}

    # -- snapshots (for replay attacks) ---------------------------------------

    def snapshot(self, tag: int = 0) -> None:
        """Record the current image of every bucket under ``tag``."""
        self._snapshots[tag] = [
            self.storage.raw_image(i) for i in range(self.storage.config.num_buckets)
        ]

    def replay_bucket(self, index: int, tag: int = 0) -> None:
        """Restore one bucket to its snapshotted image (freshness attack)."""
        self.storage.tamper_image(index, self._snapshots[tag][index])

    def replay_all(self, tag: int = 0) -> None:
        """Restore the whole tree to a snapshot."""
        for index, image in enumerate(self._snapshots[tag]):
            self.storage.tamper_image(index, image)

    # -- bit flips ---------------------------------------------------------------

    def flip_bit(self, index: int, byte_offset: int, bit: int = 0) -> None:
        """Flip one ciphertext bit of a bucket image."""
        image = bytearray(self.storage.raw_image(index))
        image[byte_offset] ^= 1 << bit
        self.storage.tamper_image(index, bytes(image))

    def corrupt_body(self, index: int, byte_offset: int = 0) -> None:
        """Flip a bit inside the encrypted body (past the seed field)."""
        self.flip_bit(index, 8 + byte_offset)

    # -- §6.4 seed rollback ---------------------------------------------------------

    def rollback_seed(self, index: int, delta: int = 1) -> int:
        """Decrement the plaintext seed of a bucket image.

        Under the bucket-seed scheme, the next legitimate re-encryption of
        this bucket will reuse a pad the adversary has already observed
        (pad for seed ``old_seed``), enabling the XOR attack of §6.4.
        Returns the seed value written.
        """
        image = bytearray(self.storage.raw_image(index))
        seed = int.from_bytes(image[:8], "little")
        new_seed = max(seed - delta, 0)
        image[:8] = new_seed.to_bytes(8, "little")
        self.storage.tamper_image(index, bytes(image))
        return new_seed

    def read_seed(self, index: int) -> int:
        """Plaintext seed currently stored with a bucket."""
        return int.from_bytes(self.storage.raw_image(index)[:8], "little")
