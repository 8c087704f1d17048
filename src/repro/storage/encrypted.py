"""Byte-accurate encrypted ORAM tree storage.

This model serialises every bucket to a fixed-size byte image and encrypts
it with a one-time pad, exactly as the hardware does with AES counter mode
(§3.1, §6.4). The adversary sees — and may tamper with — the ciphertext
and the plaintext seed field. Two encryption schemes are selectable:

- ``EncryptionScheme.BUCKET_SEED``: the scheme of [26]; the per-bucket seed
  is stored in plaintext and incremented on re-encryption. Vulnerable to
  the §6.4 seed-replay attack (reproduced in the security tests).
- ``EncryptionScheme.GLOBAL_SEED``: the paper's fix; a single monotonic
  counter in the (trusted) controller guarantees pad freshness.

Bucket wire format (before padding to ``config.bucket_bytes``):

    seed (8 B, plaintext) || E(slot_0 || ... || slot_{Z-1})

where each slot is ``valid (1 B) || addr (8 B) || leaf (8 B) ||
data (B bytes) || mac (mac_bytes)``.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.config import OramConfig
from repro.crypto.pad import PadGenerator
from repro.storage.block import Block, DUMMY_ADDR
from repro.storage.bucket import Bucket
from repro.storage.tree import BucketLedger, path_indices


class EncryptionScheme(enum.Enum):
    """Pad-seeding policy for bucket encryption."""

    BUCKET_SEED = "bucket-seed"
    GLOBAL_SEED = "global-seed"


class EncryptedTreeStorage(BucketLedger):
    """ORAM tree held as encrypted byte images in untrusted memory."""

    SLOT_HEADER = 1 + 8 + 8  # valid + addr + leaf

    def __init__(
        self,
        config: OramConfig,
        pad: PadGenerator,
        scheme: EncryptionScheme = EncryptionScheme.GLOBAL_SEED,
        observer=None,
    ):
        super().__init__(config)
        self.pad = pad
        self.scheme = scheme
        self.observer = observer
        #: Trusted monotonic counter (global-seed scheme); lives on-chip.
        self.global_seed = 0
        body = config.blocks_per_bucket * self._slot_bytes()
        self._body_bytes = body
        empty = self._encrypt_bucket_image(0, Bucket(config.blocks_per_bucket))
        #: Raw untrusted memory: one byte image per bucket (lazy init copy).
        self._images: List[Optional[bytes]] = [None] * config.num_buckets
        self._empty_image = empty

    def _slot_bytes(self) -> int:
        return self.SLOT_HEADER + self.config.block_bytes + self.config.mac_bytes

    # -- serialisation --------------------------------------------------------

    def _serialise_bucket(self, bucket: Bucket) -> bytes:
        out = bytearray()
        cfg = self.config
        for slot in range(cfg.blocks_per_bucket):
            if slot < len(bucket.blocks):
                block = bucket.blocks[slot]
                mac = block.mac or b"\x00" * cfg.mac_bytes
                if len(block.data) != cfg.block_bytes:
                    raise ValueError("block payload size mismatch")
                if len(mac) != cfg.mac_bytes:
                    raise ValueError("MAC size mismatch")
                out.append(1)
                out += block.addr.to_bytes(8, "little", signed=True)
                out += block.leaf.to_bytes(8, "little")
                out += block.data
                out += mac
            else:
                out.append(0)
                out += DUMMY_ADDR.to_bytes(8, "little", signed=True)
                out += b"\x00" * 8
                out += b"\x00" * cfg.block_bytes
                out += b"\x00" * cfg.mac_bytes
        return bytes(out)

    def _deserialise_bucket(self, body: bytes) -> Bucket:
        cfg = self.config
        bucket = Bucket(cfg.blocks_per_bucket)
        step = self._slot_bytes()
        for slot in range(cfg.blocks_per_bucket):
            rec = body[slot * step : (slot + 1) * step]
            if rec[0] != 1:
                continue
            addr = int.from_bytes(rec[1:9], "little", signed=True)
            leaf = int.from_bytes(rec[9:17], "little")
            data = rec[17 : 17 + cfg.block_bytes]
            mac = rec[17 + cfg.block_bytes :] if cfg.mac_bytes else None
            bucket.add(Block(addr, leaf, data, mac))
        return bucket

    # -- encryption -----------------------------------------------------------

    def _pad_for(self, bucket_id: int, seed: int) -> bytes:
        if self.scheme is EncryptionScheme.BUCKET_SEED:
            return self.pad.bucket_seed_pad(bucket_id, seed, self._body_bytes)
        return self.pad.global_seed_pad(seed, self._body_bytes)

    def _encrypt_bucket_image(self, bucket_id: int, bucket: Bucket) -> bytes:
        if self.scheme is EncryptionScheme.BUCKET_SEED:
            seed = bucket.seed + 1
            bucket.seed = seed
        else:
            seed = self.global_seed
            self.global_seed += 1
        body = self._serialise_bucket(bucket)
        cipher = PadGenerator.xor(body, self._pad_for(bucket_id, seed))
        return seed.to_bytes(8, "little") + cipher

    def _decrypt_bucket_image(self, bucket_id: int, image: bytes) -> Bucket:
        seed = int.from_bytes(image[:8], "little")
        body = PadGenerator.xor(image[8:], self._pad_for(bucket_id, seed))
        bucket = self._deserialise_bucket(body)
        bucket.seed = seed
        return bucket

    # -- path interface (mirrors TreeStorage) ----------------------------------

    def path_indices(self, leaf: int) -> List[int]:
        """Heap indices along the path to ``leaf``."""
        if not 0 <= leaf < self.config.num_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        return path_indices(leaf, self.config.levels)

    def read_path(self, leaf: int) -> List[Tuple[int, Bucket]]:
        """Decrypt all buckets on the path; returns (level, bucket) pairs."""
        indices = self.path_indices(leaf)
        self.buckets_read += len(indices)
        if self.observer is not None:
            self.observer.on_path_read(leaf, indices)
        out = []
        for level, idx in enumerate(indices):
            image = self._images[idx] or self._empty_image
            out.append((level, self._decrypt_bucket_image(idx, image)))
        self._pending = (leaf, indices, out)
        return out

    def write_path(self, leaf: int) -> None:
        """Re-encrypt and store the buckets returned by the last read_path."""
        pending_leaf, indices, buckets = self._pending
        if pending_leaf != leaf:
            raise RuntimeError("write_path leaf does not match last read_path")
        self.buckets_written += len(indices)
        if self.observer is not None:
            self.observer.on_path_write(leaf, indices)
        for (level, bucket), idx in zip(buckets, indices):
            self._images[idx] = self._encrypt_bucket_image(idx, bucket)

    # -- adversary surface ------------------------------------------------------

    def raw_image(self, index: int) -> bytes:
        """Ciphertext image of a bucket, as visible on the memory bus."""
        return self._images[index] or self._empty_image

    def tamper_image(self, index: int, image: bytes) -> None:
        """Overwrite a bucket image (active adversary)."""
        expected = 8 + self._body_bytes
        if len(image) != expected:
            raise ValueError(f"bucket image must be {expected} bytes")
        self._images[index] = image

    def occupancy(self) -> int:
        """Total real blocks stored (requires decrypting every bucket)."""
        total = 0
        for idx, image in enumerate(self._images):
            if image is None:
                continue
            total += len(self._decrypt_bucket_image(idx, image))
        return total
