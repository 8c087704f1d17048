"""Message authentication codes for PMMAC.

The paper instantiates MAC_K() with SHA3-224 (§6.1) and stores an 80-128
bit truncation alongside each block. ``Mac`` mirrors that: keyed SHA3-224
(reference) or keyed BLAKE2b (fast), truncated to ``tag_bytes``.
"""

from __future__ import annotations

import hashlib

from repro.utils.stats import LEDGERS


@LEDGERS["mac"].bind()
class Mac:
    """Keyed MAC with truncated tags and an invocation/byte counter.

    ``bytes_hashed`` and ``call_count`` feed the §6.3 hash-bandwidth
    comparison against the Merkle baseline; they are the two slots of
    ``ledger``, which the native kernel counts in too.
    """

    MODE_SHA3 = "sha3-224"
    MODE_FAST = "fast"

    def __init__(self, key: bytes, mode: str = MODE_SHA3, tag_bytes: int = 14):
        if mode not in (self.MODE_SHA3, self.MODE_FAST):
            raise ValueError(f"unknown MAC mode {mode!r}")
        if not 1 <= tag_bytes <= 28:
            raise ValueError("tag must be 1..28 bytes")
        self.mode = mode
        self.key = key
        self.tag_bytes = tag_bytes
        self.ledger = LEDGERS["mac"].column()
        if mode == self.MODE_FAST:
            # Pre-keyed hash state (see Prf): copy() skips the per-call
            # key-block compression; digests are byte-identical.
            self._keyed_state = hashlib.blake2b(key=key, digest_size=tag_bytes)

    def tag(self, message: bytes) -> bytes:
        """Compute the truncated MAC tag of ``message``."""
        self.call_count += 1
        self.bytes_hashed += len(message)
        if self.mode == self.MODE_FAST:
            state = self._keyed_state.copy()
            state.update(message)
            return state.digest()
        # Keyed SHA3: SHA3-224(K || m). SHA3 is not length-extendable, so the
        # simple prefix construction is a secure MAC.
        digest = hashlib.sha3_224(self.key + message).digest()
        return digest[: self.tag_bytes]

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Constant-content comparison of a tag (timing not modelled)."""
        return self.tag(message) == tag

    def block_tag(self, count: int, address: int, data: bytes) -> bytes:
        """PMMAC tag h = MAC_K(c || a || d) (§6.2.1)."""
        header = count.to_bytes(12, "little") + address.to_bytes(8, "little")
        return self.tag(header + data)

    def reset_counters(self) -> None:
        """Zero the hash-bandwidth counters."""
        self.call_count = 0
        self.bytes_hashed = 0
