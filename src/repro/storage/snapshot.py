"""Storage-agnostic content snapshots and digests.

The differential harness (``tests/test_columnar_differential.py``) and
the cross-storage integrity tests compare ORAM state across *different
representations* of the same tree — bucket objects and columnar slot
arenas. These helpers reduce every representation
to one canonical content view:

- a **record** is ``(addr, leaf, data, mac)`` for one real block;
- a **bucket snapshot** is the tuple of records in slot order;
- a **tree snapshot** is the tuple of bucket snapshots in heap order;
- a **digest** is the SHA-256 of the canonical byte serialization of a
  snapshot, so "bit-identical" is checkable (and reportable) as one
  hex string.

Dummy blocks never appear: the object model stores only real blocks and
the columnar model only occupied slots, so the record streams line up by
construction. Both :class:`~repro.storage.tree.TreeStorage` and
:class:`~repro.storage.columnar.ColumnarTreeStorage`
expose ``bucket_records``/``replace_bucket_records``, which is the whole
interface this module needs.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Tuple

#: One real block as content: (addr, leaf, data, mac).
Record = Tuple[int, int, bytes, Optional[bytes]]


def bucket_records(storage, index: int) -> Tuple[Record, ...]:
    """Canonical records of one bucket, in slot order."""
    return storage.bucket_records(index)


def tree_records(storage) -> Tuple[Tuple[Record, ...], ...]:
    """Canonical records of every bucket, in heap order."""
    return tuple(
        storage.bucket_records(index)
        for index in range(storage.config.num_buckets)
    )


def path_records(storage, leaf: int) -> Tuple[Tuple[Record, ...], ...]:
    """Canonical records of the buckets on the path to ``leaf``, root->leaf."""
    return tuple(
        storage.bucket_records(index) for index in storage.path_indices(leaf)
    )


def _serialise(buckets: Tuple[Tuple[Record, ...], ...]) -> bytes:
    """Unambiguous byte image of a snapshot (lengths delimit every field)."""
    out = bytearray()
    for records in buckets:
        out += len(records).to_bytes(4, "little")
        for addr, leaf, data, mac in records:
            out += addr.to_bytes(8, "little", signed=True)
            out += leaf.to_bytes(8, "little")
            out += len(data).to_bytes(4, "little")
            out += data
            if mac is None:
                out += b"\x00"
            else:
                out += b"\x01" + len(mac).to_bytes(2, "little") + mac
    return bytes(out)


def tree_digest(storage) -> str:
    """SHA-256 hex digest of the whole tree's canonical content."""
    return hashlib.sha256(_serialise(tree_records(storage))).hexdigest()
