"""Storage-agnostic content snapshots and digests.

The lockstep harness (``tests/lockstep.py``) and the cross-storage
integrity tests compare ORAM state across *different representations*
of the same tree — bucket objects and columnar slot arenas. These
helpers reduce every representation to one canonical content view:

- a **record** is ``(addr, leaf, data, mac)`` for one real block;
- a **bucket snapshot** is the tuple of records in slot order;
- a **tree snapshot** is the tuple of ``(index, bucket snapshot)`` pairs
  of the buckets that hold a block, in heap order (an empty bucket is
  the same content whether it was never touched or has been drained);
- a **digest** is the SHA-256 of the canonical byte serialization of
  the whole tree, so "bit-identical" is checkable (and reportable) as
  one hex string.

The digest's bytes are every bucket in heap order, each a 4-byte record
count followed by its records, so a run of ``k`` empty buckets is ``4k``
zero bytes. :func:`tree_digest` hashes them in bounded pieces while it
walks the occupied buckets: its time is O(occupied buckets) plus the
hashing of those zero runs, its memory bounded whatever the tree's size
(a 2^26-block tree after 50 000 misses: ~1.4 s and < 0.5 MB of
``ru_maxrss`` on one 2.1 GHz Xeon core, ``tests/test_scale.py``), and its
hex value the one a whole-tree byte image would give.

Dummy blocks never appear: the object model stores only real blocks and
the columnar model only occupied slots, so the record streams line up by
construction. Both :class:`~repro.storage.tree.TreeStorage` and
:class:`~repro.storage.columnar.ColumnarTreeStorage` expose
``occupied_buckets``/``bucket_records``/``replace_bucket_records``,
which is the whole interface this module needs.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Optional, Tuple

#: One real block as content: (addr, leaf, data, mac).
Record = Tuple[int, int, bytes, Optional[bytes]]

#: Bytes :func:`tree_digest` collects before it hashes them.
_PIECE = 1 << 16


def bucket_records(storage, index: int) -> Tuple[Record, ...]:
    """Canonical records of one bucket, in slot order."""
    return storage.bucket_records(index)


def tree_records(storage) -> Tuple[Tuple[int, Tuple[Record, ...]], ...]:
    """``(index, records)`` of every bucket holding a block, in heap order."""
    return tuple(
        (index, storage.bucket_records(index))
        for index in storage.occupied_buckets()
    )


def path_records(storage, leaf: int) -> Tuple[Tuple[Record, ...], ...]:
    """Canonical records of the buckets on the path to ``leaf``, root->leaf."""
    return tuple(
        storage.bucket_records(index) for index in storage.path_indices(leaf)
    )


def _serialise_bucket(out: bytearray, records: Tuple[Record, ...]) -> None:
    """Append one bucket's unambiguous byte image (lengths delimit every
    field) to ``out``."""
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


def tree_digest(storage) -> str:
    """SHA-256 hex digest of the whole tree's canonical content."""
    digest = hashlib.sha256()
    zeros = memoryview(bytes(_PIECE))
    out = bytearray()
    end = storage.config.num_buckets
    hashed = 0  # buckets serialised so far
    for index in chain(storage.occupied_buckets(), (end,)):
        empty = 4 * (index - hashed)  # a zero record count per empty bucket
        if empty >= _PIECE:  # a long run is hashed straight from zeros
            digest.update(out)
            out.clear()
            while empty >= _PIECE:
                digest.update(zeros)
                empty -= _PIECE
        out += zeros[:empty]
        if index < end:
            _serialise_bucket(out, storage.bucket_records(index))
            hashed = index + 1
        if len(out) >= _PIECE:
            digest.update(out)
            out.clear()
    digest.update(out)
    return digest.hexdigest()
