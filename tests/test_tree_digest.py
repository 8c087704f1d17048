"""``tree_digest`` and ``tree_records``: the tree's canonical content.

The digest hashes every bucket in heap order — a 4-byte record count,
then the records — but walks only the buckets that hold a block, a run
of ``k`` empty buckets being its ``4k`` zero bytes. The hex values below
were recorded with the whole-tree byte image this replaced, so they pin
the bytes: hand-made trees on both storages (a tree ending in a long run
of empty buckets, a long run before an occupied bucket, a full bucket,
a tree of no levels), and the trees PIC_X32 (blocks with MACs), P_X16
and every level of R_X8 leave after the same requests, on the object
storage under the interpreted frontend and on the columnar one under
the frontend's kernel.
"""

import tracemalloc

import pytest

from repro.config import OramConfig
from repro.storage.columnar import ColumnarTreeStorage
from repro.storage.snapshot import tree_digest, tree_records
from repro.storage.tree import TreeStorage

import lockstep

STORAGES = (TreeStorage, ColumnarTreeStorage)


def record(addr, fill, mac=None, block_bytes=16):
    return (addr, addr % 7, bytes([fill]) * block_bytes, mac)


#: name -> (geometry, {bucket index: records}).
TREES = {
    "empty": (dict(num_blocks=2**15, block_bytes=16), {}),
    "empty tail": (
        dict(num_blocks=2**15, block_bytes=16),
        {0: (record(3, 1),), 1: (record(9, 2, b"\x05" * 8),),
         2: (record(-4, 3), record(12, 4))},
    ),
    "long run, then a block": (
        dict(num_blocks=2**15, block_bytes=16),
        {0: (record(1, 9),), 2**15 - 2: (record(2**40, 8, b"m" * 16),)},
    ),
    "full bucket": (
        dict(num_blocks=16, block_bytes=16),
        {6: (record(1, 1), record(2, 2, b"\x01" * 8), record(3, 3),
             record(4, 4, b""))},
    ),
    "no levels, empty": (dict(num_blocks=1, block_bytes=64), {}),
    "no levels": (
        dict(num_blocks=1, block_bytes=64),
        {0: (record(0, 255, b"\xaa" * 8, block_bytes=64),)},
    ),
}

#: Recorded with the whole-tree image the streaming digest replaced.
PINNED_TREES = {
    "empty": "672003418993584239ec5c79232de911699178ad820cd3ca9779abbfe7f7ba7d",
    "empty tail":
        "ffb23aa8e55823b5c8319625ce830c1abbe0cfeb88a1335928a94ea1047893aa",
    "full bucket":
        "ec83f65f4a3f02ab3eae804420014d3a857f8732fde8b37ad192404b5b41cea7",
    "long run, then a block":
        "48cefdc64c1937dccdb0407c00e8e0fd1aecfcc0896244bb506784cdb4a599b8",
    "no levels":
        "fea1cfc011af9bd265cdb7da10ef96b630350600d34f7fdf17f85ea4948dc0c4",
    "no levels, empty":
        "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
}

#: scheme -> the digest of each of its trees after ``requests``.
PINNED_SCHEMES = {
    "PIC_X32": [
        "bd0f325f295d286b147c4786c3905474d3382a0c0b5fb9ee23afcffaea5efe87",
    ],
    "P_X16": [
        "3a82a52e0076f7fb777d519b0e84eac1137cce923f79484c82e9fde10fea0d8f",
    ],
    "R_X8": [
        "b38e1e7b379a72a9f63596cc87394a49a12adc84014bcfcd36bd5eb6eb634adb",
        "daed1f955aad06a8efab435a761670ca299d7cb65108bc63347f555a99b04036",
        "4c3bef7d5d2bd0979206e3956edc3cb83f71912f7fc1523a37ccff968324f972",
        "4c093c4a3ebd4e21b4b19fd4624983895968d57ce9b383e93ff023d9038d64bf",
    ],
}


def handmade(storage_cls, name):
    geometry, buckets = TREES[name]
    storage = storage_cls(OramConfig(**geometry))
    for index, records in buckets.items():
        storage.replace_bucket_records(index, records)
    return storage


@pytest.mark.parametrize("storage_cls", STORAGES)
@pytest.mark.parametrize("name", sorted(TREES))
def test_handmade_trees_digest_as_pinned(name, storage_cls):
    storage = handmade(storage_cls, name)
    assert tree_digest(storage) == PINNED_TREES[name]
    assert tree_records(storage) == tuple(sorted(TREES[name][1].items()))


@pytest.mark.parametrize("storage_cls", STORAGES)
def test_a_drained_bucket_is_no_record(storage_cls):
    """Emptied or never touched, a bucket holds nothing: both storages
    list the same occupied buckets and digest alike."""
    storage = handmade(storage_cls, "empty tail")
    storage.replace_bucket_records(1, ())
    storage.replace_bucket_records(40, ())
    assert list(storage.occupied_buckets()) == [0, 2]
    assert [index for index, _ in tree_records(storage)] == [0, 2]
    fresh = handmade(storage_cls, "empty tail")
    fresh.replace_bucket_records(1, ())
    assert tree_digest(storage) == tree_digest(fresh)


def requests(frontend):
    return lockstep.mixed(frontend, 1, 200, write_share=0.5)


@pytest.mark.parametrize("storage", ("object", "columnar"))
@pytest.mark.parametrize("scheme", ("PIC_X32", "P_X16", "R_X8"))
def test_scheme_trees_digest_as_pinned(scheme, storage):
    if storage == "columnar" and lockstep.CORE is None:
        pytest.skip(lockstep.unavailable_reason())
    frontend = lockstep.build(scheme, storage, **lockstep.SMALL)
    if storage == "columnar":
        lockstep.engage(frontend)
    for args in requests(frontend):
        frontend.access(*args)
    assert lockstep.frontend_digests(frontend) == PINNED_SCHEMES[scheme]


def test_a_2_20_block_tree_digests_in_bounded_memory():
    """A whole-tree byte image of this near-empty tree peaked at 16 MiB
    under ``tracemalloc`` (one tuple slot and 4 bytes per bucket, then
    a copy); the stream holds about one piece at a time (0.26 MiB)."""
    storage = ColumnarTreeStorage(OramConfig(num_blocks=2**20))
    last = storage.config.num_buckets - 1
    for index in (0, 1, 5, 1000, 2**19, last):
        storage.replace_bucket_records(index, (record(index, 3, block_bytes=64),))
    tracemalloc.start()
    try:
        tree_digest(storage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
