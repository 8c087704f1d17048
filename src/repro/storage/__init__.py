"""Untrusted external storage: blocks, buckets, and the ORAM tree.

Three storage models share one Backend-facing interface:

- :class:`~repro.storage.tree.TreeStorage` (kind ``object``) keeps
  buckets as Python objects (no real encryption). It is the reference
  tier's storage — the one every lockstep suite compares against;
  bandwidth is accounted using the padded bucket size of
  :class:`~repro.config.OramConfig`.
- :class:`~repro.storage.columnar.ColumnarTreeStorage` (kind
  ``columnar``) stores the tree as columns over a slot arena (addr/leaf
  columns + contiguous byte arena) and pairs with the columnar Backend
  whose eviction loop moves slot ids instead of Block objects. It is the
  fast tier's storage, the only one the native kernels run on, and is
  held bit-identical to ``object`` by
  ``tests/test_columnar_differential.py``.
- :class:`~repro.storage.encrypted.EncryptedTreeStorage` serialises buckets
  to bytes and encrypts them with real one-time pads (bucket-seed or
  global-seed scheme), exposing the raw ciphertext to the adversary; it
  backs the privacy/integrity security tests including the §6.4 replay
  attack.

:mod:`repro.storage.snapshot` provides storage-agnostic content snapshots
and digests used by the equivalence and integrity test layers.

Preset- and spec-built frontends pick their storage through the registry
below: an explicit kind (``storage="columnar"``, ``"PC_X32:storage=object"``)
wins, then :attr:`Settings.storage_kind <repro.settings.Settings.storage_kind>`
— ``REPRO_STORAGE``, and with that unset the replay tier's storage.
"""

from repro.config import OramConfig
from repro.settings import Settings
from repro.storage.block import Block, DUMMY_ADDR
from repro.storage.bucket import Bucket
from repro.storage.columnar import ColumnarTreeStorage
from repro.storage.encrypted import EncryptedTreeStorage, EncryptionScheme
from repro.storage.snapshot import (
    bucket_records,
    path_records,
    tree_digest,
    tree_records,
)
from repro.storage.tree import TreeStorage, path_indices

__all__ = [
    "Block",
    "DUMMY_ADDR",
    "Bucket",
    "TreeStorage",
    "ColumnarTreeStorage",
    "EncryptedTreeStorage",
    "EncryptionScheme",
    "make_storage",
    "make_storage_factory",
    "path_indices",
    "bucket_records",
    "path_records",
    "tree_records",
    "tree_digest",
]


def make_storage(kind: str, config: OramConfig, observer=None):
    """Instantiate a storage backend by name: ``object`` or ``columnar``.

    ``default`` is the environment's: ``Settings.from_env().storage_kind``.
    """
    if kind == "default":
        kind = Settings.from_env().storage_kind
    if kind in ("object", "tree"):
        return TreeStorage(config, observer=observer)
    if kind == "columnar":
        return ColumnarTreeStorage(config, observer=observer)
    raise ValueError(
        f"unknown storage backend {kind!r}; choose 'object' or 'columnar'"
    )


def make_storage_factory(kind: str):
    """``storage_factory`` hook (config, observer) -> storage for presets."""

    def factory(config: OramConfig, observer=None):
        view = observer.for_tree(0) if observer is not None else None
        return make_storage(kind, config, observer=view)

    return factory
