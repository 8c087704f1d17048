"""Path ORAM Backend (§3.1): stash, path access, and eviction.

The Backend implements steps 2-5 of the Path ORAM access algorithm — read
a path, pull real blocks into the stash, return/update the block of
interest, evict greedily back to the same path. It supports the four
operation flavours the Frontend needs: ``READ``, ``WRITE``, ``READRMV``
(read-remove) and ``APPEND`` (§4.2.2).

All Frontend schemes in this library (Recursive baseline, PLB, compressed
PosMap, PMMAC) drive this same Backend unchanged, which is the paper's
central modularity claim. Two interchangeable implementations exist,
proven bit-identical by the differential harness and golden digests:

- :class:`PathOramBackend` over bucket-object storages (the original
  formulation, also required under the encrypted/Merkle storages);
- :class:`~repro.backend.columnar.ColumnarPathOramBackend` over the
  columnar slot-arena storage, whose access is the C extension's
  ``AccessKernel``: integer loops instead of Block objects.

:func:`make_backend` picks the matching implementation for a storage.
"""

from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.path_oram import AccessReceipt, PathOramBackend, make_backend
from repro.backend.stash import ColumnarStash, Stash

__all__ = [
    "Op",
    "PathOramBackend",
    "ColumnarPathOramBackend",
    "AccessReceipt",
    "Stash",
    "ColumnarStash",
    "make_backend",
]
