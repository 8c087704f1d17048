"""Backend operation flavours (§3.1 and §4.2.2)."""

from __future__ import annotations

import enum


class Op(enum.Enum):
    """Operation requested of the Backend for one block.

    ``READ``/``WRITE`` are the classic Path ORAM operations. ``READRMV``
    physically deletes the block from the stash after forwarding it to the
    Frontend (PLB refill). ``APPEND`` adds a block to the stash without any
    tree access (PLB eviction); the block must not currently exist in the
    ORAM and must carry a valid current leaf (§4.2.2).

    Both Backend implementations (object and columnar) honour the same
    four flavours with identical observable semantics — the operation
    enum is the entire Frontend-facing contract.
    """

    READ = "read"
    WRITE = "write"
    READRMV = "readrmv"
    APPEND = "append"
