"""Frontend interface and shared statistics.

Every Frontend exposes ``access(addr, op, data)`` with the semantics of
§3.1's accessORAM — the processor-side contract — plus a statistics block
that the evaluation harness uses to attribute bandwidth to Data vs PosMap
traffic (the white/shaded split of Figs. 7 and 8).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.backend.ops import Op
from repro.errors import ConfigurationError
from repro.utils.stats import LEDGERS


def check_request(op: Op, data, block_bytes: int) -> None:
    """Refuse a request before any state moves, on either tier: an
    operation other than READ / WRITE, a WRITE of anything but one block,
    or one whose payload ``bytes()`` refuses (a ``str``), which the data
    access would otherwise meet only when it copies the payload in, after
    the PosMap walk."""
    if op not in (Op.READ, Op.WRITE):
        raise ConfigurationError("processor requests are READ or WRITE")
    if op is Op.WRITE:
        if data is None or len(data) != block_bytes:
            raise ValueError("WRITE requires a full block of data")
        if type(data) is not bytes:
            bytes(data)


@LEDGERS["frontend"].bind()
class FrontendStats:
    """Counters accumulated across the life of a Frontend.

    Each one is a slot of ``ledger`` (an ``array('q')``, laid out by
    :data:`~repro.utils.stats.LEDGERS`): the interpreted frontends count
    through the names, the native kernels in place.
    """

    COUNTERS = LEDGERS["frontend"].slots

    def __init__(self) -> None:
        self.ledger = LEDGERS["frontend"].column()

    def __eq__(self, other) -> bool:
        if type(other) is not FrontendStats:
            return NotImplemented
        return self.ledger == other.ledger

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value}" for name, value in zip(self.COUNTERS, self.ledger)
        )
        return f"FrontendStats({fields})"

    @property
    def tree_accesses(self) -> int:
        """Total Backend path accesses (data + PosMap)."""
        return self.data_tree_accesses + self.posmap_tree_accesses

    @property
    def posmap_fraction(self) -> float:
        """Fraction of Backend path accesses serving the PosMap."""
        total = self.tree_accesses
        return self.posmap_tree_accesses / total if total else 0.0


@dataclass(slots=True)
class AccessResult:
    """Outcome of one Frontend access, for the timing model."""

    data: bytes
    tree_accesses: int
    posmap_tree_accesses: int = 0
    plb_hit_level: int = -1


class Frontend(abc.ABC):
    """Processor-facing ORAM controller interface."""

    def __init__(self) -> None:
        self.stats = FrontendStats()

    @abc.abstractmethod
    def access(
        self, addr: int, op: Op = Op.READ, data: Optional[bytes] = None
    ) -> AccessResult:
        """Read or write one data block; returns its (pre-write) contents."""

    def read(self, addr: int) -> bytes:
        """Convenience read returning payload bytes."""
        return self.access(addr, Op.READ).data

    def write(self, addr: int, data: bytes) -> None:
        """Convenience write."""
        self.access(addr, Op.WRITE, data)

    # -- bandwidth attribution --------------------------------------------------

    @property
    @abc.abstractmethod
    def data_bytes_moved(self) -> int:
        """Bytes moved on the memory bus attributable to data blocks."""

    @property
    @abc.abstractmethod
    def posmap_bytes_moved(self) -> int:
        """Bytes moved attributable to PosMap lookups."""

    @property
    def total_bytes_moved(self) -> int:
        """All bytes moved on the memory bus."""
        return self.data_bytes_moved + self.posmap_bytes_moved
