"""Two-level cache hierarchy producing the LLC miss/eviction stream.

The ORAM controller intercepts last-level cache misses and dirty
evictions (§1, §2); :class:`CacheHierarchy` simulates L1 + L2 over a
memory-reference trace and records exactly that stream as a
:class:`MissTrace`, which the system simulator then replays against any
Frontend. Decoupling trace generation from Frontend replay lets one
cache simulation serve every scheme and PLB size (they see the same
miss addresses by construction).
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.config import ProcessorConfig
from repro.proc.cache import Cache

try:  # pragma: no cover - exercised indirectly on both branches
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: On-disk trace container: magic, format version, flags, name length,
#: four scalar counters, event count, payload CRC32.
TRACE_MAGIC = b"RTRC"
TRACE_VERSION = 1
_TRACE_HEADER = struct.Struct("<4sHHIqqqqqI")
_FLAG_COMPRESSED = 1


@dataclass(frozen=True)
class MissEvent:
    """One ORAM-visible event: an LLC miss (read) or dirty eviction (write)."""

    line_addr: int
    is_write: bool


class MissTrace:
    """LLC-filtered view of a program's execution.

    The event stream has two representations. A trace that arrives as
    columns (:meth:`from_columns`: a decoded cache image or the native
    synthesis kernel's output) keeps its ``int64`` address column and
    ``bool`` write column and builds no :class:`MissEvent`; ``events``
    builds the list on first read. A trace built from events (``events=``,
    ``trace.events = [...]``, :meth:`CacheHierarchy.run` appending) keeps
    the list and derives the columns on demand. Once the list exists it
    is the source of truth: appending to it or rebinding ``events``
    invalidates the columns, which are rebuilt from the list when next
    asked for (in-place same-length element mutation does not — mutate
    via append/rebind, as every producer in this repo does).

    Equality is the name, the four counters and the event sequence,
    compared as columns; the repr shows the event count, not the events.
    """

    def __init__(
        self,
        name: str,
        instructions: int = 0,
        mem_refs: int = 0,
        l1_hits: int = 0,
        l2_hits: int = 0,
        events: Optional[List[MissEvent]] = None,
    ):
        self.name = name
        self.instructions = instructions
        self.mem_refs = mem_refs
        self.l1_hits = l1_hits
        self.l2_hits = l2_hits
        self._events: Optional[List[MissEvent]] = [] if events is None else events
        #: The columns: (events list reference, length, line_addr column,
        #: is_write column). A column-born trace's reference is None until
        #: ``events`` is read. The list *reference* (not its id — CPython's
        #: free list recycles addresses, so an id could alias a new list
        #: after a rebind) plus the length key the view.
        self._columns: Optional[
            Tuple[Optional[List[MissEvent]], int, object, object]
        ] = None

    @property
    def events(self) -> List[MissEvent]:
        """The event list, built from the columns on first read."""
        events = self._events
        if events is None:
            _, n, line_addrs, is_write = self._columns
            events = self._events = [
                MissEvent(addr, w)
                for addr, w in zip(line_addrs.tolist(), map(bool, is_write.tolist()))
            ]
            self._columns = (events, n, line_addrs, is_write)
        return events

    @events.setter
    def events(self, events: List[MissEvent]) -> None:
        self._events = events

    def _view(self):
        """The cached columns if they are current, else None."""
        cached = self._columns
        if cached is None or cached[0] is not self._events:
            return None
        if cached[0] is not None and cached[1] != len(cached[0]):
            return None
        return cached

    @property
    def num_events(self) -> int:
        """Events in the trace (misses plus writebacks): the ORAM accesses."""
        view = self._view()
        return view[1] if view is not None else len(self._events)

    @property
    def llc_misses(self) -> int:
        """Demand misses (excludes eviction writebacks)."""
        view = self._view()
        if view is None:
            return sum(1 for e in self._events if not e.is_write)
        # The columns are current: one count over the write column instead
        # of a generator step per event.
        is_write = view[3]
        writes = _np.count_nonzero(is_write) if _np is not None else sum(is_write)
        return view[1] - int(writes)

    # -- columnar view --------------------------------------------------------

    def columns(self) -> Tuple[object, object]:
        """Struct-of-arrays view of the event stream: (line_addrs, is_write).

        With numpy available the columns are an ``int64`` array and a bool
        array (the fast replay loop's native operands); without it they
        are ``array('q')`` / ``array('b')`` with identical element values.
        A column-born trace returns the columns it arrived with; an
        event-built one materialises them from ``events`` and caches them
        until the list is appended to or rebound.
        """
        view = self._view()
        if view is not None:
            return view[2], view[3]
        events = self._events
        n = len(events)
        if _np is not None:
            line_addrs = _np.fromiter(
                (e.line_addr for e in events), dtype=_np.int64, count=n
            )
            is_write = _np.fromiter(
                (e.is_write for e in events), dtype=_np.bool_, count=n
            )
        else:
            line_addrs = array("q", (e.line_addr for e in events))
            is_write = array("b", (1 if e.is_write else 0 for e in events))
        self._columns = (events, n, line_addrs, is_write)
        return line_addrs, is_write

    def _counters(self) -> Tuple[str, int, int, int, int]:
        return (
            self.name, self.instructions, self.mem_refs, self.l1_hits, self.l2_hits
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissTrace):
            return NotImplemented
        if self is other:
            return True
        if (
            self._counters() != other._counters()
            or self.num_events != other.num_events
        ):
            return False
        return all(
            _same_column(a, b) for a, b in zip(self.columns(), other.columns())
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"MissTrace(name={self.name!r}, instructions={self.instructions}, "
            f"mem_refs={self.mem_refs}, l1_hits={self.l1_hits}, "
            f"l2_hits={self.l2_hits}, events=<{self.num_events} events>)"
        )

    @property
    def mpki(self) -> float:
        """LLC misses per kilo-instruction."""
        return 1000.0 * self.llc_misses / self.instructions if self.instructions else 0.0

    # -- serialisation --------------------------------------------------------

    def to_bytes(self, compress: bool = True) -> bytes:
        """Compact binary image for the on-disk trace cache.

        Each event packs into one little-endian 64-bit word as
        ``line_addr << 1 | is_write``; the event section is zlib-compressed
        by default and guarded by a CRC32 so corruption is detected on load.
        """
        name_bytes = self.name.encode("utf-8")
        line_addrs, is_write = self.columns()
        if _np is not None:
            # Pack every event word in one vectorised sweep; byte-identical
            # to the scalar array('Q') path below.
            words = (line_addrs.astype(_np.uint64) << _np.uint64(1)) | is_write
            payload = words.astype("<u8").tobytes()
        else:
            packed = array(
                "Q", ((addr << 1) | w for addr, w in zip(line_addrs, is_write))
            )
            if sys.byteorder == "big":  # pragma: no cover - LE-canonical format
                packed.byteswap()
            payload = packed.tobytes()
        flags = 0
        if compress:
            payload = zlib.compress(payload, 6)
            flags |= _FLAG_COMPRESSED
        header = _TRACE_HEADER.pack(
            TRACE_MAGIC,
            TRACE_VERSION,
            flags,
            len(name_bytes),
            self.instructions,
            self.mem_refs,
            self.l1_hits,
            self.l2_hits,
            len(line_addrs),
            zlib.crc32(payload),
        )
        return header + name_bytes + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "MissTrace":
        """Inverse of :meth:`to_bytes`; raises ``ValueError`` on corruption."""
        if len(data) < _TRACE_HEADER.size:
            raise ValueError("trace image truncated before header")
        (
            magic,
            version,
            flags,
            name_len,
            instructions,
            mem_refs,
            l1_hits,
            l2_hits,
            num_events,
            crc,
        ) = _TRACE_HEADER.unpack_from(data)
        if magic != TRACE_MAGIC:
            raise ValueError("bad trace magic")
        if version != TRACE_VERSION:
            raise ValueError(f"unsupported trace version {version}")
        body = data[_TRACE_HEADER.size :]
        if len(body) < name_len:
            raise ValueError("trace image truncated inside name")
        name = body[:name_len].decode("utf-8")
        payload = bytes(body[name_len:])
        if zlib.crc32(payload) != crc:
            raise ValueError("trace payload CRC mismatch")
        if flags & _FLAG_COMPRESSED:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise ValueError(f"trace payload decompression failed: {exc}") from exc
        if len(payload) != 8 * num_events:
            raise ValueError("trace event section has wrong length")
        counters = (instructions, mem_refs, l1_hits, l2_hits)
        if _np is not None:
            words = _np.frombuffer(payload, dtype="<u8")
            line_col = (words >> _np.uint64(1)).astype(_np.int64)
            is_write_col = (words & _np.uint64(1)) != 0
        else:
            packed = array("Q")
            packed.frombytes(payload)
            if sys.byteorder == "big":  # pragma: no cover - LE-canonical format
                packed.byteswap()
            line_col = array("q", (word >> 1 for word in packed))
            is_write_col = array("b", (word & 1 for word in packed))
        return cls.from_columns(name, counters, line_col, is_write_col)

    @classmethod
    def from_columns(cls, name: str, counters, line_addrs, is_write) -> "MissTrace":
        """A trace that arrives as columns: a decoded image, or the native
        synthesis kernel's output.

        ``counters`` is (instructions, mem_refs, l1_hits, l2_hits);
        ``line_addrs`` and ``is_write`` are buffers of native int64
        addresses and 0/1 bytes. They become the trace's columns as they
        are (numpy views, or ``array('q')`` / ``array('b')`` without
        numpy): no :class:`MissEvent` is built until ``events`` is read,
        and the trace reaches the fast replay loop without a second pass.
        """
        if _np is not None:
            line_addrs = _np.frombuffer(line_addrs, dtype=_np.int64)
            is_write = _np.frombuffer(is_write, dtype=_np.bool_)
        else:
            line_addrs = array("q", line_addrs)
            is_write = array("b", is_write)
        trace = cls(name, *counters)
        trace._events = None
        trace._columns = (None, len(line_addrs), line_addrs, is_write)
        return trace


def _same_column(a, b) -> bool:
    """Element-wise equality of two equal-length trace columns."""
    if _np is not None:
        return bool(_np.array_equal(a, b))
    return list(a) == list(b)


class CacheHierarchy:
    """L1 + L2 write-back hierarchy with Table 1 geometry by default."""

    def __init__(self, config: ProcessorConfig = ProcessorConfig()):
        self.config = config
        self.l1 = Cache(config.l1_bytes, config.l1_ways, config.line_bytes)
        self.l2 = Cache(config.l2_bytes, config.l2_ways, config.line_bytes)

    def run(
        self,
        refs: Iterable[Tuple[int, bool, int]],
        name: str = "trace",
        max_llc_misses: int = 0,
        warmup_refs: int = 0,
    ) -> MissTrace:
        """Drive the hierarchy with (gap_instructions, is_write, byte_addr).

        The first ``warmup_refs`` references warm the caches without being
        recorded (the paper warms over 1B instructions before measuring,
        §7.1.1); measurement then stops after ``max_llc_misses`` demand
        misses when positive.
        """
        trace = MissTrace(name=name)
        line_shift = self.config.line_bytes.bit_length() - 1
        misses = 0
        warm_remaining = warmup_refs
        for gap, is_write, byte_addr in refs:
            recording = warm_remaining <= 0
            if not recording:
                warm_remaining -= 1
            if recording:
                trace.instructions += gap + 1
                trace.mem_refs += 1
            line = byte_addr >> line_shift
            hit, wb = self.l1.access(line, is_write)
            if hit:
                if recording:
                    trace.l1_hits += 1
                continue
            if wb is not None:
                l2_wb = self.l2.install(wb, dirty=True)
                if l2_wb is not None and recording:
                    trace.events.append(MissEvent(l2_wb, True))
            l2_hit, l2_wb = self.l2.access(line, False)
            if l2_hit:
                if recording:
                    trace.l2_hits += 1
                continue
            if not recording:
                continue
            if l2_wb is not None:
                trace.events.append(MissEvent(l2_wb, True))
            trace.events.append(MissEvent(line, False))
            misses += 1
            if max_llc_misses and misses >= max_llc_misses:
                break
        return trace
