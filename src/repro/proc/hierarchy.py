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
from typing import Iterable, Optional, Tuple

from repro.config import ProcessorConfig
from repro.proc.cache import Cache

#: On-disk trace container: magic, format version, flags, name length,
#: four scalar counters, event count, payload CRC32.
TRACE_MAGIC = b"RTRC"
TRACE_VERSION = 1
_TRACE_HEADER = struct.Struct("<4sHHIqqqqqI")
_FLAG_COMPRESSED = 1
#: ``bytes.translate`` table keeping the low bit of each byte: a packed
#: event word's first (little-endian) byte, reduced to its write flag.
_LOW_BIT = bytes(b & 1 for b in range(256))

#: Measured references a run may take per LLC miss of its budget. A
#: stream that fits in the L2 stops missing and would never end; every
#: registered stand-in needs under 33 per miss at 64 B and 128 B lines.
#: The synthesis kernel's bound is the same (its ``MAX_REFS_PER_MISS``).
MAX_REFS_PER_MISS = 1000


@dataclass(frozen=True)
class MissEvent:
    """One ORAM-visible event: an LLC miss (read) or dirty eviction (write)."""

    line_addr: int
    is_write: bool


class MissTrace:
    """LLC-filtered view of a program's execution.

    The event stream is two columns: an ``array('q')`` of line addresses
    and an ``array('b')`` of 0/1 write flags, which every producer hands
    to :meth:`from_columns`. They are the trace's only copy of the
    stream: ``events`` is a read-only tuple of :class:`MissEvent` built
    from them on first read and kept until ``events`` is assigned.
    Assigning ``events`` (or passing ``events=``) copies the events into
    new columns, so the caller's list is never aliased and later changes
    to it do not reach the trace.

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
        events: Optional[Iterable[MissEvent]] = None,
    ):
        self.name = name
        self.instructions = instructions
        self.mem_refs = mem_refs
        self.l1_hits = l1_hits
        self.l2_hits = l2_hits
        self.events = () if events is None else events

    def _adopt(self, line_addrs, is_write) -> None:
        """Copy two columns (buffers or int sequences) into the trace's,
        and count the demand misses among them once."""
        is_write = array("b", is_write)
        self._columns = (array("q", line_addrs), is_write)
        self._events: Optional[Tuple[MissEvent, ...]] = None
        self._llc_misses = len(is_write) - is_write.count(1)

    @property
    def events(self) -> Tuple[MissEvent, ...]:
        """The events, built from the columns on first read."""
        events = self._events
        if events is None:
            line_addrs, is_write = self._columns
            events = self._events = tuple(
                MissEvent(addr, w)
                for addr, w in zip(line_addrs.tolist(), map(bool, is_write.tolist()))
            )
        return events

    @events.setter
    def events(self, events: Iterable[MissEvent]) -> None:
        events = list(events)
        self._adopt(
            [e.line_addr for e in events], [bool(e.is_write) for e in events]
        )

    @property
    def num_events(self) -> int:
        """Events in the trace (misses plus writebacks): the ORAM accesses."""
        return len(self._columns[0])

    @property
    def llc_misses(self) -> int:
        """Demand misses (excludes eviction writebacks)."""
        return self._llc_misses

    def columns(self) -> Tuple[array, array]:
        """Struct-of-arrays view of the event stream: (line_addrs, is_write),
        an ``array('q')`` and an ``array('b')`` (the replay loop's operands).
        """
        return self._columns

    def _counters(self) -> Tuple[str, int, int, int, int]:
        return (
            self.name, self.instructions, self.mem_refs, self.l1_hits, self.l2_hits
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissTrace):
            return NotImplemented
        if self is other:
            return True
        return (
            self._counters() == other._counters()
            and self.columns() == other.columns()
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
        """Compact binary image of the trace.

        Each event packs into one little-endian 64-bit word as
        ``line_addr << 1 | is_write``; the event section is zlib-compressed
        by default and guarded by a CRC32 so corruption is detected on load.
        The on-disk trace cache writes the uncompressed image
        (``compress=False``) and still reads compressed ones: the header's
        flag says which, and :meth:`from_bytes` accepts both.
        """
        name_bytes = self.name.encode("utf-8")
        line_addrs, is_write = self.columns()
        packed = array(
            "Q", [(addr << 1) | w for addr, w in zip(line_addrs, is_write)]
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
        packed = array("Q", payload)
        if sys.byteorder == "big":  # pragma: no cover - LE-canonical format
            packed.byteswap()
        line_col = [word >> 1 for word in packed]
        is_write_col = payload[0::8].translate(_LOW_BIT)
        return cls.from_columns(name, counters, line_col, is_write_col)

    @classmethod
    def from_columns(cls, name: str, counters, line_addrs, is_write) -> "MissTrace":
        """The trace of two column buffers: how every producer makes one
        (a decoded cache image, :meth:`CacheHierarchy.run`, the native
        synthesis kernel).

        ``counters`` is (instructions, mem_refs, l1_hits, l2_hits);
        ``line_addrs`` and ``is_write`` are native int64 addresses and 0/1
        bytes, as buffers or sequences. They are copied into the trace's
        ``array('q')`` / ``array('b')`` columns: no :class:`MissEvent` is
        built until ``events`` is read.
        """
        trace = cls(name, *counters)
        trace._adopt(line_addrs, is_write)
        return trace


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
        misses when positive, or short of them after
        :data:`MAX_REFS_PER_MISS` measured references per miss.
        """
        line_addrs, is_write = array("q"), array("b")
        instructions = mem_refs = l1_hits = l2_hits = 0
        line_shift = self.config.line_bytes.bit_length() - 1
        misses = 0
        max_refs = MAX_REFS_PER_MISS * max_llc_misses if max_llc_misses else -1
        warm_remaining = warmup_refs
        for gap, write, byte_addr in refs:
            recording = warm_remaining <= 0
            if not recording:
                warm_remaining -= 1
            if recording:
                if mem_refs == max_refs:
                    break
                instructions += gap + 1
                mem_refs += 1
            line = byte_addr >> line_shift
            hit, wb = self.l1.access(line, write)
            if hit:
                if recording:
                    l1_hits += 1
                continue
            if wb is not None:
                l2_wb = self.l2.install(wb, dirty=True)
                if l2_wb is not None and recording:
                    line_addrs.append(l2_wb)
                    is_write.append(1)
            l2_hit, l2_wb = self.l2.access(line, False)
            if l2_hit:
                if recording:
                    l2_hits += 1
                continue
            if not recording:
                continue
            if l2_wb is not None:
                line_addrs.append(l2_wb)
                is_write.append(1)
            line_addrs.append(line)
            is_write.append(0)
            misses += 1
            if max_llc_misses and misses >= max_llc_misses:
                break
        return MissTrace.from_columns(
            name, (instructions, mem_refs, l1_hits, l2_hits), line_addrs, is_write
        )
