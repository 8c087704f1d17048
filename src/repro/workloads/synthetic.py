"""Primitive synthetic address-pattern generators.

Each generator is an infinite iterator of byte addresses confined to a
working set of ``wss_bytes``. They are the building blocks the SPEC
stand-ins mix; each captures one archetypal locality class:

- :func:`sequential_stream` — unit-stride scan (libquantum-like);
- :func:`strided_stream` — constant stride, the §4.1.2 "program B";
- :func:`uniform_random` — no locality at all;
- :func:`zipf_random` — heavy-tailed hot set (gcc/perl-like heaps);
- :func:`pointer_chase` — dependent walk through a random permutation
  (mcf-like), the worst case for any cache and for the PLB;
- :func:`hot_cold` — small hot region plus cold uniform traffic.

:class:`Pattern` names one of them with its parameters as plain data, so
a mixture can be handed to the native trace-synthesis kernel as a table;
the generators stay the reference the kernel is locked against and what
runs when the extension is not built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.utils.rng import DeterministicRng


def sequential_stream(
    wss_bytes: int, rng: DeterministicRng, stride: int = 64
) -> Iterator[int]:
    """Unit-stride scan over the working set, wrapping around."""
    addr = rng.randrange(max(wss_bytes // stride, 1)) * stride
    while True:
        yield addr
        addr = (addr + stride) % wss_bytes


def strided_stream(
    wss_bytes: int, rng: DeterministicRng, stride: int = 1024
) -> Iterator[int]:
    """Constant-stride scan (program B of §4.1.2 when stride = X lines)."""
    addr = rng.randrange(max(wss_bytes // 64, 1)) * 64
    while True:
        yield addr
        addr = (addr + stride) % wss_bytes


def uniform_random(wss_bytes: int, rng: DeterministicRng) -> Iterator[int]:
    """Uniform line-granular addresses — zero locality."""
    lines = max(wss_bytes // 64, 1)
    while True:
        yield rng.randrange(lines) * 64


def zipf_random(
    wss_bytes: int, rng: DeterministicRng, alpha: float = 0.9
) -> Iterator[int]:
    """Zipf-distributed line popularity (hot structures, cold tail)."""
    lines = max(wss_bytes // 64, 1)
    # A fixed pseudo-random rank->line shuffle keeps hot lines scattered.
    scramble = 0x9E3779B1
    while True:
        rank = rng.zipf(lines, alpha)
        yield ((rank * scramble) % lines) * 64


def pointer_chase(
    wss_bytes: int, rng: DeterministicRng, node_bytes: int = 64
) -> Iterator[int]:
    """Dependent pointer walk over a pseudo-random permutation.

    Uses a multiplicative-congruential permutation of the node space so
    the walk has full period without materialising the permutation.
    """
    nodes = max(wss_bytes // node_bytes, 2)
    current = rng.randrange(nodes)
    # Odd multiplier gives a bijection modulo a power of two; otherwise
    # fall back to an additive constant walk that still defeats caches.
    mult = 0x5DEECE66D | 1
    offset = rng.randrange(nodes) | 1
    while True:
        yield (current % nodes) * node_bytes
        current = (current * mult + offset) % nodes


def hot_cold(
    wss_bytes: int,
    rng: DeterministicRng,
    hot_fraction: float = 0.05,
    hot_probability: float = 0.9,
) -> Iterator[int]:
    """Hot/cold mixture: a small region absorbs most references."""
    lines = max(wss_bytes // 64, 1)
    hot_lines = max(int(lines * hot_fraction), 1)
    while True:
        if rng.random() < hot_probability:
            yield rng.randrange(hot_lines) * 64
        else:
            yield (hot_lines + rng.randrange(max(lines - hot_lines, 1))) * 64


@dataclass(frozen=True)
class Pattern:
    """One address pattern of a mixture: a generator named by ``kind``
    plus the arguments it is called with."""

    #: ``sequential`` | ``strided`` | ``uniform`` | ``zipf`` |
    #: ``pointer_chase`` | ``hot_cold``.
    kind: str
    #: Stride in bytes (sequential, strided) or node size (pointer_chase).
    step: int = 64
    alpha: float = 0.9
    hot_fraction: float = 0.05
    hot_probability: float = 0.9
    #: Working set the pattern is confined to; None is the stand-in's.
    region_wss: Optional[int] = None
    #: Byte offset of that region in the stand-in's address space (a mix
    #: lays its tenants' regions out back to back).
    offset: int = 0

    def wss(self, stand_in_wss: int) -> int:
        """The working set the pattern runs over inside a stand-in."""
        return stand_in_wss if self.region_wss is None else self.region_wss

    def addresses(self, wss_bytes: int, rng: DeterministicRng) -> Iterator[int]:
        """The pattern's infinite byte-address stream over ``wss_bytes``."""
        wss = self.wss(wss_bytes)
        if self.kind == "sequential":
            stream = sequential_stream(wss, rng, self.step)
        elif self.kind == "strided":
            stream = strided_stream(wss, rng, self.step)
        elif self.kind == "uniform":
            stream = uniform_random(wss, rng)
        elif self.kind == "zipf":
            stream = zipf_random(wss, rng, self.alpha)
        elif self.kind == "pointer_chase":
            stream = pointer_chase(wss, rng, self.step)
        elif self.kind == "hot_cold":
            stream = hot_cold(wss, rng, self.hot_fraction, self.hot_probability)
        else:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.offset:
            return (addr + self.offset for addr in stream)
        return stream
