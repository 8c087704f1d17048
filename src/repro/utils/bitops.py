"""Bit-manipulation helpers used throughout the ORAM tree arithmetic.

Path ORAM addresses tree nodes by (level, leaf) pairs, and eviction logic
depends on the length of the common prefix of two leaf labels (viewed as
L-bit strings, most significant bit first). These helpers centralise that
arithmetic so the backend and tests share one definition.
"""

from __future__ import annotations


def is_power_of_two(x: int) -> bool:
    """Return True if ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (1 for ``n`` <= 1)."""
    return 1 << (n - 1).bit_length() if n > 1 else 1


def log2_exact(x: int) -> int:
    """Return log2(x) for a power of two ``x``; raise ValueError otherwise."""
    if not is_power_of_two(x):
        raise ValueError(f"{x} is not a positive power of two")
    return x.bit_length() - 1


def bit_length(x: int) -> int:
    """Number of bits needed to represent ``x`` (0 needs 0 bits)."""
    if x < 0:
        raise ValueError("bit_length is defined for non-negative integers")
    return x.bit_length()


def bit_is_set(x: int, i: int) -> bool:
    """Return True if bit ``i`` (LSB = 0) of ``x`` is set."""
    return (x >> i) & 1 == 1


def set_bit(x: int, i: int) -> int:
    """Return ``x`` with bit ``i`` set."""
    return x | (1 << i)


def clear_bit(x: int, i: int) -> int:
    """Return ``x`` with bit ``i`` cleared."""
    return x & ~(1 << i)


def extract_bits(x: int, lo: int, width: int) -> int:
    """Return ``width`` bits of ``x`` starting at bit ``lo`` (LSB = 0)."""
    if width < 0 or lo < 0:
        raise ValueError("lo and width must be non-negative")
    return (x >> lo) & ((1 << width) - 1)


def reverse_bits(x: int, width: int) -> int:
    """Reverse the low ``width`` bits of ``x``."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def common_prefix_len(a: int, b: int, width: int) -> int:
    """Length of the common prefix of ``a`` and ``b`` as ``width``-bit strings.

    Both are interpreted MSB-first. The result is the deepest tree level
    (0..width) at which the paths to leaves ``a`` and ``b`` still coincide.
    """
    if a >= (1 << width) or b >= (1 << width):
        raise ValueError("leaf label out of range for given width")
    xor = a ^ b
    if xor == 0:
        return width
    return width - xor.bit_length()
