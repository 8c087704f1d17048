"""Named scheme presets matching the paper's evaluation (§7.1.4).

Naming follows the paper: P = PLB, I = Integrity (PMMAC), C = Compressed
PosMap, and the X suffix is the PosMap fan-out:

- ``R_X8``    — Recursive ORAM baseline of [26]: separate trees, X = 8
                (32-byte PosMap blocks), no PLB.
- ``P_X16``   — PLB + Unified tree, uncompressed PosMap (X = 16 at 64 B).
- ``PC_X32``  — PLB + compressed PosMap (alpha=64, beta=14, X = 32).
- ``PI_X8``   — PLB + PMMAC with flat 64-bit counters (X = 8).
- ``PIC_X32`` — PLB + compressed PosMap + PMMAC (the paper's headline).
- ``phantom_4kb`` — Phantom [21] configuration: 4 KB blocks, no recursion.

The source of truth is the declarative registry in :mod:`repro.spec`:
every preset is a frozen :class:`~repro.spec.SchemeSpec`, and the factory
functions below are thin back-compat wrappers over ``get_spec(...).with_``
(kept signature-stable; golden-digest tests prove the spec path builds
bit-identical frontends). New code should prefer specs directly::

    from repro.spec import SchemeSpec, get_spec

    oram = get_spec("PIC_X32").with_(plb_capacity_bytes=32 * 1024).build()
    oram = SchemeSpec.from_string("PIC_X32:plb=32KiB,storage=object").build()
    oram = SchemeSpec.from_string("PC_X32:storage=columnar").build()

Every preset accepts ``storage="object" | "columnar"`` (or inherits
``REPRO_STORAGE``, and with that unset the replay tier's storage); the
columnar kind swaps in the slot-arena store *and* its matching columnar
Backend as one proven-equivalent pair.

Simulation-scale defaults (N = 2^16 blocks, 8 KB on-chip budget) keep runs
tractable; every parameter can be overridden for full-scale studies.
"""

from __future__ import annotations

from typing import Optional

from repro.crypto.suite import CryptoSuite
from repro.frontend.linear import LinearFrontend
from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec, get_spec, resolve_spec
from repro.utils.rng import DeterministicRng

#: Scheme names usable with :func:`build_frontend`.
SCHEMES = ("R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32")

#: Build-time keyword arguments accepted by :func:`build_frontend` that are
#: not spec fields (objects, not serializable configuration).
_BUILD_KWARGS = ("rng", "observer", "crypto")


def r_x8(
    num_blocks: int = 2**16,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    onchip_entries: int = 2**11,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    storage: Optional[str] = None,
) -> RecursiveFrontend:
    """Recursive ORAM baseline with X=8 (32-byte PosMap blocks, [26])."""
    spec = get_spec("R_X8").with_(
        num_blocks=num_blocks,
        block_bytes=block_bytes,
        blocks_per_bucket=blocks_per_bucket,
        onchip_entries=onchip_entries,
        **({} if storage is None else {"storage": storage}),
    )
    return spec.build(rng=rng, observer=observer)


def _plb_preset(
    name: str,
    num_blocks: int,
    block_bytes: int,
    blocks_per_bucket: int,
    plb_capacity_bytes: int,
    onchip_entries: int,
    rng: Optional[DeterministicRng],
    observer,
    crypto: Optional[CryptoSuite],
    plb_ways: int = 1,
    storage: Optional[str] = None,
) -> PlbFrontend:
    spec = get_spec(name).with_(
        num_blocks=num_blocks,
        block_bytes=block_bytes,
        blocks_per_bucket=blocks_per_bucket,
        plb_capacity_bytes=plb_capacity_bytes,
        plb_ways=plb_ways,
        onchip_entries=onchip_entries,
        **({} if storage is None else {"storage": storage}),
    )
    return spec.build(rng=rng, observer=observer, crypto=crypto)


def p_x16(
    num_blocks: int = 2**16,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    plb_capacity_bytes: int = 64 * 1024,
    onchip_entries: int = 2**11,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    crypto: Optional[CryptoSuite] = None,
    plb_ways: int = 1,
    storage: Optional[str] = None,
) -> PlbFrontend:
    """PLB + Unified tree with the uncompressed PosMap (X=16 at 64 B)."""
    return _plb_preset(
        "P_X16", num_blocks, block_bytes, blocks_per_bucket,
        plb_capacity_bytes, onchip_entries, rng, observer, crypto, plb_ways,
        storage,
    )


def pc_x32(
    num_blocks: int = 2**16,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    plb_capacity_bytes: int = 64 * 1024,
    onchip_entries: int = 2**11,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    crypto: Optional[CryptoSuite] = None,
    plb_ways: int = 1,
    storage: Optional[str] = None,
) -> PlbFrontend:
    """PLB + compressed PosMap (X=32 for 64 B blocks; §5.3)."""
    return _plb_preset(
        "PC_X32", num_blocks, block_bytes, blocks_per_bucket,
        plb_capacity_bytes, onchip_entries, rng, observer, crypto, plb_ways,
        storage,
    )


def pi_x8(
    num_blocks: int = 2**16,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    plb_capacity_bytes: int = 64 * 1024,
    onchip_entries: int = 2**11,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    crypto: Optional[CryptoSuite] = None,
    plb_ways: int = 1,
    storage: Optional[str] = None,
) -> PlbFrontend:
    """PLB + PMMAC with flat 64-bit counters (X=8; §6.2.2)."""
    return _plb_preset(
        "PI_X8", num_blocks, block_bytes, blocks_per_bucket,
        plb_capacity_bytes, onchip_entries, rng, observer, crypto, plb_ways,
        storage,
    )


def pic_x32(
    num_blocks: int = 2**16,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    plb_capacity_bytes: int = 64 * 1024,
    onchip_entries: int = 2**11,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    crypto: Optional[CryptoSuite] = None,
    plb_ways: int = 1,
    storage: Optional[str] = None,
) -> PlbFrontend:
    """PLB + compressed PosMap + PMMAC — the paper's combined scheme."""
    return _plb_preset(
        "PIC_X32", num_blocks, block_bytes, blocks_per_bucket,
        plb_capacity_bytes, onchip_entries, rng, observer, crypto, plb_ways,
        storage,
    )


def pc_x64(
    num_blocks: int = 2**15,
    block_bytes: int = 128,
    blocks_per_bucket: int = 3,
    plb_capacity_bytes: int = 64 * 1024,
    onchip_entries: int = 2**11,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    crypto: Optional[CryptoSuite] = None,
    storage: Optional[str] = None,
) -> PlbFrontend:
    """PC with 128-byte blocks, doubling X to 64 (the Fig. 8 point)."""
    return _plb_preset(
        "PC_X64", num_blocks, block_bytes, blocks_per_bucket,
        plb_capacity_bytes, onchip_entries, rng, observer, crypto,
        storage=storage,
    )


def phantom_4kb(
    num_blocks: int = 2**12,
    block_bytes: int = 4096,
    blocks_per_bucket: int = 4,
    rng: Optional[DeterministicRng] = None,
    observer=None,
    storage: Optional[str] = None,
) -> LinearFrontend:
    """Phantom [21] configuration: large blocks, full on-chip PosMap."""
    spec = get_spec("phantom_4kb").with_(
        num_blocks=num_blocks,
        block_bytes=block_bytes,
        blocks_per_bucket=blocks_per_bucket,
        **({} if storage is None else {"storage": storage}),
    )
    return spec.build(rng=rng, observer=observer)


def build_frontend(scheme, **kwargs):
    """Factory dispatch on a scheme name, spec string, or SchemeSpec.

    ``scheme`` may be any registered name (see :data:`SCHEMES`), a spec
    mini-language string (``"PIC_X32:plb=32KiB"``), or a
    :class:`~repro.spec.SchemeSpec`. Remaining keyword arguments are spec
    field overrides, except the build-time objects ``rng``, ``observer``
    and ``crypto``; unknown fields raise
    :class:`~repro.errors.SpecError` naming the valid ones.
    """
    build_args = {k: kwargs.pop(k) for k in _BUILD_KWARGS if k in kwargs}
    return resolve_spec(scheme).with_(**kwargs).build(**build_args)
