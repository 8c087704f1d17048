"""The paper's scheme names (§7.1.4) and one call to build any of them.

Naming follows the paper: P = PLB, I = Integrity (PMMAC), C = Compressed
PosMap, and the X suffix is the PosMap fan-out:

- ``R_X8``    — Recursive ORAM baseline of [26]: separate trees, X = 8
                (32-byte PosMap blocks), no PLB.
- ``P_X16``   — PLB + Unified tree, uncompressed PosMap (X = 16 at 64 B).
- ``PC_X32``  — PLB + compressed PosMap (alpha=64, beta=14, X = 32).
- ``PI_X8``   — PLB + PMMAC with flat 64-bit counters (X = 8).
- ``PIC_X32`` — PLB + compressed PosMap + PMMAC (the paper's headline).

The registry in :mod:`repro.spec` also holds ``PC_X64`` (128-byte blocks,
the Fig. 8 point) and ``phantom_4kb`` (Phantom [21]: 4 KB blocks, no
recursion). Each name is a frozen :class:`~repro.spec.SchemeSpec`, and
:func:`build_frontend` is ``resolve_spec(scheme).with_(**fields).build()``::

    oram = build_frontend("PIC_X32", num_blocks=2**14)
    oram = build_frontend("PIC_X32:plb=32KiB,storage=object")
    oram = get_spec("PC_X32").with_(storage="columnar").build()

``storage="object" | "columnar"`` picks the tree store and its matching
Backend as one pair (columnar is the C ``AccessKernel``); the default
follows the replay tier — columnar on the fast tier, object on the
reference tier.
"""

from repro.spec import resolve_spec

#: Scheme names usable with :func:`build_frontend`.
SCHEMES = ("R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32")


def build_frontend(scheme, **kwargs):
    """Build the frontend a scheme name, spec string or SchemeSpec describes.

    ``scheme`` may be any registered name (see :data:`SCHEMES`), a spec
    mini-language string (``"PIC_X32:plb=32KiB"``), or a
    :class:`~repro.spec.SchemeSpec`. Remaining keyword arguments are spec
    field overrides, except the build-time objects ``rng``, ``observer``
    and ``crypto``; unknown fields raise
    :class:`~repro.errors.SpecError` naming the valid ones.
    """
    build_args = {
        k: kwargs.pop(k) for k in ("rng", "observer", "crypto") if k in kwargs
    }
    return resolve_spec(scheme).with_(**kwargs).build(**build_args)
