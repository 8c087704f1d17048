"""Optional compiled core: the fast tier's kernels and trace synthesis.

This package wraps the hand-written C extension ``_replay_core`` — the
fused replay inner loop over the columnar arenas, and the trace
synthesis kernel that produces a replay's input (see ``_replay_core.c``
for the kernel inventory and the bit-identity contract). The extension
is *optional*: nothing in the library imports it unconditionally, and
every consumer goes through :func:`load_native_core`, which returns the
module when it is built and importable, or ``None`` otherwise (a
columnar backend handed that core then takes its ``AccessKernel`` handle
type from the module itself). Without it the fast tier runs the same
loop interpreted and traces come from the interpreted generators and
``CacheHierarchy.run``. The reference tier never touches the ORAM
kernels; trace synthesis is shared by both tiers, because a trace is an
input and is the same bytes whichever tier replays it.

Build it in place with the baked-in toolchain (no new dependencies)::

    python setup.py build_ext --inplace

which drops ``_replay_core.*.so`` next to this file. ``setup.py``
swallows compiler failures, so environments without a C toolchain build
a pure-Python package and every default CI lane stays green.

``REPRO_NATIVE`` (:attr:`repro.settings.Settings.native`) is the
dispatch policy: ``on`` uses the extension when built (the default),
``off`` ignores it even when built (the interpreted fallback, which the
differential tests pin too), ``require`` escalates "extension unbuilt"
from a silent fallback to a hard
:class:`~repro.errors.NativeKernelUnavailable` error — the CI compiled
lane sets it so an unbuilt extension cannot masquerade as a compiled run.
"""

from __future__ import annotations

from typing import Optional

from repro.settings import Settings

#: Memoised import result: unset, or (module | None).
_CORE_CACHE: list = []


def native_core(policy: str) -> Optional[object]:
    """The built ``_replay_core`` module under ``policy``, or ``None``.

    The import itself is memoised (a build cannot appear mid-process);
    ``off`` ignores it. A stale build — one compiled before the source
    gained ``synthesize_trace`` — counts as unbuilt.
    """
    if policy == "off":
        return None
    if not _CORE_CACHE:
        try:
            from repro.sim.native import _replay_core
        except ImportError:
            _replay_core = None
        if not hasattr(_replay_core, "synthesize_trace"):
            _replay_core = None
        _CORE_CACHE.append(_replay_core)
    return _CORE_CACHE[0]


def load_native_core() -> Optional[object]:
    """:func:`native_core` under the environment's ``REPRO_NATIVE``, read
    on every call so tests can flip the knob per case."""
    return native_core(Settings.from_env().native)


def native_available() -> bool:
    """True when the compiled core is built and not disabled."""
    return load_native_core() is not None


def build_hint() -> str:
    """The one-line build instruction used by warnings and errors."""
    return "build it with: python setup.py build_ext --inplace"
