"""Optional compiled core: the fast tier's kernels and trace synthesis.

This package wraps the hand-written C extension ``_replay_core`` — the
fast tier's kernels over the columnar arenas (a columnar backend's
access *is* its ``AccessKernel``), and the trace synthesis kernel that
produces a replay's input (see ``_replay_core.c`` for the kernel
inventory and the bit-identity contract). The extension is *optional*:
nothing in the library imports it unconditionally, and every consumer
goes through :func:`native_core`. Without it replays run on the
reference tier (object storage, interpreted frontends) and traces come
from the interpreted generators and ``CacheHierarchy.run``; trace
synthesis is shared by both tiers, because a trace is an input and is
the same bytes whichever tier replays it.

Build it in place with the baked-in toolchain (no new dependencies)::

    python setup.py build_ext --inplace

which drops ``_replay_core.*.so`` next to this file. ``setup.py``
swallows compiler failures, so environments without a C toolchain build
a pure-Python package and every default CI lane stays green. It also
stamps the module with a SHA-256 of its sources (``SOURCE_DIGEST``):
when ``_replay_core.c`` sits beside the package and no longer hashes to
that, the build is stale and counts as unusable — an old ``.so`` is
never measured as the fast tier.

``REPRO_NATIVE`` (:attr:`repro.settings.Settings.native`) is the one
switch: ``on`` (the default) uses a usable extension and otherwise runs
the reference tier, ``off`` runs the reference tier even when it is
built, ``require`` escalates an unbuilt or stale extension to a hard
:class:`~repro.errors.NativeKernelUnavailable` — the CI ``require`` lane
sets it so a missing build cannot masquerade as a fast-tier run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

from repro.errors import NativeKernelUnavailable
from repro.settings import Settings

#: Memoised import: unset, or one ``(module | None, why it is unusable)``.
_CORE_CACHE: list = []


def build_hint() -> str:
    """The one-line build instruction used by notices and errors."""
    return "build it with: python setup.py build_ext --inplace"


def source_digest() -> Optional[str]:
    """SHA-256 of the ``_replay_core.c`` beside this package, as
    ``setup.py`` stamps it into a build; ``None`` when it is not shipped."""
    try:
        source = Path(__file__).with_name("_replay_core.c").read_bytes()
    except FileNotFoundError:
        return None
    return hashlib.sha256(source).hexdigest()


def _import_core():
    try:
        from repro.sim.native import _replay_core
    except ImportError:
        return None, "the native extension is not built"
    expected = source_digest()
    built = getattr(_replay_core, "SOURCE_DIGEST", None)
    if expected is not None and built != expected:
        return None, (
            "the native extension is stale "
            "(_replay_core.c changed since it was built)"
        )
    return _replay_core, ""


def native_core(policy: str) -> Optional[object]:
    """The built, current ``_replay_core`` module under ``policy``.

    ``off`` is ``None``; ``on`` is ``None`` when the extension is unbuilt
    or stale; ``require`` raises
    :class:`~repro.errors.NativeKernelUnavailable` then, saying which.
    The import and the digest check are memoised (a build cannot appear
    mid-process).
    """
    if policy == "off":
        return None
    if not _CORE_CACHE:
        _CORE_CACHE.append(_import_core())
    core, why = _CORE_CACHE[0]
    if core is None and policy == "require":
        raise NativeKernelUnavailable(
            f"{why} and REPRO_NATIVE=require is set; {build_hint()}"
        )
    return core


def load_native_core() -> Optional[object]:
    """:func:`native_core` under the environment's ``REPRO_NATIVE``, read
    on every call so tests can flip the switch per case."""
    return native_core(Settings.from_env().native)


def native_available() -> bool:
    """True when the compiled core is built, current and not switched off."""
    return load_native_core() is not None


def require_core() -> object:
    """The core the fast tier runs on, or
    :class:`~repro.errors.NativeKernelUnavailable` naming why there is none
    and the build command."""
    policy = Settings.from_env().native
    core = native_core(policy)
    if core is None:
        why = "REPRO_NATIVE=off" if policy == "off" else _CORE_CACHE[0][1]
        raise NativeKernelUnavailable(
            f"the fast tier runs on the native kernels ({why}); {build_hint()}"
        )
    return core
