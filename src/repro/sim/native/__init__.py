"""Optional compiled core: the fast tier's kernels and trace synthesis.

This package wraps the hand-written C extension ``_replay_core`` — the
fast tier's kernels over the columnar arenas (a columnar backend's
access *is* its ``AccessKernel``), and the trace synthesis kernel that
produces a replay's input, one ``.so`` built from the C units beside
this file (``_replay_core.c`` lists them; ``docs/native.md`` is the
kernel inventory and the bit-identity contract). The extension is
*optional*: nothing in the library imports it unconditionally, and every
consumer goes through :func:`native_core`. Without it replays run on
the reference tier (object storage, interpreted frontends) and traces
come from the interpreted generators and ``CacheHierarchy.run``; trace
synthesis is shared by both tiers, because a trace is an input and is
the same bytes whichever tier replays it.

Build it in place with the baked-in toolchain (no new dependencies)::

    python setup.py build_ext --inplace

which drops ``_replay_core.*.so`` next to this file. ``setup.py``
swallows compiler failures, so environments without a C toolchain build
a pure-Python package and every default CI lane stays green. It also
stamps the module with a SHA-256 of its sources (``SOURCE_DIGEST``,
over :func:`source_files`): when the sources sit beside the package and
no longer hash to that, the build is stale and counts as unusable — an
old ``.so`` is never measured as the fast tier. So is a build whose
``LEDGERS`` — the counter layout its kernels count in, one line per
ledger from one X-macro each — differs from
:data:`repro.utils.stats.LEDGERS`, the layout the Python owners read:
the first ledger that differs is named.
A build the loader refuses (an undefined symbol, say) is unusable too,
and the reason carries the loader's own message;
:func:`unavailable_reason` is that reason, which is also what every
fast-tier test that skips gives, so a stale build is never mistaken for
a missing one.

``REPRO_NATIVE`` (:attr:`repro.settings.Settings.native`) is the one
switch: ``on`` (the default) uses a usable extension and otherwise runs
the reference tier, ``off`` runs the reference tier even when it is
built, ``require`` escalates an unbuilt or stale extension to a hard
:class:`~repro.errors.NativeKernelUnavailable` — the CI ``require`` lane
sets it so a missing build cannot masquerade as a fast-tier run.
"""

from __future__ import annotations

import hashlib
from itertools import zip_longest
from pathlib import Path
from typing import List, Optional

from repro.errors import NativeKernelUnavailable
from repro.settings import Settings
from repro.utils.stats import LEDGERS

#: Memoised import: unset, or one ``(module | None, why it is unusable)``.
_CORE_CACHE: list = []
_MODULE = __name__ + "._replay_core"


def build_hint() -> str:
    """The one-line build instruction used by notices and errors."""
    return "build it with: python setup.py build_ext --inplace"


def source_files(directory: Path = Path(__file__).parent) -> List[Path]:
    """The core's sources: every ``.c`` unit and ``.h`` header in
    ``directory``, sorted by name — what ``setup.py`` compiles and what
    the digest covers."""
    return sorted(directory.glob("*.[ch]"))


def source_digest(directory: Path = Path(__file__).parent) -> Optional[str]:
    """SHA-256 over the name, length and bytes of every source in
    ``directory`` (this package's), in order, as ``setup.py`` stamps it
    into a build; ``None`` when no source is shipped."""
    paths = source_files(directory)
    if not paths:
        return None
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _import_core():
    try:
        from repro.sim.native import _replay_core
    except ImportError as exc:
        # Absent, or there and refused by the loader (an undefined symbol,
        # a build for another interpreter): the loader's words say which.
        absent = isinstance(exc, ModuleNotFoundError) and exc.name == _MODULE
        state = "is not built" if absent else "does not load"
        return None, f"the native extension {state} ({exc})"
    expected = source_digest()
    built = getattr(_replay_core, "SOURCE_DIGEST", None)
    if expected is not None and built != expected:
        return None, (
            "the native extension is stale "
            "(its sources changed since it was built)"
        )
    table = [(row.name, row.typecode, *row.slots) for row in LEDGERS.values()]
    lines = getattr(_replay_core, "LEDGERS", "").splitlines()
    for ours, built in zip_longest(table, [tuple(line.split()) for line in lines]):
        if ours != built:
            return None, (
                f"the native extension's {(ours or built)[0]!r} ledger differs "
                "from repro.utils.stats.LEDGERS (its X-macro in "
                "_replay_core.h must list the same slots)"
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
    return native_core(Settings.native_from_env())


def native_available() -> bool:
    """True when the compiled core is built, current and not switched off."""
    return load_native_core() is not None


def unavailable_reason() -> str:
    """Why there is no core under the environment's ``REPRO_NATIVE``, in
    the loader's words (unbuilt, failing to load, stale, a ledger that
    differs, or switched off); ``""`` when there is one. What a skipped
    fast-tier test gives as its reason."""
    policy = Settings.native_from_env()
    if policy == "off":
        return "REPRO_NATIVE=off"
    native_core("on")
    return _CORE_CACHE[0][1]


def require_core() -> object:
    """The core the fast tier runs on, or
    :class:`~repro.errors.NativeKernelUnavailable` naming why there is none
    and the build command."""
    core = load_native_core()
    if core is None:
        raise NativeKernelUnavailable(
            f"the fast tier runs on the native kernels ({unavailable_reason()});"
            f" {build_hint()}"
        )
    return core
