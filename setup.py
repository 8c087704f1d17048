"""Build script: pure-Python package + one *optional* C extension.

The compiled core (``repro.sim.native._replay_core``) *is* the fast
tier — one C call per processor request and per tree access — and holds
the trace-synthesis kernel both tiers share. It is strictly optional:
when no C toolchain is available the build degrades to the pure-Python
package, replays run on the reference tier and traces come from the
interpreted generators, bit for bit the same. ``build_ext`` therefore
swallows compiler/toolchain failures instead of aborting the install.

The module is stamped with a SHA-256 of the sources it was compiled
from (``SOURCE_DIGEST``); ``repro.sim.native`` refuses a build whose
sources have changed since, so a stale ``.so`` is never measured.

Build the extension in place for a source checkout::

    python setup.py build_ext --inplace

which places ``_replay_core.*.so`` under ``src/repro/sim/native/``.
"""

import hashlib
from pathlib import Path

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext

SOURCES = ["src/repro/sim/native/_replay_core.c"]


def source_digest(paths) -> str:
    """SHA-256 over the bytes of every source, in order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class optional_build_ext(build_ext):
    """Best-effort extension build: failure means 'no compiled core'."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compiler present but the build failed
            self._skip(exc)

    def _skip(self, exc):
        print(
            f"WARNING: optional extension build failed ({exc!r}); "
            "continuing without the compiled core (replays run on the "
            "reference tier and traces are synthesised interpreted, same "
            "results)."
        )


setup(
    name="repro",
    version="0.9.0",
    description=(
        "Freecursive ORAM reproduction: Path ORAM simulator with "
        "columnar storage and an optional compiled replay core"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    ext_modules=[
        Extension(
            "repro.sim.native._replay_core",
            sources=SOURCES,
            define_macros=[
                ("REPRO_SOURCE_DIGEST", f'"{source_digest(SOURCES)}"')
            ],
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
