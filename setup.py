"""Build script: pure-Python package + one *optional* C extension.

The compiled core (``repro.sim.native._replay_core``) *is* the fast
tier — one C call per processor request and per tree access — and holds
the trace-synthesis kernel both tiers share. It is strictly optional:
when no C toolchain is available the build degrades to the pure-Python
package, replays run on the reference tier and traces come from the
interpreted generators, bit for bit the same. ``build_ext`` therefore
swallows compiler/toolchain failures instead of aborting the install.

The module is stamped with a SHA-256 of the sources it was compiled
from (``SOURCE_DIGEST``: every ``.c`` unit and ``.h`` header of
``src/repro/sim/native/``, sorted by name, hashed as
``repro.sim.native.source_digest`` hashes them); ``repro.sim.native``
refuses a build whose sources have changed since, so a stale ``.so`` is
never measured. For
the same reason ``build_ext`` compiles whenever the existing ``.so``
does not embed the current digest, whatever the files' mtimes say, and a
failed compile that leaves such a stale ``.so`` in place names it on
stderr.

Build the extension in place for a source checkout::

    python setup.py build_ext --inplace

which places ``_replay_core.*.so`` under ``src/repro/sim/native/``.
"""

import hashlib
import sys
from pathlib import Path

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext

#: Every unit and header of the core, sorted by name; the units are
#: compiled into the one extension, and all of them are hashed.
SOURCES = sorted(str(p) for p in Path("src/repro/sim/native").glob("*.[ch]"))


def source_digest(paths) -> str:
    """SHA-256 over the name, length and bytes of every source, in order."""
    digest = hashlib.sha256()
    for path in map(Path, paths):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def embeds_digest(path: Path, digest: str) -> bool:
    """Whether the build at ``path`` was compiled from sources hashing to
    ``digest`` (its ``SOURCE_DIGEST`` string is in the binary)."""
    return digest.encode() in path.read_bytes()


class optional_build_ext(build_ext):
    """Best-effort extension build: failure means 'no compiled core'."""

    def run(self):
        inplace = self.inplace  # setuptools clears it while it builds
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._skip(exc)
        finally:
            self.inplace = inplace
        self._warn_stale()

    def build_extension(self, ext):
        # An mtime is no evidence: a build that does not embed the
        # sources' digest is stale, and is rebuilt.
        if self._stale(ext):
            self.force = True
        try:
            super().build_extension(ext)
        except Exception as exc:  # compiler present but the build failed
            self._skip(exc)

    def _stale(self, ext) -> bool:
        target = Path(self.get_ext_fullpath(ext.name))
        return target.exists() and not embeds_digest(target, source_digest(SOURCES))

    def _skip(self, exc):
        print(
            f"WARNING: optional extension build failed ({exc!r}); "
            "continuing without the compiled core (replays run on the "
            "reference tier and traces are synthesised interpreted, same "
            "results)."
        )

    def _warn_stale(self):
        """Name, on stderr, every build a failure left stale in place."""
        for ext in self.extensions:
            if self._stale(ext):
                print(
                    f"WARNING: {self.get_ext_fullpath(ext.name)} is stale: it "
                    "was built from other sources and stays in place, and "
                    "repro.sim.native refuses it (fix the build and run it "
                    "again)",
                    file=sys.stderr,
                )


if __name__ == "__main__":  # how setuptools and pip run this file
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
                sources=[path for path in SOURCES if path.endswith(".c")],
                define_macros=[
                    ("REPRO_SOURCE_DIGEST", f'"{source_digest(SOURCES)}"')
                ],
                optional=True,
            )
        ],
        cmdclass={"build_ext": optional_build_ext},
    )
