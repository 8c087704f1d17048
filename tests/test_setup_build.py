"""``setup.py``'s optional build: a build that does not embed the sources'
digest is rebuilt whatever the mtimes say, and a failed compile that
leaves such a stale build in place names it on stderr.

Nothing is compiled here: the compile step is replaced by a recorder (or
a failure), so what is checked is the decision around it.
"""

import importlib.util
from pathlib import Path

import pytest
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def setup_module(monkeypatch):
    monkeypatch.chdir(ROOT)  # SOURCES are relative to the checkout
    spec = importlib.util.spec_from_file_location("repro_setup", ROOT / "setup.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines, does not run setup()
    return module


def command(setup_module, target: Path):
    """The project's ``build_ext``, in place, writing ``target``."""
    ext = Extension("repro.sim.native._replay_core", sources=setup_module.SOURCES)
    cmd = setup_module.optional_build_ext(Distribution({"ext_modules": [ext]}))
    cmd.inplace = 1
    cmd.ensure_finalized()
    cmd.get_ext_fullpath = lambda name: str(target)
    return cmd, ext


def digest(setup_module) -> str:
    return setup_module.source_digest(setup_module.SOURCES)


@pytest.mark.parametrize("current", [True, False])
def test_a_build_without_the_sources_digest_is_forced(
    setup_module, tmp_path, monkeypatch, current
):
    target = tmp_path / "_replay_core.so"
    stamp = digest(setup_module) if current else "0" * 64
    target.write_bytes(b"\x7fELF..." + stamp.encode() + b"...")
    forced = []
    monkeypatch.setattr(
        build_ext, "build_extension", lambda self, ext: forced.append(self.force)
    )
    cmd, ext = command(setup_module, target)
    cmd.build_extension(ext)
    assert [bool(force) for force in forced] == [not current]
    assert setup_module.embeds_digest(target, digest(setup_module)) is current


def test_no_build_yet_is_not_stale(setup_module, tmp_path, monkeypatch):
    forced = []
    monkeypatch.setattr(
        build_ext, "build_extension", lambda self, ext: forced.append(self.force)
    )
    cmd, ext = command(setup_module, tmp_path / "absent.so")
    cmd.build_extension(ext)
    assert not forced[0]  # setuptools' own rule decides


@pytest.mark.parametrize("left_behind", ["stale", "current", None])
def test_a_failed_compile_names_a_stale_build_left_in_place(
    setup_module, tmp_path, monkeypatch, capsys, left_behind
):
    target = tmp_path / "_replay_core.so"
    if left_behind is not None:
        stamp = digest(setup_module) if left_behind == "current" else "f" * 64
        target.write_bytes(stamp.encode())

    def fail(self, ext):
        raise RuntimeError("cc1 exploded")

    monkeypatch.setattr(build_ext, "build_extension", fail)
    cmd, ext = command(setup_module, target)
    cmd.build_extension(ext)  # swallowed: the core is optional
    cmd._warn_stale()  # what run() does once the build is over
    out, err = capsys.readouterr()
    assert "optional extension build failed" in out
    if left_behind == "stale":
        assert str(target) in err and "stale" in err
    else:
        assert err == ""
