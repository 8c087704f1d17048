"""The shipped examples must run clean and demonstrate their claims, and
every document the code cites must exist."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: A Markdown file name, with or without a directory.
_MARKDOWN = re.compile(r"[\w./-]*\w\.md\b")


def test_every_cited_markdown_file_exists():
    """A docstring or comment that sends the reader to a document names one
    that is in the repository (beside the citing file, or from the root)."""
    missing = []
    for tree in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / tree).rglob("*.py"):
            for name in _MARKDOWN.findall(path.read_text("utf-8")):
                if not ((ROOT / name).is_file() or (path.parent / name).is_file()):
                    missing.append(f"{path.relative_to(ROOT)}: {name}")
    assert missing == []


@pytest.fixture
def run_example(tmp_path):
    """Run one example as a user would: its own process, a scratch working
    directory, both on-disk caches in scratch directories of their own (a
    user's default is under ``~/.cache``); it must exit 0."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        REPRO_TRACE_CACHE=str(tmp_path / "traces"),
        REPRO_RESULT_CACHE=str(tmp_path / "results"),
    )

    def run(name: str, timeout: int = 600) -> str:
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / name)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=cwd,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert list(cwd.iterdir()) == []  # nothing left behind
        return result.stdout

    return run


def test_every_example_is_tested():
    tested = {
        "design_space_exploration.py",
        "quickstart.py",
        "secure_cloud_database.py",
        "tamper_detection.py",
    }
    assert {path.name for path in EXAMPLES.glob("*.py")} == tested


class TestQuickstart:
    def test_runs_and_reads_back(self, run_example):
        out = run_example("quickstart.py")
        assert "attack at dawn" in out
        assert "PLB hits" in out


class TestSecureCloudDatabase:
    def test_oblivious_traces_uniform(self, run_example):
        out = run_example("secure_cloud_database.py")
        assert "uniform random paths" in out
        assert "identifies the hot record" in out

    def test_plain_store_leaks(self, run_example):
        out = run_example("secure_cloud_database.py")
        assert "1 distinct address(es)" in out


class TestTamperDetection:
    def test_all_attacks_resolve_correctly(self, run_example):
        out = run_example("tamper_detection.py")
        assert out.count("caught:") == 2
        assert "UNDETECTED" not in out
        assert "YES - two-time pad" in out  # bucket-seed breaks
        assert "no - fresh pad" in out  # global-seed holds


class TestDesignSpaceExploration:
    def test_tables_render(self, run_example):
        out = run_example("design_space_exploration.py", timeout=900)
        assert "Scheme comparison" in out
        assert "PLB capacity sweep" in out
        assert "PC_X32" in out
