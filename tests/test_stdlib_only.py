"""The package is the standard library plus its optional C core.

Importing every module under ``repro`` pulls in no numpy (installed or
not): trace columns are stdlib ``array``s on every platform.  And no
test module imports another: what test files share lives in
``tests/lockstep.py`` or ``tests/helpers.py``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_no_module_imports_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout


#: An import of a test module, at any indentation (inside a function, or
#: inside a script a test runs).
TEST_IMPORT = re.compile(r"^\s*(?:from|import)\s+test_\w*", re.M)


def test_no_test_module_imports_another():
    root = Path(__file__).resolve().parent.parent
    files = sorted(root.glob("tests/test_*.py")) + sorted(
        root.glob("benchmarks/*.py")
    )
    assert len(files) > 80
    found = [
        f"{path.relative_to(root)}: {match.group().strip()}"
        for path in files
        for match in TEST_IMPORT.finditer(path.read_text())
    ]
    assert found == []
