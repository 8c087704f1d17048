"""The package is the standard library plus its optional C core.

Importing every module under ``repro`` pulls in no numpy (installed or
not): trace columns are stdlib ``array``s on every platform.
"""

import os
import subprocess
import sys

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
