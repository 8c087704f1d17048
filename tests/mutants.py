"""A stdlib mutation runner: which test file catches which one-token fault.

    python tests/mutants.py --seed 53 --c 6 --py 6 --out mutation \\
        tests/test_lockstep.py [more test files ...]

Every mutant is made in a temporary copy of the tree (``src/``,
``tests/``, ``setup.py``, ``pytest.ini``), never in the working tree:

- a **Python** mutant rewrites one node of one reference module under
  ``src/repro/{frontend,backend,storage,integrity,crypto}/`` with
  ``ast``: one comparison, arithmetic or boolean operator swapped, or
  one integer constant moved by one — on a line the reference tier runs
  per access and the fast tier does not (``access_lines``);
- a **C** mutant swaps one operator or moves one integer constant inside
  one of the core's kernel units under ``src/repro/sim/native/``
  (``tree.c``: the working set and ``AccessKernel``; ``frontend.c``;
  ``recursive.c``; ``access_loop.c``) and is rebuilt with ``python
  setup.py build_ext --inplace --force``; one that does not build a
  loadable, current core is recorded as stillborn and the next candidate
  is drawn in its place.

The candidates are shuffled with ``--seed`` and the first ``--py`` /
``--c`` live ones are run, so one seed names one sample.  Each target
file runs as ``pytest -x -q`` under ``REPRO_NATIVE=require`` (a broken
build cannot pass as a skip); a file that outlives its timeout (five
times its unmutated wall, at least 60 s) has killed the mutant by a
hang.  The unmutated tree runs first and must pass every target.

``--out DIR`` receives ``kill_matrix.json`` (mutant x test file, with
the first failing test of each kill) and, beside it, the same as a
Markdown table with the score per file.  Exit status: 0 once the matrix is
written, 1 when the unmutated tree fails a target.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
PY_PACKAGES = ("frontend", "backend", "storage", "integrity", "crypto")
NATIVE = Path("src/repro/sim/native")
#: The kernel units C mutants are drawn from -> the kernel the matrix shows.
C_UNITS = {
    "tree.c": "AccessKernel",
    "frontend.c": "FrontendKernel",
    "recursive.c": "RecursiveKernel",
    "access_loop.c": "run_access_loop",
}
#: A child may not map more than this: a mutated size must not take the
#: host's memory with it.
ADDRESS_SPACE = 3 << 30


@dataclass
class Mutant:
    id: str
    lang: str
    path: str
    line: int
    where: str
    before: str
    after: str
    text: str
    #: Python: index of the node in ``ast.walk`` order; C: byte offset.
    at: int
    results: Dict[str, dict] = field(default_factory=dict)
    stillborn: bool = False


# ---------------------------------------------------------------------------
# Python candidates
# ---------------------------------------------------------------------------

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.BitXor: ast.BitOr, ast.And: ast.Or, ast.Or: ast.And,
}


def _py_sites(tree):
    """(node index, before, after) of every mutable token, in
    ``ast.walk`` order."""
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare) and type(node.ops[0]) in SWAPS:
            op = type(node.ops[0])
            yield index, op.__name__, SWAPS[op].__name__
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            op = type(node.op)
            if op in SWAPS:
                yield index, op.__name__, SWAPS[op].__name__
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield index, str(node.value), str(node.value + 1)
            if node.value > 0:
                yield index, str(node.value), str(node.value - 1)


def access_lines(storage):
    """(file, line) of every line of the reference packages that one tier
    runs per access: each registered scheme at the harness's small
    geometry through READs and WRITEs, on ``storage`` (``"columnar"``:
    with the frontend's kernel engaged).  Construction is not traced."""
    sys.path.insert(0, str(ROOT / "src"))
    from lockstep import VARIANTS
    from repro.backend.ops import Op
    from repro.presets import build_frontend
    from repro.sim.native import load_native_core
    from repro.spec import spec_names
    from repro.utils.rng import DeterministicRng

    prefixes = tuple(str(ROOT / "src/repro" / p) + os.sep for p in PY_PACKAGES)
    hit = set()

    def tracer(frame, event, _arg):
        if not frame.f_code.co_filename.startswith(prefixes):
            return None
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return tracer

    for scheme in spec_names():
        small = VARIANTS[scheme][1]
        frontend = build_frontend(
            scheme, rng=DeterministicRng(7), storage=storage, **small
        )
        if storage == "columnar" and hasattr(frontend, "enable_native_kernel"):
            frontend.enable_native_kernel(load_native_core())
        tree = getattr(frontend, "backends", [None])[0] or frontend.backend
        block, rng = bytes(tree.config.block_bytes), DeterministicRng(3)
        sys.settrace(tracer)
        try:
            for _ in range(300):
                addr = rng.randrange(small["num_blocks"])
                if rng.random() < 0.4:
                    frontend.access(addr, Op.WRITE, block)
                else:
                    frontend.access(addr, Op.READ)
        finally:
            sys.settrace(None)
    return hit


def python_candidates() -> List[Mutant]:
    out = []
    # What only the reference tier runs: a line both tiers run (the flat
    # frontend's access, a helper the kernels call back) moves both alike,
    # which no lockstep can see, and neither can a line no access runs
    # (the AES suite, the Merkle baseline, a constructor).
    hit = access_lines("object") - access_lines("columnar")
    for package in PY_PACKAGES:
        for path in sorted((ROOT / "src/repro" / package).glob("*.py")):
            rel = str(path.relative_to(ROOT))
            source = path.read_text()
            lines = source.splitlines()
            tree = ast.parse(source)
            nodes = list(ast.walk(tree))
            for index, before, after in _py_sites(tree):
                line = getattr(nodes[index], "lineno", 0)
                if (str(path), line) not in hit:
                    continue
                out.append(Mutant(
                    id="", lang="py", path=rel, line=line,
                    where=f"{rel}:{line}", before=before, after=after,
                    text=lines[line - 1].strip() if line else "", at=index,
                ))
    return out


def apply_python(mutant: Mutant, copy: Path) -> None:
    path = copy / mutant.path
    tree = ast.parse(path.read_text())
    node = list(ast.walk(tree))[mutant.at]
    if isinstance(node, ast.Constant):
        node.value = int(mutant.after)
    elif isinstance(node, ast.Compare):
        node.ops[0] = getattr(ast, mutant.after)()
    else:
        node.op = getattr(ast, mutant.after)()
    path.write_text(ast.unparse(tree) + "\n")


# ---------------------------------------------------------------------------
# C candidates
# ---------------------------------------------------------------------------

#: Comments, string and character literals and preprocessor lines, which
#: no C mutant touches.
C_MASK = re.compile(
    r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'"
    r"|^[ \t]*#[^\n]*",
    re.S | re.M,
)
C_OPS = {
    "==": "!=", "!=": "==", "<=": "<", ">=": ">", "<": "<=", ">": ">=",
    "&&": "||", "||": "&&", "+": "-", "-": "+", "<<": ">>", ">>": "<<",
}
#: An operator token with a space either side (binary use only: no
#: ``->``, ``++``, unary minus or pointer arithmetic spelled tight), or
#: a decimal integer literal.
C_TOKEN = re.compile(
    r"(?<= )(==|!=|<=|>=|<<|>>|&&|\|\||<|>|\+|-)(?= )"
    r"|(?<![\w.])(\d+)(?![\w.])"
)


def c_candidates() -> List[Mutant]:
    out = []
    for unit, kernel in C_UNITS.items():
        path = NATIVE / unit
        text = (ROOT / path).read_text()
        masked = C_MASK.sub(lambda m: " " * len(m.group()), text)
        lines = text.splitlines()
        for m in C_TOKEN.finditer(masked):
            line = text.count("\n", 0, m.start()) + 1
            if m.group(1):
                swaps = [C_OPS[m.group(1)]]
            else:
                value = int(m.group(2))
                swaps = [str(value + 1)] + ([str(value - 1)] if value else [])
            for after in swaps:
                out.append(Mutant(
                    id="", lang="c", path=str(path), line=line,
                    where=f"{unit}:{line} ({kernel})",
                    before=m.group(), after=after,
                    text=lines[line - 1].strip(), at=m.start(),
                ))
    return out


def apply_c(mutant: Mutant, copy: Path) -> None:
    path = copy / mutant.path
    text = path.read_text()
    assert text[mutant.at:mutant.at + len(mutant.before)] == mutant.before
    end = mutant.at + len(mutant.before)
    path.write_text(text[:mutant.at] + mutant.after + text[end:])


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _limit():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def env_for(copy: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(copy / "src"), REPRO_NATIVE="require",
        PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
    )
    return env


def build(copy: Path) -> bool:
    """Rebuild the core in ``copy``; False unless the result loads as a
    core built from the sources there (``setup.py`` swallows a failed
    compile, and without ``--force`` a source no newer than the ``.so``
    by the file system's clock is not recompiled)."""
    env = env_for(copy)
    for command in (
        ["setup.py", "build_ext", "--inplace", "--force"],
        ["-c", "from repro.sim.native import load_native_core; load_native_core()"],
    ):
        proc = subprocess.run(
            [sys.executable, *command], cwd=copy, env=env,
            capture_output=True, timeout=600, preexec_fn=_limit,
        )
        if proc.returncode != 0:
            return False
    return True


FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def run_file(copy: Path, target: str, timeout: float) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             target],
            cwd=copy, env=env_for(copy), capture_output=True, text=True,
            timeout=timeout, preexec_fn=_limit,
        )
    except subprocess.TimeoutExpired:
        return {"outcome": "hang", "seconds": round(time.monotonic() - start, 1)}
    seconds = round(time.monotonic() - start, 1)
    if proc.returncode == 0:
        return {"outcome": "survived", "seconds": seconds}
    failed = FAILED.search(proc.stdout)
    outcome = "killed" if proc.returncode in (1, 2) else "crash"
    if proc.returncode == 5:
        outcome = "error"  # no tests collected
    return {
        "outcome": outcome, "seconds": seconds,
        "test": failed.group(1) if failed else None,
        "returncode": proc.returncode,
    }


def make_copy() -> Path:
    base = Path(tempfile.mkdtemp(prefix="mutants-"))
    copy = base / "tree"
    ignore = shutil.ignore_patterns(
        "__pycache__", "*.pyc", ".hypothesis", ".pytest_cache", "build"
    )
    copy.mkdir()
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=ignore)
    for name in ("setup.py", "pytest.ini"):
        shutil.copy2(ROOT / name, copy / name)
    return copy


def sample(candidates: List[Mutant], seed: int, prefix: str):
    """The candidates in the seed's order, numbered."""
    order = list(candidates)
    random.Random(f"{seed}/{prefix}").shuffle(order)
    for number, mutant in enumerate(order, 1):
        mutant.id = f"{prefix}{number:03d}"
        yield mutant


def run(args) -> int:
    copy = make_copy()
    targets = args.targets
    matrix = {
        "seed": args.seed, "targets": targets, "baseline": {}, "mutants": [],
    }
    try:
        if not build(copy):
            raise SystemExit("mutants: the unmutated core does not build")
        timeouts = {}
        for target in targets:
            result = run_file(copy, target, 3600)
            matrix["baseline"][target] = result
            if result["outcome"] != "survived":
                print(f"mutants: unmutated tree fails {target}: {result}",
                      file=sys.stderr)
                write(args.out, matrix)
                return 1
            timeouts[target] = max(60.0, 5 * result["seconds"])
        pristine = {}
        plan = [("py", python_candidates(), args.py, apply_python),
                ("c", c_candidates(), args.c, apply_c)]
        for lang, candidates, count, apply in plan:
            live = 0
            for mutant in sample(candidates, args.seed, lang):
                if live >= count:
                    break
                path = copy / mutant.path
                pristine.setdefault(mutant.path, path.read_text())
                apply(mutant, copy)
                if lang == "py":
                    try:
                        compile(path.read_text(), str(path), "exec")
                    except SyntaxError:
                        mutant.stillborn = True
                elif not build(copy):
                    mutant.stillborn = True
                if not mutant.stillborn:
                    live += 1
                    for target in targets:
                        mutant.results[target] = run_file(
                            copy, target, timeouts[target]
                        )
                    print(f"{mutant.id} {mutant.where} {mutant.before}->"
                          f"{mutant.after}: " + " ".join(
                              r["outcome"][0].upper()
                              for r in mutant.results.values()), flush=True)
                matrix["mutants"].append(asdict(mutant))
                path.write_text(pristine[mutant.path])
                write(args.out, matrix)
        return 0
    finally:
        shutil.rmtree(copy.parent, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

MARKS = {"killed": "K", "hang": "H", "crash": "C", "error": "E", "survived": "."}


def killed(result: dict) -> bool:
    return result["outcome"] != "survived"


def score(matrix: dict) -> dict:
    live = [m for m in matrix["mutants"] if not m["stillborn"]]
    out = {"live": len(live),
           "stillborn": sum(m["stillborn"] for m in matrix["mutants"])}
    for target in matrix["targets"]:
        out[target] = sum(killed(m["results"][target]) for m in live)
    out["any"] = sum(any(map(killed, m["results"].values())) for m in live)
    return out


def markdown(matrix: dict) -> str:
    targets = matrix["targets"]
    short = [Path(t).stem.replace("test_", "") for t in targets]
    rows = [
        f"Seed {matrix['seed']}. K killed, H hang, C crash, E error, "
        ". survived; stillborn mutants are listed without results.",
        "",
        "| mutant | where | change | " + " | ".join(short) + " |",
        "|---|---|---|" + "---|" * len(targets),
    ]
    for m in matrix["mutants"]:
        change = f"`{m['before']}` → `{m['after']}`"
        if m["stillborn"]:
            cells = ["stillborn"] + [""] * (len(targets) - 1)
        else:
            cells = [MARKS[m["results"][t]["outcome"]] for t in targets]
        rows.append(f"| {m['id']} | {m['where']} | {change} | "
                    + " | ".join(cells) + " |")
    totals = score(matrix)
    rows.append(
        "| score | | | " + " | ".join(
            f"{totals[t]}/{totals['live']}" for t in targets) + " |"
    )
    rows.append("")
    rows.append(f"Killed by any target: {totals['any']}/{totals['live']} "
                f"live mutants ({totals['stillborn']} stillborn).")
    return "\n".join(rows) + "\n"


def write(out: str, matrix: dict) -> None:
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    matrix = dict(matrix, score=score(matrix))
    path = directory / "kill_matrix.json"
    path.write_text(json.dumps(matrix, indent=1) + "\n")
    path.with_suffix(".md").write_text(markdown(matrix))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", help="test files, from the repo root")
    parser.add_argument("--seed", type=int, default=53)
    parser.add_argument("--c", type=int, default=6, help="live C mutants")
    parser.add_argument("--py", type=int, default=6, help="live Python mutants")
    parser.add_argument("--out", default="mutation", help="matrix directory")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
