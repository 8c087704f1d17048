"""The repo's reference benchmark: one command, every metric by name.

Driver form (one workload, one JSON object as the last line)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Human form (every workload in a child process of its own)::

    python3 perf/run.py [--seed N] [--seconds S] [--traced] [--quick]
    python3 perf/run.py --selfcheck

Before anything is imported from ``src/`` the process re-executes itself
with a pinned environment (fast tier, ``PYTHONHASHSEED=0``, every other
``REPRO_*`` scrubbed) and builds the optional C core if it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perf" / "out"
for _path in (str(SRC), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_PINNED = "PERF_ENV_PINNED"
_FAST_TIER = {
    "REPRO_STORAGE": "columnar",
    "REPRO_REPLAY": "compiled",
    "REPRO_NATIVE": "require",
}
#: glibc hands freed memory back to the kernel (munmap of large blocks,
#: heap trimming), and on this VM touching a page the host has to back
#: again costs 20 us in a quiet minute and 1-3 ms in a bad one: left
#: alone, set-ups of the same tree took 0.3 s or 3 s. With every block
#: taken from the heap and the heap never trimmed, each set-up after the
#: warm-up rep reuses the pages of the one before and faults no page.
_ALLOCATOR = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(16 << 30),
}


def load_benchmark() -> Dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- hermetic environment --------------------------------------------------------


def pinned_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(_FAST_TIER)
    env.update(_ALLOCATOR)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env[_PINNED] = "1"
    return env


def build_extension() -> None:
    """Build ``_replay_core`` in place unless an up-to-date one is there."""
    native = SRC / "repro" / "sim" / "native"
    source = native / "_replay_core.c"
    built = [
        so for so in native.glob("_replay_core*.so")
        if so.stat().st_mtime >= source.stat().st_mtime
    ]
    if built:
        return
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if done.returncode != 0 or not list(native.glob("_replay_core*.so")):
        sys.stderr.write(done.stdout)
        sys.exit("perf: could not build the C replay core (no C toolchain?)")


def fingerprint(calibrator) -> Dict[str, object]:
    import numpy

    from repro.sim.native import native_available

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "native_built": native_available(),
        "calibration_rate": calibrator.median_rate(),
        "calibration_ref_rate": calibrator.ref_rate,
    }


# -- one workload ---------------------------------------------------------------


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, detail: Dict) -> Dict[str, Dict[str, float]]:
    """The ``--trace 0`` run: per rep a timed set-up and timed slices.

    Rep 0 is a warm-up (lazy imports, allocator growth, page faults): it
    runs and is checked like the others but its times are discarded.
    Every set-up ends in a full collection, so each rep meets the cyclic
    collector in the same state and its one ~50 ms gen-2 pass falls in
    the same slice of every rep.
    """

    def set_up(index: int) -> None:
        workload.setup(index)
        gc.collect()

    workload.make_inputs()
    samples: Dict[str, List[float]] = {
        "ops_per_s": [], "raw_ops_per_s": [], "setup_s": [], "raw_setup_s": [],
    }
    slices = []
    for index in range(workload.reps):
        timed_setup = workload.times_setup(index)
        if timed_setup:
            setup_clock = workload.setup_clock()
            setup_clock.time(set_up, index)
        else:
            gc.collect()
        clock = workload.clock()
        work = workload.run_rep(clock, index)
        if index == 0:
            continue
        slices.append(clock.slices)
        samples["ops_per_s"].append(work / clock.norm_s)
        samples["raw_ops_per_s"].append(work / clock.raw_s)
        if timed_setup:
            samples["setup_s"].append(setup_clock.norm_s)
            samples["raw_setup_s"].append(setup_clock.raw_s)
    workload.check()
    #: ``(wall, rate before, rate after)`` per slice per timed rep: what
    #: another way of normalising would have to be judged on.
    detail["slices"] = slices
    detail["samples"] = samples
    return {name: _quartiles(values) for name, values in samples.items()}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def run_workload(args) -> int:
    from perf.calibrate import Calibrator
    from perf.layers import Tracer
    from perf.workloads import BY_NAME

    benchmark = load_benchmark()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in benchmark[kind]}
    calibrator = Calibrator()
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    for env, sub in (
        ("REPRO_TRACE_CACHE", "traces"),
        ("REPRO_RESULT_CACHE", "results"),
        ("REPRO_FIGURE_CACHE", "figures"),
    ):
        os.environ[env] = str(tmp / sub)
    workload = BY_NAME[args.workload](
        args.seed, args.seconds, args.quick, tmp, calibrator
    )
    detail: Dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
    }
    try:
        if args.trace:
            workload.make_inputs()
            tracer = Tracer()
            counts, times = workload.layer_metrics(tracer)
            tracer.write_jsonl(OUT / f"trace_{workload.name}.jsonl")
            detail["spans"] = len(tracer.spans)
            detail["exact"] = sorted(counts)
            stats = {
                name: {"median": value, "n": 1}
                for name, value in {**counts, **times}.items()
            }
        else:
            stats = measure(workload, detail)
            stats["peak_rss_mb"] = _quartiles([peak_rss_mb()])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unnamed = sorted(
        name for name in stats if name not in declared and not name.startswith("raw_")
    )
    if unnamed:
        sys.exit(f"perf: metrics missing from BENCHMARK.json: {unnamed}")
    if not args.trace:
        missing = sorted(set(declared) - set(stats))
        if missing:
            sys.exit(f"perf: end-to-end metrics not measured: {missing}")
    # A layer this workload never enters did no work: it reports 0.
    metrics = {
        name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
        for name, unit in declared.items()
    }
    detail.update(
        stats=stats,
        notes=workload.notes,
        fingerprint=fingerprint(calibrator),
        unit_of_work=workload.unit,
    )
    with open(
        OUT / f"detail_{workload.name}_{int(args.trace)}.json", "w", encoding="utf-8"
    ) as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    print(f"# {workload.name} seed={args.seed} trace={int(args.trace)}"
          f" (ops are {workload.unit})")
    for name, row in stats.items():
        unit = declared.get(name) or declared.get(name[len("raw_"):], "")
        spread = (
            f"  q1={row['q1']:.6g} q3={row['q3']:.6g}" if row["n"] > 1 else ""
        )
        print(f"{name:<42} {row['median']:>14.6g} {unit:<8} n={row['n']}{spread}")
    for note in workload.notes:
        print(f"FAILED: {note}")
    result = {
        "correct": workload.failed == 0,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if workload.failed == 0 else 1


# -- every workload, each in its own child ---------------------------------------


def run_child(name: str, seed: int, seconds: int, trace: int, quick: bool) -> Dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        sys.exit(f"perf: {name} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if trace:
        with open(OUT / f"detail_{name}_1.json", "r", encoding="utf-8") as fh:
            result["exact"] = json.load(fh)["exact"]
    return result


def run_set(args, names: List[str], traced: bool) -> Dict[str, Dict[int, Dict]]:
    results: Dict[str, Dict[int, Dict]] = {}
    for name in names:
        results[name] = {0: run_child(name, args.seed, args.seconds, 0, args.quick)}
        if traced:
            results[name][1] = run_child(name, args.seed, args.seconds, 1, args.quick)
    return results


def selfcheck(args, names: List[str]) -> int:
    """Two full sets back to back: end-to-end metrics must agree within
    their bounds, and the counts the program makes must agree exactly."""
    benchmark = load_benchmark()
    first = run_set(args, names, traced=True)
    second = run_set(args, names, traced=True)
    worst = 0
    print(f"\n{'workload':<28} {'metric':<14} {'first':>12} {'second':>12}"
          f" {'change':>8} {'bound':>6}")
    for name in names:
        for metric in benchmark["end_to_end"]:
            a = first[name][0]["metrics"][metric["name"]]["value"]
            b = second[name][0]["metrics"][metric["name"]]["value"]
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = ""
            if abs(change) > metric["bound"]:
                worst += 1
                flag = "  OUT OF BOUND"
            print(f"{name:<28} {metric['name']:<14} {a:>12.5g} {b:>12.5g}"
                  f" {change:>+8.1%} {metric['bound']:>6}{flag}")
        moved = [
            count for count in first[name][1]["exact"]
            if first[name][1]["metrics"][count] != second[name][1]["metrics"][count]
        ]
        worst += len(moved)
        print(f"{name:<28} {len(first[name][1]['exact'])} counts, "
              f"{'all equal' if not moved else f'NOT EQUAL: {moved}'}")
    return 1 if worst else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced per-layer run of each workload")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; never report these numbers")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "setup.py").is_file():
        sys.exit("perf: no src/repro here; run from a checkout of the repository")
    if os.environ.get(_PINNED) != "1":
        build_extension()
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()),
             *(sys.argv[1:] if argv is None else argv)],
            pinned_env(),
        )

    benchmark = load_benchmark()
    if args.seed is None:
        from perf.calibrate import load_reference

        args.seed = load_reference()["default_seed"]
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            sys.exit(f"perf: unknown workload {args.workload!r}; choose from {names}")
        return run_workload(args)
    started = time.perf_counter()
    if args.selfcheck:
        status = selfcheck(args, names)
    else:
        run_set(args, names, args.traced)
        status = 0
    print(f"# {len(names)} workloads in {time.perf_counter() - started:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
