"""Paper scale: a 4 GB ORAM (2^26 blocks of 64 B) on the fast tier.

The tree's ``bucket_slots`` column is allocated uninitialised and its
``bucket_fill`` column zeroed on demand, so a page of either is backed
only once a block is written to it: a 2^26-block tree builds in well
under a megabyte, where zero-filling both columns cost 2.2 GB and 2-4 s.

Each case runs in a subprocess of its own, so ``ru_maxrss`` measures that
tree alone: the build (above the baseline after every import), a replay
of uniform misses, and 64 probe writes read back. The ``slow`` case
replays 50 000 misses, then digests the tree (``tree_digest`` walks the
occupied buckets and hashes the empty runs in bounded pieces: it must
take under 3 s and add under 8 MB, both to ``ru_maxrss`` and at its
``tracemalloc`` peak, where a whole-tree byte image was ~2 GB). The
file stays out of the sanitizer lane, where ASan's shadow of a 2 GB
column would be what the RSS gate measures.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.native import load_native_core, unavailable_reason

pytestmark = pytest.mark.skipif(
    load_native_core() is None, reason=unavailable_reason()
)

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = 2**26

CASE = """
import json, resource, sys, time, tracemalloc

from repro.proc.hierarchy import MissEvent, MissTrace
from repro.presets import build_frontend
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.storage.snapshot import tree_digest
from repro.utils.rng import DeterministicRng


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


scheme, blocks, events = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
digest = sys.argv[4] == "digest"
rng = DeterministicRng(2015)
trace = MissTrace(name="uniform", instructions=events * 100, mem_refs=events * 30)
trace.events = [
    MissEvent(rng.randrange(blocks), rng.random() < 0.3) for _ in range(events)
]
baseline = rss_mb()
start = time.perf_counter()
frontend = build_frontend(scheme, num_blocks=blocks, rng=DeterministicRng(7))
build_s = time.perf_counter() - start
build_mb = rss_mb() - baseline
replay_trace(frontend, trace, OramTimingModel(tree_latency_cycles=1000.0), scheme=scheme)
probes = {rng.randrange(blocks): bytes([n]) * 64 for n in range(1, 65)}
for addr, data in probes.items():
    frontend.write(addr, data)
assert all(frontend.read(addr) == data for addr, data in probes.items())
assert frontend._kernel is not None
measured = {
    "build_mb": build_mb, "build_s": build_s, "replay_mb": rss_mb() - baseline,
}
if digest:
    storage = frontend.backend.storage
    before = rss_mb()
    with open("/proc/self/status") as status:
        resident = next(
            int(line.split()[1]) for line in status if line.startswith("VmRSS:")
        )
    # ru_maxrss is a high-water mark: an allocation that fits under the
    # replay's peak does not raise it, so the gap is reported beside it,
    # and a second pass under tracemalloc bounds what the digest allocates.
    # (ru_maxrss lags VmRSS by a page or two, hence the floor at 0.)
    measured["headroom_mb"] = max(0.0, before - resident / 1024)
    start = time.perf_counter()
    first = tree_digest(storage)
    measured["digest_s"] = time.perf_counter() - start
    measured["digest_mb"] = rss_mb() - before
    tracemalloc.start()
    assert tree_digest(storage) == first
    measured["traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
print(json.dumps(measured))
"""


def run_case(scheme: str, events: int, digest: bool = False) -> dict:
    env = dict(
        os.environ,
        REPRO_NATIVE="require",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", CASE, scheme, str(BLOCKS), str(events),
         "digest" if digest else "-"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    measured = json.loads(done.stdout.splitlines()[-1])
    print(
        f"{scheme} at 2^26 blocks, {events} misses: build "
        f"{measured['build_mb']:.1f} MB in {measured['build_s'] * 1e3:.1f} ms, "
        f"ru_maxrss +{measured['replay_mb']:.1f} MB after the replay"
    )
    if digest:
        print(
            f"{scheme} at 2^26 blocks: tree_digest in "
            f"{measured['digest_s']:.2f} s, ru_maxrss "
            f"+{measured['digest_mb']:.1f} MB ({measured['headroom_mb']:.1f} MB "
            f"below the peak before it), tracemalloc peak "
            f"{measured['traced_mb']:.2f} MB"
        )
    return measured


@pytest.mark.parametrize("scheme", ["PC_X32", "PIC_X32", "R_X8"])
def test_a_4gb_oram_builds_in_no_memory(scheme):
    measured = run_case(scheme, events=2_000)
    assert measured["build_mb"] < 50
    assert measured["build_s"] < 0.1


@pytest.mark.slow
@pytest.mark.parametrize("scheme", ["PC_X32", "PIC_X32"])
def test_50k_misses_at_4gb(scheme):
    measured = run_case(scheme, events=50_000, digest=True)
    assert measured["build_mb"] < 50
    assert measured["replay_mb"] < 200
    assert measured["digest_mb"] < 8
    assert measured["traced_mb"] < 8
    assert measured["digest_s"] < 3
