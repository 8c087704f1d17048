"""A slot at or past its bucket's fill is never read.

``bucket_slots`` is allocated uninitialised (``_replay_core.column``):
bucket ``i``'s ids are ``bucket_slots[i*Z : i*Z + fill]`` and whatever
lies past the fill is stale — garbage from the allocator, or an id an
earlier placement left behind. Nothing may read it: the kernel's drain
and placement, ``bucket()``, ``bucket_records``, the snapshots and the
tamper hooks all stop at the fill.

Two checks hold the fast tier to that:

- a Hypothesis property scribbles int32s into every stale position of
  every tree — live slot ids, free slot ids, ids outside the arena and
  anything else — before the replay and between its slices, and the
  replay must leave the ``SimResult``, every ledger, the tree digests
  and the stash snapshots exactly as an unscribbled twin leaves them;
- one golden replay runs in a subprocess under ``PYTHONMALLOC=debug``,
  whose allocator fills fresh memory with ``0xCD``, so the tree really
  starts as garbage, and must come out at its recorded digest.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.presets import build_frontend
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.system import replay_trace
from repro.utils.rng import DeterministicRng
from lockstep import (
    TIMING,
    chunked,
    frontend_backends,
    frontend_columns,
    frontend_digests,
    frontend_stashes,
    ledger_image,
    make_trace,
)

pytestmark = pytest.mark.skipif(
    load_native_core() is None, reason=unavailable_reason()
)

BLOCKS = 2**8
#: The PLB schemes with a 2 KiB 4-way PLB, so it misses and refills.
SCHEMES = {
    "PC_X32": {"plb_capacity_bytes": 2048, "plb_ways": 4},
    "PIC_X32": {"plb_capacity_bytes": 2048, "plb_ways": 4},
    "P_X16": {},
    "R_X8": {},
}

#: How a stale position gets its value: (kind, raw int) pairs, cycled
#: over the positions. Every plan holds each kind at least once.
scribbles = st.lists(
    st.tuples(
        st.sampled_from(["live", "free", "outside", "any"]),
        st.integers(0, 2**32 - 1),
    ),
    max_size=12,
).map(lambda drawn: [("live", 0), ("free", 0), ("outside", 1), ("any", 0)] + drawn)


def scribble(frontend, plan, turn):
    """Write ``plan``'s values into every stale ``bucket_slots`` position
    of every tree the frontend owns; returns how many were written."""
    written = 0
    for backend in frontend_backends(frontend):
        storage = backend.storage
        z = storage.config.blocks_per_bucket
        slots, fill = storage.bucket_slots, storage.bucket_fill
        arena = len(storage.addr_col)
        free_ids = storage.free_slots()
        live = [s for i in range(len(fill)) for s in storage.bucket(i)]
        live += backend.stash.resident()
        for index in range(len(fill)):
            for position in range(fill[index], z):
                kind, raw = plan[(written + turn) % len(plan)]
                pool = {"live": live, "free": free_ids}.get(kind)
                if pool:
                    value = pool[raw % len(pool)]
                elif kind == "outside":
                    value = arena + raw % (2**31 - arena) if raw & 1 else -1 - raw // 2
                else:
                    value = raw - 2**31
                slots[index * z + position] = value
                written += 1
    return written


@settings(max_examples=40, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)), plan=scribbles, seed=st.integers(0, 99))
def test_stale_slots_are_never_read(scheme, plan, seed):
    twins = [
        build_frontend(
            scheme, num_blocks=BLOCKS, rng=DeterministicRng(7), **SCHEMES[scheme]
        )
        for _ in range(2)
    ]
    clean, scribbled = twins
    trace = make_trace(seed, events=300, blocks=BLOCKS)
    for turn, chunk in enumerate(chunked(trace, batch=75)):
        assert scribble(scribbled, plan, turn) > 0
        expected = replay_trace(clean, chunk, TIMING, scheme=scheme)
        got = replay_trace(scribbled, chunk, TIMING, scheme=scheme)
        assert expected == got and repr(expected.cycles) == repr(got.cycles)
        assert ledger_image(clean) == ledger_image(scribbled)
        assert frontend_columns(clean) == frontend_columns(scribbled)
        assert frontend_stashes(clean) == frontend_stashes(scribbled)
        assert frontend_digests(clean) == frontend_digests(scribbled)
    assert scribbled._kernel is not None


TESTS = Path(__file__).resolve().parent

GOLDEN = """
from repro.presets import build_frontend
from repro.utils.rng import DeterministicRng
from helpers import SCHEME_DIGESTS, golden_digest

for scheme in ("PC_X32", "R_X8"):
    frontend = build_frontend(scheme, num_blocks=2**12, rng=DeterministicRng(7))
    tree = frontend.backends[0] if scheme == "R_X8" else frontend.backend
    assert bytes(tree.storage.bucket_slots[:4]) == b"\\xcd" * 16, scheme
    assert golden_digest(frontend, scheme) == SCHEME_DIGESTS[scheme], scheme
    assert frontend._kernel is not None, scheme
print("ok")
"""


def test_golden_replay_over_a_garbage_tree():
    """``PYTHONMALLOC=debug`` fills every fresh ``PyMem_RawMalloc`` block
    with ``0xCD``: the uninitialised ``bucket_slots`` of these trees start
    as garbage, and the golden digests still come out."""
    env = dict(
        os.environ,
        PYTHONMALLOC="debug",
        REPRO_NATIVE="require",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(TESTS.parent / "src"), str(TESTS),
                          os.environ.get("PYTHONPATH")])
        ),
    )
    done = subprocess.run(
        [sys.executable, "-c", GOLDEN],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
