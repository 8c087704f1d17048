"""Object vs columnar backend replayed in lockstep, with a shrinker.

The columnar block store rewrites the most correctness-critical layer of
the simulator, so its acceptance bar is *bit-identity*, not "tests
pass": randomized backend operations are replayed against the object
backend and the columnar one (whose access is the native
``AccessKernel``) through ``tests/lockstep.py``'s ``BackendDriver``,
which compares the returned block and the whole state image — the stash
in insertion order, the tree (the touched path, on a tree too big to
image per access), every counter, the occupancy summary, the ledgers and
the observer's event log — after **every** access, and whole trees at
the end.  Every random draw (operation mix, addresses, leaf labels,
payloads) is pre-materialised into the trace, and a failing trace is
**shrunk** — greedy chunk removal that preserves the divergence and
trace validity — so the assertion message carries a minimal
deterministic reproducer.  A Z=1 tree whose stash never empties keeps
the ordered stash-column rebuild busy for hundreds of consecutive
accesses.  Error parity lives in ``tests/test_native_replay.py`` and
the scheme-level lockstep in ``tests/test_lockstep.py``.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.ops import Op
from repro.config import OramConfig

from lockstep import (
    BackendDriver, Step, backend_twin, generate_steps, is_valid, needs_core,
)

pytestmark = needs_core


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def diverges(make_pair, trace: List[Step]) -> bool:
    """Whether ``trace`` drives the pair ``make_pair()`` builds apart."""
    try:
        BackendDriver(*make_pair()).run(trace)
    except AssertionError:
        return True
    return False


def shrink_trace(make_pair, trace: List[Step]) -> List[Step]:
    """Greedy chunk removal preserving both validity and the divergence.

    Classic ddmin-style: try dropping chunks of halving sizes; keep any
    candidate that is still a valid trace and still diverges. Terminates
    at chunk size 1, yielding a locally-minimal deterministic reproducer.
    """
    current = list(trace)
    chunk = max(len(current) // 2, 1)
    while chunk >= 1:
        index = 0
        progressed = False
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            if candidate and is_valid(candidate) and diverges(make_pair, candidate):
                current = candidate
                progressed = True
            else:
                index += chunk
        if chunk == 1 and not progressed:
            break
        chunk = chunk // 2 if chunk > 1 else (1 if progressed else 0)
    return current


def assert_lockstep(config: OramConfig, trace: List[Step], seed_label):
    """The driver's lockstep, shrinking a divergence into the message.
    Returns the longest run of accesses that left the stash non-empty."""
    driver = BackendDriver(*backend_twin(config))
    runs = [0, 0]  # the current run of busy accesses, the longest

    def after():
        runs[0] = runs[0] + 1 if driver.fast.stash_occupancy() else 0
        runs[1] = max(runs)

    try:
        assert driver.run(trace, seed_label, after) is None
    except AssertionError as exc:
        minimal = shrink_trace(lambda: backend_twin(config), trace)
        pytest.fail(
            f"object/columnar divergence ({exc}) for {seed_label}; "
            f"minimal reproducer ({len(minimal)} steps): {minimal!r}"
        )
    return runs[1]


# ---------------------------------------------------------------------------
# The differential suite
# ---------------------------------------------------------------------------

TINY = OramConfig(num_blocks=64, block_bytes=16)
SMALL = OramConfig(num_blocks=256, block_bytes=32)
PRESSURE_Z2 = OramConfig(num_blocks=256, block_bytes=16, blocks_per_bucket=2)
WIDE_Z16 = OramConfig(num_blocks=512, block_bytes=16, blocks_per_bucket=16)
CROWDED_Z1 = OramConfig(num_blocks=256, block_bytes=16, blocks_per_bucket=1)
SPARSE = OramConfig(num_blocks=2**19, block_bytes=16)  # L = 18


class TestRandomizedDifferential:
    def test_200_randomized_trace_replays(self, fast_tier):
        """The acceptance sweep: >= 200 seeded lockstep trace replays.

        Seeds rotate over four geometries (incl. a Z=2 stash-pressure
        tree that exercises the slow-path stash rebuild) and over plain
        and removal-heavy operation mixes, with stash and evicted-path
        comparison after every single access.
        """
        configs = (TINY, SMALL, PRESSURE_Z2, WIDE_Z16)
        for seed in range(200):
            config = configs[seed % len(configs)]
            trace = generate_steps(
                seed=1000 + seed,
                steps=40,
                num_addrs=config.num_blocks // 2,
                levels=config.levels,
                with_removal=(seed % 3 == 0),
                mac_fraction=0.3 if seed % 5 == 0 else 0.0,
            )
            assert_lockstep(config, trace, f"seed {1000 + seed}")

    def test_stash_pressure_exercises_slow_path(self):
        """Z=2 long runs must hit leftovers (the wholesale stash rebuild)."""
        trace = [
            Step("read", step.addr, step.new_leaf)
            for step in generate_steps(
                seed=42, steps=600, num_addrs=128, levels=PRESSURE_Z2.levels
            )
        ]
        ref, fast = backend_twin(PRESSURE_Z2)
        assert BackendDriver(ref, fast).run(trace) is None
        # The run only proves something if the stash actually pressured.
        assert ref.stash.occupancy_stats.max > 0

    def test_stash_that_never_empties(self, fast_tier):
        """Z=1 over a quarter-full tree: placement leaves leftovers on
        nearly every access, so for hundreds of accesses in a row the
        stash column is rebuilt, in merge order, from a non-empty stash —
        compared (contents, order, counters, occupancy summary, the evicted
        path) after every one, and whole trees at the end."""
        trace = generate_steps(
            seed=11, steps=500, num_addrs=64, levels=CROWDED_Z1.levels,
            with_removal=True,
        )
        # The run only proves something if the stash really stayed busy.
        assert assert_lockstep(CROWDED_Z1, trace, "Z=1 seed 11") >= 100

    def test_a_sparse_deep_tree(self, fast_tier):
        """A 2^18-leaf tree holding a few hundred blocks: every path is
        19 buckets, nearly all of them empty, so the kernel drains and
        rewrites only the few occupied ones — compared after every
        access, removals and MACs included, and whole trees at the end."""
        trace = generate_steps(
            seed=19, steps=1500, num_addrs=400, levels=SPARSE.levels,
            with_removal=True, mac_fraction=0.3,
        )
        assert 300 <= len({step.addr for step in trace}) <= 400
        assert_lockstep(SPARSE, trace, "2^18 leaves seed 19")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hypothesis_lockstep(self, data):
        """Hypothesis-driven mix (its shrinker complements ours)."""
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["read", "write"]),
                    st.integers(min_value=0, max_value=31),
                    st.integers(min_value=0, max_value=TINY.num_leaves - 1),
                    st.integers(min_value=0, max_value=255),
                ),
                min_size=1,
                max_size=40,
            )
        )
        trace = [
            Step(kind, addr, leaf, payload_byte=byte)
            for kind, addr, leaf, byte in ops
        ]
        assert BackendDriver(*backend_twin(TINY)).run(trace) is None


class TestShrinker:
    """The harness's own reducer must produce minimal reproducers."""

    POISON = 13

    def sabotaged_pair(self):
        """The pair, with the fast side's echo of a WRITE to the poisoned
        address zeroed."""
        ref, fast = backend_twin(TINY)
        real = fast.access

        def access(op, addr, *args):
            result = real(op, addr, *args)
            if op is Op.WRITE and addr == self.POISON and result is not None:
                result.data = b"\x00" * len(result.data)  # corrupt the echo
            return result

        fast.access = access
        return ref, fast

    def test_shrinker_isolates_the_poisoned_step(self):
        # A trace where exactly one WRITE hits the poisoned address.
        trace = generate_steps(seed=3, steps=50, num_addrs=32, levels=TINY.levels)
        trace = [s for s in trace if s.addr != self.POISON]
        trace.insert(25, Step("write", self.POISON, 1, payload_byte=7))
        assert diverges(self.sabotaged_pair, trace)
        assert not diverges(lambda: backend_twin(TINY), trace)
        minimal = shrink_trace(self.sabotaged_pair, trace)
        assert minimal == [Step("write", self.POISON, 1, payload_byte=7)]
