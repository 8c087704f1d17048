"""Lockstep differential: the fast replay tier vs the reference tier.

The fast tier (columnar storage, the ``run_batch`` loop, the native
kernels when built) must be *performance-only*. Two frontends built from
the same spec and seed replay the same trace — the reference through
``mode="scalar"`` over ``storage="object"``, the fast one exactly as a
user with no ``REPRO_*`` set gets it — and after every batch the harness
compares:

- the per-batch ``SimResult`` (every field, diagnostic counters
  included);
- the full ``FrontendStats`` block;
- the stash snapshot(s), order included;
- the SHA-256 tree digest(s) of the backend storage — the complete
  external memory state.

Every scheme in ``ALL_SCHEMES`` x every seed runs through the
``fast_tier`` fixture, on the native kernels, so a divergence anywhere
in the fast tier fails at the first batch that exposes it (without the
extension there is no fast tier to compare, and the fixture skips).
"""

import dataclasses

import pytest

from repro.backend.columnar import ColumnarPathOramBackend
from repro.errors import ConfigurationError
from repro.presets import build_frontend
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.settings import Settings
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core
from repro.sim.replay import (
    REPLAY_MODES,
    resolve_replay_mode,
    translate_block_addrs,
)
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.storage import ColumnarTreeStorage, TreeStorage
from repro.storage.snapshot import tree_digest
from repro.utils.rng import DeterministicRng

BLOCKS = 2**10


def make_trace(seed: int, events: int, blocks: int = BLOCKS) -> MissTrace:
    rng = DeterministicRng(seed)
    trace = MissTrace(
        name=f"diff-{seed}", instructions=50_000, mem_refs=20_000,
        l1_hits=15_000, l2_hits=3_000,
    )
    trace.events = [
        MissEvent(rng.randrange(blocks), rng.random() < 0.3)
        for _ in range(events)
    ]
    return trace


def chunked(trace: MissTrace, batch: int):
    """Sub-traces of ``batch`` events each (scalar counters repeated)."""
    for start in range(0, len(trace.events), batch):
        chunk = MissTrace(
            name=trace.name,
            instructions=trace.instructions,
            mem_refs=trace.mem_refs,
            l1_hits=trace.l1_hits,
            l2_hits=trace.l2_hits,
        )
        chunk.events = trace.events[start : start + batch]
        yield chunk


def frontend_backends(frontend):
    """A frontend's backend(s): one per level for the recursive scheme."""
    backends = getattr(frontend, "backends", None)
    return backends if backends is not None else [frontend.backend]


def frontend_digests(frontend):
    """Tree digest(s) of a frontend's backend storage (all trees)."""
    return [tree_digest(b.storage) for b in frontend_backends(frontend)]


def frontend_stashes(frontend):
    """Stash snapshot(s) of a frontend's backend(s), order included."""
    return [b.stash_snapshot() for b in frontend_backends(frontend)]


def stats_image(frontend):
    return {
        f.name: getattr(frontend.stats, f.name)
        for f in dataclasses.fields(frontend.stats)
    }


def frontend_columns(frontend):
    """The frontend state that lives in typed columns, as both tiers and
    both fast-tier spellings must leave it: the on-chip column and the
    first-touch bitmaps, and for a PLB frontend the PLB's five columns
    whole (set by set, way order and what an empty way was left holding
    included) plus the same through ``entries()``, the PRF's LRU in
    recency order with its leaves, and every counter beside them."""
    posmap = frontend.posmap
    image = {
        "onchip": (posmap._table.tolist(), bytes(posmap._touched)),
        "touched": [
            None if bitmap is None else bytes(bitmap)
            for bitmap in frontend._touched
        ],
    }
    plb = getattr(frontend, "plb", None)
    if plb is not None:
        prf, mac = frontend.crypto.prf, frontend.crypto.mac
        image.update(
            plb=(
                plb.tags.tolist(), plb.leaves.tolist(), plb.counters.tolist(),
                plb.last_use.tolist(), bytes(plb.payload),
            ),
            plb_entries=[
                dataclasses.astuple(entry.detach()) for entry in plb.entries()
            ],
            plb_counters=(plb._clock, plb.hits, plb.misses),
            prf=(prf.call_count, prf.cache_hits, list(prf._leaf_cache.items())),
            mac=(mac.call_count, mac.bytes_hashed),
        )
    return image


ALL_SCHEMES = ("R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32")

SEEDS = (8, 91, 2015)

TIMING = OramTimingModel(tree_latency_cycles=1000.0)


def tier_pair(scheme):
    """(reference frontend, fast frontend) from one spec and seed.

    The fast one names no storage: under the ``fast_tier`` fixture it is
    whatever a preset build resolves to with no ``REPRO_*`` set.
    """
    reference = build_frontend(
        scheme, num_blocks=BLOCKS, rng=DeterministicRng(7), storage="object"
    )
    fast = build_frontend(scheme, num_blocks=BLOCKS, rng=DeterministicRng(7))
    return reference, fast


class TestLockstep:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_is_bit_identical_per_batch(self, scheme, seed, fast_tier):
        reference, fast = tier_pair(scheme)
        trace = make_trace(seed, events=600)
        for index, chunk in enumerate(chunked(trace, batch=150)):
            expected = replay_trace(
                reference, chunk, TIMING, scheme=scheme, mode="scalar"
            )
            got = replay_trace(fast, chunk, TIMING, scheme=scheme)
            context = f"{scheme}/{fast_tier} seed={seed} batch={index}"
            assert expected == got, context
            # Diagnostic counters too — both tiers must drive the PRF
            # cache through the exact same state sequence.
            assert expected.prf_cache_hits == got.prf_cache_hits, context
            assert repr(expected.cycles) == repr(got.cycles), context
            assert stats_image(reference) == stats_image(fast), context
            assert frontend_columns(reference) == frontend_columns(fast), context
            assert frontend_stashes(reference) == frontend_stashes(fast), context
            assert frontend_digests(reference) == frontend_digests(fast), context
        # The comparison only means something if the tiers really differ.
        for backend in frontend_backends(fast):
            assert isinstance(backend, ColumnarPathOramBackend)
        assert fast._kernel is not None
        for backend in frontend_backends(reference):
            assert type(backend.storage) is TreeStorage

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_whole_trace_single_shot(self, scheme, fast_tier):
        """Longer single-shot replays: one ``run_batch`` of 900 events."""
        for seed in (3, 44):
            reference, fast = tier_pair(scheme)
            trace = make_trace(seed, events=900)
            expected = replay_trace(
                reference, trace, TIMING, scheme=scheme, mode="scalar"
            )
            got = replay_trace(fast, trace, TIMING, scheme=scheme)
            assert expected == got, (scheme, seed)
            assert frontend_digests(reference) == frontend_digests(fast)

    @pytest.mark.parametrize("scheme", ("P_X16", "R_X8"))
    def test_fast_loop_over_object_storage(self, scheme, fast_tier):
        """A frontend pinned to object storage still replays on the fast
        loop (C driver and accumulate only, ``access`` interpreted)."""
        reference, pinned = (
            build_frontend(
                scheme, num_blocks=BLOCKS, rng=DeterministicRng(7),
                storage="object",
            )
            for _ in range(2)
        )
        for chunk in chunked(make_trace(11, events=450), batch=150):
            expected = replay_trace(
                reference, chunk, TIMING, scheme=scheme, mode="scalar"
            )
            got = replay_trace(pinned, chunk, TIMING, scheme=scheme)
            assert expected == got
            assert repr(expected.cycles) == repr(got.cycles)
            assert stats_image(reference) == stats_image(pinned)
            assert frontend_digests(reference) == frontend_digests(pinned)


class TestDefaultTier:
    """What runs with no ``REPRO_*`` set, and what each knob still does."""

    @pytest.mark.skipif(
        load_native_core() is None, reason="compiled core not built"
    )
    def test_unset_env_runs_the_kernels_on_columnar_storage(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        core = load_native_core()
        frontend = build_frontend(
            "PIC_X32", num_blocks=BLOCKS, rng=DeterministicRng(7)
        )
        replay_trace(frontend, make_trace(1, events=50), TIMING)
        assert type(frontend.backend.storage) is ColumnarTreeStorage
        assert isinstance(frontend._kernel, core.FrontendKernel)
        assert isinstance(frontend.backend._kernel, core.AccessKernel)

    def test_native_off_runs_the_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")

        def unreachable(*args, **kwargs):
            raise AssertionError("fast loop under REPRO_NATIVE=off")

        monkeypatch.setattr(ReplayEngine, "run_batch", unreachable)
        for scheme in ("PIC_X32", "R_X8"):
            frontend = build_frontend(
                scheme, num_blocks=BLOCKS, rng=DeterministicRng(7)
            )
            replay_trace(frontend, make_trace(1, events=50), TIMING)
            for backend in frontend_backends(frontend):
                assert type(backend.storage) is TreeStorage
                assert not hasattr(backend, "_kernel")
            assert getattr(frontend, "_kernel", None) is None

    @pytest.mark.skipif(
        load_native_core() is None, reason="compiled core not built"
    )
    def test_explicit_storage_overrides_the_tier(self, monkeypatch):
        """The storage follows the tier only where the spec leaves it at
        ``default``; a frontend pinned to object storage on the fast tier
        still replays on the C loop, ``access`` interpreted."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        frontend = build_frontend("PC_X32", num_blocks=BLOCKS, storage="object")
        assert type(frontend.backend.storage) is TreeStorage
        engine = ReplayEngine.for_mode(frontend, TIMING)
        assert engine.mode == "compiled" and frontend._kernel is None


class TestKernelSelection:
    def test_default_mode_is_the_fast_tier(self, fast_tier):
        assert Settings.from_env().native in ("on", "require")
        assert resolve_replay_mode(None) == "compiled"

    def test_modes_are_the_two_tiers(self):
        assert REPLAY_MODES == ("scalar", "compiled")

    def test_env_selects_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert resolve_replay_mode(None) == "scalar"

    def test_env_garbage_raises(self, monkeypatch):
        """A typo'd REPRO_NATIVE aborts instead of silently running the
        other tier under the wrong label."""
        monkeypatch.setenv("REPRO_NATIVE", "quantum")
        with pytest.raises(ConfigurationError, match="REPRO_NATIVE='quantum'"):
            Settings.from_env()
        monkeypatch.setenv("REPRO_NATIVE", "of")  # the classic typo
        with pytest.raises(ConfigurationError, match="REPRO_NATIVE"):
            resolve_replay_mode(None)

    def test_stale_batched_mode_names_the_survivors(self, monkeypatch):
        with pytest.raises(ValueError, match=r"\('scalar', 'compiled'\)"):
            resolve_replay_mode("batched")
        monkeypatch.setenv("REPRO_NATIVE", "batched")
        with pytest.raises(ConfigurationError, match="'require'"):
            resolve_replay_mode(None)

    def test_env_whitespace_and_case_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "  OFF ")
        assert Settings.from_env().native == "off"

    def test_explicit_mode_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "require")
        assert resolve_replay_mode("scalar") == "scalar"

    def test_unknown_explicit_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown replay mode"):
            resolve_replay_mode("vectorised")

    def test_replay_trace_rejects_unknown_mode(self):
        frontend = build_frontend("P_X16", num_blocks=BLOCKS, rng=DeterministicRng(7))
        with pytest.raises(ValueError, match="unknown replay mode"):
            replay_trace(frontend, make_trace(1, events=4), TIMING, mode="quantum")


class TestTranslation:
    def test_identity_and_shift_and_divide(self):
        trace = make_trace(5, events=64, blocks=2**12)
        line_addrs, _ = trace.columns()
        expect1 = [e.line_addr for e in trace.events]
        assert translate_block_addrs(line_addrs, 1) == expect1
        assert translate_block_addrs(line_addrs, 4) == [a // 4 for a in expect1]
        assert translate_block_addrs(line_addrs, 3) == [a // 3 for a in expect1]

    def test_plain_sequence_fallback(self):
        assert translate_block_addrs([0, 5, 9, 16], 4) == [0, 1, 2, 4]
        assert translate_block_addrs([7, 8], 1) == [7, 8]

    def test_numpy_absent_path_matches_numpy_path(self, monkeypatch):
        """The scalar fallback (numpy unavailable) is lockstep with the
        vectorised shift/divide across pow2, non-pow2 and identity."""
        import repro.sim.replay as replay_mod

        trace = make_trace(6, events=128, blocks=2**12)
        line_addrs, _ = trace.columns()
        vectorised = {
            lpb: translate_block_addrs(line_addrs, lpb) for lpb in (1, 2, 8, 3, 7)
        }
        monkeypatch.setattr(replay_mod, "_np", None)
        plain = [int(a) for a in line_addrs]
        for lpb, expect in vectorised.items():
            assert translate_block_addrs(plain, lpb) == expect, lpb

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_lines_per_block_below_one_rejected(self, bad):
        """Regression: a malformed geometry used to take the shift
        fast-path and emit garbage addresses; now it fails loudly."""
        with pytest.raises(ValueError, match="lines_per_block must be >= 1"):
            translate_block_addrs([1, 2, 3], bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_lines_per_block_guard_covers_numpy_columns(self, bad):
        trace = make_trace(9, events=8)
        line_addrs, _ = trace.columns()
        with pytest.raises(ValueError, match="lines_per_block must be >= 1"):
            translate_block_addrs(line_addrs, bad)
