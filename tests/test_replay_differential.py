"""Lockstep differential per replay slice: the fast tier vs the reference.

The fast tier (columnar storage, the ``run_batch`` loop, the native
kernels) must be *performance-only*.  Every registered scheme replays
one trace on the reference tier (``mode="scalar"`` over
``storage="object"``) and on the fast tier exactly as a user with no
``REPRO_*`` set gets it, and ``tests/lockstep.py``'s ``replay_lockstep``
compares the ``SimResult`` (every field), its cycles' bits and the whole
state image after every slice, then in one slice; the per-access form is
``tests/test_lockstep.py``.  Also here: what runs with no ``REPRO_*``
set and what each knob still does, the replay-mode table, and the
line-to-block translation.
"""

import pytest

from repro.backend.columnar import ColumnarPathOramBackend
from repro.errors import ConfigurationError
from repro.presets import build_frontend
from repro.settings import Settings
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.replay import (
    REPLAY_MODES,
    line_block_ratio,
    resolve_replay_mode,
    translate_block_addrs,
)
from repro.sim.system import replay_trace
from repro.storage import ColumnarTreeStorage, TreeStorage
from repro.utils.rng import DeterministicRng

from lockstep import (
    TIMING, VARIANTS, build, frontend_backends, make_trace, replay_lockstep,
)

BLOCKS = 2**10


class TestLockstep:
    @pytest.mark.parametrize("scheme", sorted(
        name for name in VARIANTS if "/" not in name
    ))
    def test_fast_is_bit_identical_per_batch(self, scheme, fast_tier):
        """Slice by slice, then in one slice, the fast tier leaves the
        state the reference loop leaves."""
        _, fields = VARIANTS[scheme]
        ref = build(scheme, "object", **fields)
        fast = build_frontend(scheme, rng=DeterministicRng(7), **fields)
        blocks = fields["num_blocks"]
        replay_lockstep(ref, fast, make_trace(5, 400, blocks), 100, scheme)
        replay_lockstep(ref, fast, make_trace(44, 300, blocks), None, scheme)
        # The comparison only means something if the tiers really differ.
        for backend in frontend_backends(fast):
            assert isinstance(backend, ColumnarPathOramBackend)
        for backend in frontend_backends(ref):
            assert type(backend.storage) is TreeStorage
        assert getattr(ref, "_kernel", None) is None
        if hasattr(fast, "enable_native_kernel"):
            assert fast._kernel is not None

    @pytest.mark.parametrize("scheme", ("P_X16", "R_X8"))
    def test_fast_loop_over_object_storage(self, scheme, fast_tier):
        """A frontend pinned to object storage still replays on the fast
        loop: the C slice calls its interpreted ``access`` per event."""
        _, fields = VARIANTS[scheme]
        ref, pinned = (build(scheme, "object", **fields) for _ in range(2))
        trace = make_trace(11, 450, fields["num_blocks"])
        replay_lockstep(ref, pinned, trace, 150, scheme)
        assert getattr(pinned, "_kernel", None) is None


class TestDefaultTier:
    """What runs with no ``REPRO_*`` set, and what each knob still does."""

    @pytest.mark.skipif(
        load_native_core() is None, reason=unavailable_reason()
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
        cores = []
        run_trace = ReplayEngine.run_trace

        def recording(engine, trace):
            cores.append(engine._native)
            run_trace(engine, trace)

        monkeypatch.setattr(ReplayEngine, "run_trace", recording)
        for scheme in ("PIC_X32", "R_X8"):
            frontend = build_frontend(
                scheme, num_blocks=BLOCKS, rng=DeterministicRng(7)
            )
            replay_trace(frontend, make_trace(1, events=50), TIMING)
            for backend in frontend_backends(frontend):
                assert type(backend.storage) is TreeStorage
                assert not hasattr(backend, "_kernel")
            assert getattr(frontend, "_kernel", None) is None
        assert cores == [None, None]  # no core enabled on either replay

    @pytest.mark.skipif(
        load_native_core() is None, reason=unavailable_reason()
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
    @pytest.mark.parametrize("block_bytes, line_bytes, ratio", [
        (64, 64, 1),
        (128, 64, 2),
        (256, 64, 4),
        (4096, 128, 32),  # Phantom's 4 KB blocks under its 128 B lines
        # The clamp: a block smaller than the line is served by one
        # access. Today's model; ROADMAP 10(b) turns this case into
        # line_bytes // block_bytes accesses per miss.
        (64, 128, 1),
    ])
    def test_line_block_ratio(self, block_bytes, line_bytes, ratio):
        assert line_block_ratio(line_bytes, block_bytes) == ratio

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

    def test_column_and_plain_list_translate_alike(self):
        """A trace's ``array('q')`` column and the same addresses as a
        list give the same blocks across pow2, non-pow2 and identity."""
        trace = make_trace(6, events=128, blocks=2**12)
        line_addrs, _ = trace.columns()
        plain = list(line_addrs)
        for lpb in (1, 2, 8, 3, 7):
            expect = [a // lpb for a in plain]
            assert translate_block_addrs(line_addrs, lpb) == expect, lpb
            assert translate_block_addrs(plain, lpb) == expect, lpb

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_lines_per_block_below_one_rejected(self, bad):
        """Regression: a malformed geometry used to take the shift
        fast-path and emit garbage addresses; now it fails loudly."""
        with pytest.raises(ValueError, match="lines_per_block must be >= 1"):
            translate_block_addrs([1, 2, 3], bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_lines_per_block_guard_covers_array_columns(self, bad):
        trace = make_trace(9, events=8)
        line_addrs, _ = trace.columns()
        with pytest.raises(ValueError, match="lines_per_block must be >= 1"):
            translate_block_addrs(line_addrs, bad)
