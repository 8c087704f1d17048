"""The shared replay engine core: batching is invisible to outcomes.

The serving layer and the offline replay kernels both drive
:class:`repro.sim.engine.ReplayEngine`; these tests pin the properties
that make that sharing sound — a sequence of ``run_batch`` calls is
bit-identical to one whole-trace call, ``result()`` matches
``replay_trace`` exactly, and delta counters are measured against the
engine's construction-time baselines.
"""

import pytest

from repro.config import ProcessorConfig
from repro.presets import build_frontend
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.engine import ReplayEngine, frontend_block_bytes
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.system import base_cycles, replay_trace
from repro.sim.timing import timing_for_frontend
from repro.storage.snapshot import tree_digest
from repro.utils.rng import DeterministicRng

BLOCKS = 2**9


def make_trace(seed: int, events: int) -> MissTrace:
    rng = DeterministicRng(seed)
    trace = MissTrace(
        name=f"engine-{seed}", instructions=40_000, mem_refs=15_000,
        l1_hits=11_000, l2_hits=2_500,
    )
    trace.events = [
        MissEvent(rng.randrange(BLOCKS), rng.random() < 0.3)
        for _ in range(events)
    ]
    return trace


def make_engine(seed: int = 1) -> ReplayEngine:
    frontend = build_frontend(
        "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(seed)
    )
    return ReplayEngine(frontend, timing_for_frontend(frontend))


class TestEngineVsReplayTrace:
    def test_result_matches_replay_trace_exactly(self):
        trace = make_trace(3, 300)
        proc = ProcessorConfig()
        frontend = build_frontend(
            "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(1)
        )
        expected = replay_trace(
            frontend, trace, timing_for_frontend(frontend), proc=proc,
            scheme="PC_X32",
        )
        engine = make_engine(seed=1)
        engine.cycles = base_cycles(trace, proc)
        engine.run_trace(trace)
        assert engine.result(trace, scheme="PC_X32") == expected

    @pytest.mark.skipif(
        load_native_core() is None, reason=unavailable_reason()
    )
    def test_scalar_and_fast_loops_agree(self):
        """``run_trace`` is one loop on both tiers: the reference engine
        (interpreted stages, object storage) and the compiled one leave
        the same cycles, counts, result and tree."""
        trace = make_trace(9, 250)
        engines = []
        for mode, storage in (("scalar", "object"), ("compiled", "default")):
            frontend = build_frontend(
                "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(2),
                storage=storage,
            )
            engine = ReplayEngine.for_mode(
                frontend, timing_for_frontend(frontend), mode=mode
            )
            engine.run_trace(trace)
            engines.append(engine)
        scalar, fast = engines
        assert scalar._native is None and fast._native is not None
        assert repr(fast.cycles) == repr(scalar.cycles)
        assert fast.events == scalar.events == len(trace.events)
        assert fast.result(trace) == scalar.result(trace)
        assert tree_digest(fast.frontend.backend.storage) == tree_digest(
            scalar.frontend.backend.storage
        )


class TestBatchSplitting:
    @pytest.mark.parametrize("batch", [1, 7, 64, 1000])
    def test_chunked_batches_bit_identical_to_one_shot(self, batch):
        trace = make_trace(5, 280)
        whole, split = make_engine(4), make_engine(4)
        line_addrs, is_write = trace.columns()
        addrs = whole.translate(line_addrs)
        writes = list(map(bool, is_write.tolist()))

        whole.run_batch(addrs, writes)
        for start in range(0, len(addrs), batch):
            split.run_batch(
                addrs[start : start + batch], writes[start : start + batch]
            )

        assert split.cycles == whole.cycles
        assert split.result(trace) == whole.result(trace)

    def test_run_batch_returns_per_event_latencies(self):
        engine = make_engine()
        latencies = engine.run_batch([1, 2, 3, 1], [False, True, False, False])
        assert len(latencies) == 4
        total = 0.0
        for latency in latencies:
            assert latency > 0
            total += latency
        assert engine.cycles == pytest.approx(total)


class TestBaselines:
    def test_deltas_exclude_traffic_before_construction(self):
        frontend = build_frontend(
            "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(8)
        )
        # Pre-serve some traffic, then hand the warm frontend to an engine.
        warmup = ReplayEngine(frontend, timing_for_frontend(frontend))
        warmup.run_batch([0, 1, 2], [True, False, False])
        engine = ReplayEngine(frontend, timing_for_frontend(frontend))
        trace = make_trace(2, 50)
        engine.run_trace(trace)
        fresh = make_engine(seed=8)
        fresh.run_batch([0, 1, 2], [True, False, False])
        baseline_bytes = fresh.frontend.data_bytes_moved
        assert (
            engine.result(trace).data_bytes
            == frontend.data_bytes_moved - baseline_bytes
        )


class TestBlockBytesProbe:
    def test_reads_config_and_configs(self):
        frontend = build_frontend(
            "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(1)
        )
        assert frontend_block_bytes(frontend) == frontend.config.block_bytes

    def test_rejects_frontendless_objects(self):
        with pytest.raises(TypeError, match="block_bytes"):
            frontend_block_bytes(object())
