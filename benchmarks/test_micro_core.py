"""Microbenchmarks: core primitive throughput (not a paper figure).

These quantify the simulator itself — Backend accesses/s, Frontend
accesses/s per scheme, PRF/MAC calls/s — so regressions in the library's
own performance are visible in CI.
"""

import pytest

from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.config import OramConfig
from repro.crypto.suite import CryptoSuite
from repro.presets import build_frontend
from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.storage.columnar import ColumnarTreeStorage
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng


BLOCKS = 2**12


def micro_trace(events: int = 500) -> MissTrace:
    """Fixed synthetic miss trace (seeded, uniform with 30% writes)."""
    rng = DeterministicRng(8)
    trace = MissTrace(name="micro", instructions=200_000, mem_refs=60_000,
                      l1_hits=50_000, l2_hits=8_000)
    trace.events = [
        MissEvent(rng.randrange(BLOCKS), rng.random() < 0.3)
        for _ in range(events)
    ]
    return trace


def test_replay_hot_path_throughput(benchmark):
    """End-to-end replay loop: trace events through a PLB frontend."""
    frontend = build_frontend("PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(7))
    timing = OramTimingModel(tree_latency_cycles=1000.0)
    trace = micro_trace()

    def replay_once():
        replay_trace(frontend, trace, timing, scheme="PC_X32")

    benchmark(replay_once)


@pytest.mark.parametrize("scheme", ["P_X16", "PIC_X32"])
@pytest.mark.parametrize("storage", [
    "object",
    # Its backend is the native access kernel.
    pytest.param("columnar", marks=pytest.mark.skipif(
        load_native_core() is None, reason=unavailable_reason()
    )),
])
def test_replay_throughput_by_storage(benchmark, scheme, storage):
    """Replay throughput per storage backend (same loop, same trace)."""
    frontend = build_frontend(
        scheme, num_blocks=BLOCKS, rng=DeterministicRng(7), storage=storage
    )
    timing = OramTimingModel(tree_latency_cycles=1000.0)
    trace = micro_trace()

    def replay_once():
        replay_trace(frontend, trace, timing, scheme=scheme)

    benchmark(replay_once)


def test_backend_access_throughput(benchmark):
    config = OramConfig(num_blocks=2**12, block_bytes=64)
    backend = PathOramBackend(config, TreeStorage(config), DeterministicRng(1))
    rng = DeterministicRng(2)
    posmap = {}

    def one_access():
        addr = rng.randrange(2**12)
        leaf = posmap.get(addr, rng.random_leaf(config.levels))
        new_leaf = backend.random_leaf()
        posmap[addr] = new_leaf
        backend.access(Op.READ, addr, leaf, new_leaf)

    benchmark(one_access)


@pytest.mark.skipif(load_native_core() is None, reason=unavailable_reason())
def test_columnar_backend_access_throughput_sparse(benchmark):
    """The native AccessKernel's tree access alone, on a 2^18-leaf tree
    holding at most 256 blocks: a 19-bucket path with few occupied."""
    config = OramConfig(num_blocks=2**19, block_bytes=64)
    backend = ColumnarPathOramBackend(
        config, ColumnarTreeStorage(config), DeterministicRng(1)
    )
    rng = DeterministicRng(2)
    posmap = {}

    def one_access():
        addr = rng.randrange(2**8)
        leaf = posmap.get(addr, rng.random_leaf(config.levels))
        new_leaf = backend.random_leaf()
        posmap[addr] = new_leaf
        backend.access(Op.READ, addr, leaf, new_leaf)

    benchmark(one_access)


@pytest.mark.parametrize("scheme", ["R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32"])
def test_frontend_access_throughput(benchmark, scheme):
    frontend = build_frontend(scheme, num_blocks=2**12, rng=DeterministicRng(3))
    rng = DeterministicRng(4)

    def one_access():
        frontend.read(rng.randrange(2**12))

    benchmark(one_access)


def test_prf_fast_throughput(benchmark):
    prf = CryptoSuite.fast().prf
    counter = iter(range(10**9))

    def one_call():
        prf.leaf_for(1234, next(counter), 24)

    benchmark(one_call)


#: Lane calls per ``_lanes`` call, so the call's own cost stays out.
CALLS_PER_CALL = 1_000


@pytest.mark.skipif(load_native_core() is None, reason=unavailable_reason())
@pytest.mark.parametrize("spelling", ["scalar", "avx512vl"])
@pytest.mark.parametrize("shape", ["prf-pair", "write", "read", "victim"])
def test_native_lanes_throughput(benchmark, spelling, shape):
    """One ``blake2b_lanes`` call of each shape a request makes, per
    spelling: a remap's leaf pair alone (two PRF lanes), a WRITE's pair
    with its seal (three), a READ's verify and seal (two MAC lanes) and
    a PLB victim's seal with the next pair (three).  ``scalar`` is one
    compression per lane; ``avx512vl`` one four-lane pass (skipped on a
    CPU without AVX-512F+VL)."""
    core = load_native_core()
    if spelling != "scalar" and core.LANES != spelling:
        pytest.skip(f"this CPU lacks {spelling} (avx512f + avx512vl)")
    suite = CryptoSuite.fast()
    prf = [
        (suite.prf.key, 16, (1234).to_bytes(8, "little")
         + count.to_bytes(12, "little") + bytes(4))
        for count in (2**40, 2**40 + 1)
    ]
    mac = (suite.mac.key, suite.mac.tag_bytes, bytes(20 + 64))
    lanes = {
        "prf-pair": prf,
        "write": prf + [mac],
        "read": [mac, mac],
        "victim": [mac] + prf,
    }[shape]
    benchmark.extra_info["calls_per_call"] = CALLS_PER_CALL
    benchmark(core._lanes, spelling, lanes, CALLS_PER_CALL)


def test_prf_reference_aes_throughput(benchmark):
    prf = CryptoSuite.reference().prf
    counter = iter(range(10**9))

    def one_call():
        prf.leaf_for(1234, next(counter), 24)

    benchmark(one_call)


def test_mac_sha3_throughput(benchmark):
    mac = CryptoSuite.reference().mac
    payload = bytes(64)
    counter = iter(range(10**9))

    def one_call():
        mac.block_tag(next(counter), 7, payload)

    benchmark(one_call)


def test_dram_path_model_throughput(benchmark):
    from repro.dram.model import DramModel

    model = DramModel(25, 320)
    rng = DeterministicRng(5)

    def one_path():
        model.path_access_cycles(rng.random_leaf(25))

    benchmark(one_path)
