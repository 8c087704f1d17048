"""Helpers more than one test file uses, outside the lockstep harness.

No test module imports another
(``tests/test_stdlib_only.py::test_no_test_module_imports_another``):
what two files share lives here or in ``tests/lockstep.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json

import pytest

from repro.proc.hierarchy import MissEvent, MissTrace
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.utils.rng import DeterministicRng

#: Stand-ins whose interpreted warm-up alone is seconds (working sets of
#: 6 MiB and up).
HEAVY = {"astar", "bzip2", "libq", "mcf", "omnet", "sjeng", "mcf+libq", "mcf@wss=8388608"}


def strip_wall(report):
    """A serve report without the fields that hold host wall time."""
    out = {k: v for k, v in report.items() if k != "wall_seconds"}
    out["tenants"] = [
        {k: v for k, v in tenant.items() if k != "wall_us"}
        for tenant in report["tenants"]
    ]
    return out


@contextlib.contextmanager
def counting_events():
    """Count :class:`MissEvent` constructions inside the block."""
    built = []
    init = MissEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MissEvent, "__init__", counted)
        yield built


def reference_leaf_for(key: bytes, address: int, count: int, num_levels: int,
                       subblock: int = 0) -> int:
    """The seed's leaf derivation: three to_bytes concatenations, no cache."""
    if num_levels <= 0:
        return 0
    message = (
        address.to_bytes(8, "little")
        + count.to_bytes(12, "little")
        + subblock.to_bytes(4, "little")
    )
    digest = hashlib.blake2b(message, key=key, digest_size=16).digest()
    return int.from_bytes(digest, "little") & ((1 << num_levels) - 1)


def cold_address(frontend):
    """A data address whose level-1 PosMap block is not PLB-resident:
    reading it walks the on-chip PosMap, derives leaves and refills."""
    resident = {entry.tagged_addr for entry in frontend.plb.entries()}
    fanout = frontend.space.fanout
    return next(
        addr for addr in range(0, frontend.num_blocks, fanout)
        if (1 << 48) | (addr // fanout) not in resident
    )


# ---------------------------------------------------------------------------
# Golden digests of every registered scheme
# ---------------------------------------------------------------------------


def result_digest(result) -> str:
    """SHA-256 of the canonical JSON image of a SimResult: every field,
    so the digest — like ``==`` — pins the simulated outcome."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def micro_trace(events: int = 2500, blocks: int = 2**12) -> MissTrace:
    rng = DeterministicRng(8)
    trace = MissTrace(
        name="micro", instructions=200_000, mem_refs=60_000,
        l1_hits=50_000, l2_hits=8_000,
    )
    trace.events = [
        MissEvent(rng.randrange(blocks), rng.random() < 0.3) for _ in range(events)
    ]
    return trace


TIMING = OramTimingModel(tree_latency_cycles=1000.0)

# Every registered scheme replays ``micro_trace()`` at 2^12 blocks with
# ``DeterministicRng(7)`` to a recorded digest. The values were produced
# when the constructors still took keyword arguments and the seed's
# preset construction (direct constructor calls with the factories'
# literal arguments) could be written without a spec; that construction
# and ``build_frontend`` agreed on all of them, so both doors — the
# constructor given a spec, and ``build_frontend`` — must land on them.

SCHEME_DIGESTS = {
    "R_X8": "310218586b8e0956ec9569bb682c90c234b3a358994ada121cca54d7c9ab9d26",
    "P_X16": "c20066ec02be27f88838e872fd12387215eef3aebd1de23f0e0b0b21b3f35519",
    "PC_X32": "eb51d4c9025a6fe306d403c125fc9327e14629704634b0dfdaa5fba94630a801",
    "PI_X8": "d8b282145909a709c7611483d88343a8e65a627f01eaa0f1873f2e5488a38044",
    "PIC_X32": "ce7ee2d7efd6f4ea3bd64657e7a523d05dea78684347ba7cb52a3dc48bdc3b28",
    "PC_X64": "d4248dde21200163b2ef35b5f77e904b5258addf5a2a89875a6d588d9844a5f9",
    "phantom_4kb": "a4a49665cb9e9331623a77455b8bb135082e7b14d56e92257d3d1ab0eaa7260e",
}


def golden_digest(frontend, scheme: str) -> str:
    return result_digest(replay_trace(frontend, micro_trace(), TIMING, scheme=scheme))
