"""§5.3: compressed PosMap geometry and the group-remap overhead.

Checks the concrete claims: how many counters 512-bit blocks with
alpha=64 and beta=14 pack (X', against X uncompressed leaves), and the
worst-case block-remap overhead X'/2^beta. Also measures the overhead
empirically by hammering a single block until its IC rolls over and
counting the extra Backend accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.backend.ops import Op
from repro.crypto.suite import CryptoSuite
from repro.eval.paper_values import report
from repro.frontend.formats import CompressedPosMapFormat, UncompressedPosMapFormat
from repro.frontend.unified import PlbFrontend
from repro.spec import get_spec
from repro.utils.rng import DeterministicRng


@dataclass
class CompressionFacts:
    """Geometry facts of §5.3."""

    uncompressed_fanout: int
    compressed_fanout: int
    worst_case_remap_overhead: float


def run(block_bytes: int = 64, alpha: int = 64, beta: int = 14) -> CompressionFacts:
    """Compute the §5.3 geometry for a block size."""
    crypto = CryptoSuite.fast()
    uncompressed = UncompressedPosMapFormat(block_bytes, levels=20)
    compressed = CompressedPosMapFormat(
        block_bytes, levels=20, prf=crypto.prf, alpha_bits=alpha, beta_bits=beta
    )
    return CompressionFacts(
        uncompressed_fanout=uncompressed.fanout,
        compressed_fanout=compressed.fanout,
        worst_case_remap_overhead=compressed.fanout / float(1 << beta),
    )


def measured_remap_overhead(beta: int = 4, accesses: int = 2000) -> float:
    """Extra Backend accesses per request under worst-case hammering.

    Uses a small beta so rollovers happen within the access budget; the
    overhead should track X'/2^beta for the scaled-down geometry too.
    """
    spec = get_spec("PC_X32").with_(
        num_blocks=2**10,
        compressed_beta=beta,
        compressed_fanout=32,  # hold X' at the paper's value
        onchip_entries=2**4,
        plb_capacity_bytes=8 * 1024,
    )
    frontend = PlbFrontend(spec, rng=DeterministicRng(3))
    target = 123
    frontend.access(target, Op.READ)  # warm the PLB path
    start_tree = frontend.stats.tree_accesses
    start_reloc = frontend.stats.group_relocations
    for _ in range(accesses):
        frontend.access(target, Op.READ)
    relocations = frontend.stats.group_relocations - start_reloc
    return relocations / accesses


def headline(facts: CompressionFacts) -> Dict[str, float]:
    """Both fan-outs, and the worst-case remap overhead in %."""
    return {
        "compression.fanout": facts.uncompressed_fanout,
        "compression.fanout_compressed": facts.compressed_fanout,
        "compression.remap_overhead": 100 * facts.worst_case_remap_overhead,
    }


def main() -> None:
    """Print §5.3 geometry and measured remap overhead."""
    print("§5.3 compressed PosMap:")
    report("compression", headline(run()))
    beta = 4
    measured = measured_remap_overhead(beta=beta)
    expected = (32 - 1) / float(1 << beta)  # X' held at 32 in the probe
    print(
        f"measured relocations/access at beta={beta}: {measured:.3f} "
        f"(expected ~{expected:.3f} under single-block hammering)"
    )


if __name__ == "__main__":
    main()
