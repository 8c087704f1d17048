"""§6.3: hash bandwidth — PMMAC vs the Merkle baseline.

Two views of the same claim:

- *analytic*: PMMAC verifies 1 block per access vs Z*(L+1) for Merkle
  path verification (Z=4);
- *measured*: run both schemes functionally and count bytes through the
  hash unit via the Mac's instrumentation.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analytic.hashbw import hash_reduction_factor
from repro.backend.ops import Op
from repro.crypto.suite import CryptoSuite
from repro.eval.paper_values import report
from repro.frontend.linear import LinearFrontend
from repro.integrity.adapter import MerkleVerifiedStorage
from repro.presets import build_frontend
from repro.spec import SchemeSpec
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng


def analytic(levels_range: Tuple[int, ...] = (16, 24, 32)) -> Dict[int, float]:
    """Reduction factor per tree depth."""
    return {levels: hash_reduction_factor(levels) for levels in levels_range}


def measured(num_blocks: int = 2**10, accesses: int = 300) -> Tuple[int, int]:
    """(merkle_bytes, pmmac_bytes) hashed over the same access count.

    The Merkle side drives a LinearFrontend and verifies/updates every
    path; the PMMAC side runs the PIC_X32 frontend with its built-in
    integrity. Byte counts come from each scheme's Mac instrumentation.
    """
    # Merkle baseline: verified storage under an unmodified Frontend.
    suite = CryptoSuite.fast(b"merkle-side")
    frontend = LinearFrontend(
        SchemeSpec(frontend="linear", num_blocks=num_blocks),
        rng=DeterministicRng(11),
        storage_factory=lambda config, _observer: MerkleVerifiedStorage(
            TreeStorage(config), suite.mac
        ),
    )
    workload = DeterministicRng(5)
    for _ in range(accesses):
        frontend.access(workload.randrange(num_blocks), Op.READ)
    merkle_bytes = suite.mac.bytes_hashed

    # PMMAC side.
    pic = build_frontend("PIC_X32", num_blocks=num_blocks, rng=DeterministicRng(11))
    pic.crypto.mac.reset_counters()
    workload = DeterministicRng(5)
    for _ in range(accesses):
        pic.access(workload.randrange(num_blocks), Op.READ)
    pmmac_bytes = pic.crypto.mac.bytes_hashed
    return merkle_bytes, pmmac_bytes


def headline(factors: Dict[int, float]) -> Dict[str, float]:
    """The analytic reduction factor per tree depth."""
    return {f"hashbw.reduction.L{levels}": factor for levels, factor in factors.items()}


def main() -> None:
    """Print analytic factors and a measured confirmation."""
    print("§6.3 hash bandwidth: PMMAC vs Merkle path verification (Z=4)")
    report("hashbw", headline(analytic()))
    merkle, pmmac = measured()
    print(
        f"measured bytes hashed over identical accesses: Merkle {merkle}, "
        f"PMMAC {pmmac} -> {merkle / max(pmmac, 1):.0f}x"
    )


if __name__ == "__main__":
    main()
