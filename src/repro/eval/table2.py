"""Table 2: ORAM tree latency by DRAM channel count.

Parameters from Table 1: 4 GB Data ORAM (N = 2^26), 64-byte blocks, Z=4,
1.3 GHz core, DDR3-1333 channels. The paper measures 2147 / 1208 / 697 /
463 processor cycles at 1 / 2 / 4 / 8 channels, and 58 cycles for an
insecure DRAM access.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import OramConfig
from repro.dram.config import DramConfig
from repro.dram.model import DramModel
from repro.sim.store import cached_figure_table

#: Paper-reported cycles per channel count.
PAPER_LATENCY = {1: 2147, 2: 1208, 4: 697, 8: 463}
PAPER_INSECURE = 58


def run(
    num_blocks: int = 2**26,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    proc_ghz: float = 1.3,
    channel_counts: Tuple[int, ...] = (1, 2, 4, 8),
) -> Dict[int, float]:
    """ORAM tree latency (processor cycles) per channel count.

    Purely analytic, so the memoised table (:mod:`repro.sim.store`)
    is keyed by the closed-form model's parameters rather than simulation
    cell digests; ``REPRO_FORCE=1`` refreshes it.
    """
    cfg = OramConfig(
        num_blocks=num_blocks,
        block_bytes=block_bytes,
        blocks_per_bucket=blocks_per_bucket,
    )

    def build() -> Dict[int, float]:
        out: Dict[int, float] = {}
        for channels in channel_counts:
            model = DramModel(
                cfg.levels, cfg.bucket_bytes, DramConfig(channels=channels)
            )
            out[channels] = model.average_oram_latency_proc_cycles(proc_ghz)
        return out

    cell_keys = [
        f"num_blocks={num_blocks}",
        f"block_bytes={block_bytes}",
        f"blocks_per_bucket={blocks_per_bucket}",
        f"proc_ghz={proc_ghz!r}",
        f"channels={','.join(str(ch) for ch in channel_counts)}",
    ]
    return cached_figure_table("table2", None, cell_keys, build)


def insecure_latency(proc_ghz: float = 1.3) -> float:
    """Average insecure DRAM access latency in processor cycles."""
    cfg = OramConfig(num_blocks=2**26)
    model = DramModel(cfg.levels, cfg.bucket_bytes, DramConfig(channels=2))
    return model.insecure_access_cycles(proc_ghz)


def main() -> None:
    """Print measured vs paper latencies."""
    print("Table 2: ORAM access latency by DRAM channel count (proc cycles)")
    print(f"{'channels':>9} {'measured':>9} {'paper':>7}")
    for channels, cycles in run().items():
        print(f"{channels:>9} {cycles:>9.0f} {PAPER_LATENCY[channels]:>7}")
    print(
        f"insecure DRAM access: {insecure_latency():.0f} cycles "
        f"(paper: {PAPER_INSECURE})"
    )


if __name__ == "__main__":
    main()
