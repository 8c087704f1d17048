"""Table 2: ORAM tree latency by DRAM channel count.

Parameters from Table 1: 4 GB Data ORAM (N = 2^26), 64-byte blocks, Z=4,
1.3 GHz core, DDR3-1333 channels; also the latency of an insecure DRAM
access.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.config import OramConfig
from repro.dram.config import DramConfig
from repro.dram.model import DramModel
from repro.eval.paper_values import report


def run(
    num_blocks: int = 2**26,
    block_bytes: int = 64,
    blocks_per_bucket: int = 4,
    proc_ghz: float = 1.3,
    channel_counts: Tuple[int, ...] = (1, 2, 4, 8),
) -> Dict[int, float]:
    """ORAM tree latency (processor cycles) per channel count."""
    cfg = OramConfig(
        num_blocks=num_blocks,
        block_bytes=block_bytes,
        blocks_per_bucket=blocks_per_bucket,
    )
    out: Dict[int, float] = {}
    for channels in channel_counts:
        model = DramModel(cfg.levels, cfg.bucket_bytes, DramConfig(channels=channels))
        out[channels] = model.average_oram_latency_proc_cycles(proc_ghz)
    return out


def headline(latencies: Dict[int, float]) -> Dict[str, float]:
    """Latency per channel count, and of an insecure access, in cycles."""
    ours = {f"table2.latency.{ch}ch": cycles for ch, cycles in latencies.items()}
    cfg = OramConfig(num_blocks=2**26)
    insecure = DramModel(cfg.levels, cfg.bucket_bytes, DramConfig(channels=2))
    ours["table2.insecure"] = insecure.insecure_access_cycles(1.3)
    return ours


def main() -> None:
    """Print the latencies beside the paper's."""
    print("Table 2: ORAM access latency by DRAM channel count (proc cycles)")
    report("table2", headline(run()))


if __name__ == "__main__":
    main()
