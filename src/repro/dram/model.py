"""Channel/bank timing model for whole-path ORAM accesses.

The model captures the two effects that dominate ORAM path latency on
commodity DRAM:

- *bus serialisation*: each channel moves at most one 64-byte burst per
  ``burst_cycles``; a path read of (L+1) x bucket_bytes is bandwidth-bound
  when buckets spread evenly over channels and suffers when they collide
  (the "channel conflicts" behind Table 2's sub-linear scaling);
- *row activations*: grouped by the subtree layout; consecutive bursts to
  an open row pay only CAS + burst, a closed row pays precharge +
  activate first. Activations on distinct banks overlap with transfers.

``path_access_cycles`` returns DRAM cycles for one full path read or
write; an ORAM access is one read plus one write-back of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.config import DramConfig
from repro.dram.layout import SubtreeLayout
from repro.utils.rng import DeterministicRng


@dataclass
class PathAccessStats:
    """Decomposition of one path access."""

    dram_cycles: float
    bursts: int
    row_hits: int
    row_misses: int


class DramModel:
    """Stateful open-row DRAM model for one ORAM tree."""

    def __init__(self, levels: int, bucket_bytes: int, config: Optional[DramConfig] = None):
        self.config = config if config is not None else DramConfig()
        self.layout = SubtreeLayout(levels, bucket_bytes, self.config)
        self.levels = levels
        self.bucket_bytes = bucket_bytes
        # Open row per bank (mirrored across channels by interleaving), as
        # the row id SubtreeLayout.path_rows gives.
        self._open_rows: Dict[int, int] = {}
        self.total_cycles = 0.0
        self.total_accesses = 0
        # Every path moves (L+1) buckets: its transfer time is a constant.
        cfg = self.config
        per_channel_bursts = -(-(levels + 1) * self._bursts_per_bucket() // cfg.channels)
        self._transfer_cycles = per_channel_bursts * cfg.burst_cycles
        # A row group's first miss is exposed whole; a later one overlaps
        # the transfers on other banks and exposes a quarter of tRP.
        self._miss_stalls = (float(cfg.t_rp + cfg.t_rcd + cfg.t_cas), cfg.t_rp * 0.25)

    def _bursts_per_bucket(self) -> int:
        return -(-self.bucket_bytes // self.config.burst_bytes)

    def _read_rows(self, leaf: int) -> Tuple[float, int, int]:
        """(cycles, row hits, row misses) of one path access to ``leaf``,
        the open rows moved: the row groups of
        :meth:`SubtreeLayout.path_row_groups`, in its order, with no
        object built per group (a layer aliasing an earlier one's row
        joins that group, and only the bursts count it)."""
        banks = self.config.banks_per_channel
        exposed, overlapped = self._miss_stalls
        open_rows = self._open_rows
        open_row = open_rows.get
        seen = []
        row_hits = 0
        row_misses = 0
        stall = 0.0
        for row in self.layout.path_rows(leaf):
            if row in seen:
                continue
            seen.append(row)
            bank = row % banks
            if open_row(bank) == row:
                row_hits += 1
            else:
                row_misses += 1
                if stall == 0.0:
                    stall = exposed
                else:
                    stall += overlapped
            open_rows[bank] = row
        return stall + self._transfer_cycles, row_hits, row_misses

    def path_access_cycles(self, leaf: int) -> PathAccessStats:
        """DRAM cycles for one path read (or write) to ``leaf``.

        Bursts interleave over channels at cache-line granularity (the
        standard controller mapping), so transfer time is the per-channel
        share of the path's bursts. Row activations are per row group
        (subtree): the first miss is fully exposed, later misses overlap
        with transfers on other banks and expose only a fraction of tRP.
        """
        cycles, row_hits, row_misses = self._read_rows(leaf)
        self.total_cycles += cycles
        self.total_accesses += 1
        return PathAccessStats(
            dram_cycles=cycles,
            bursts=(self.levels + 1) * self._bursts_per_bucket(),
            row_hits=row_hits,
            row_misses=row_misses,
        )

    def oram_access_cycles(self, leaf: int) -> float:
        """DRAM cycles for a full ORAM tree access (path read + write)."""
        read = self.path_access_cycles(leaf)
        write = self.path_access_cycles(leaf)
        return read.dram_cycles + write.dram_cycles

    def average_path_cycles(self, samples: int = 256, seed: int = 12345) -> float:
        """Monte-Carlo average DRAM cycles over uniform leaves.

        Used by the timing model to turn the per-leaf distribution into a
        single expected path latency (the paper reports averages over
        multiple accesses the same way, Table 2).
        """
        random_leaf = DeterministicRng(seed).random_leaf
        read_rows = self._read_rows
        total = 0.0
        spent = self.total_cycles
        for _ in range(samples):
            cycles = read_rows(random_leaf(self.levels))[0]
            spent += cycles
            total += cycles
        self.total_cycles = spent
        self.total_accesses += samples
        return total / samples

    def average_oram_latency_proc_cycles(
        self, proc_ghz: float, samples: int = 256, seed: int = 12345
    ) -> float:
        """Expected processor cycles for path read + write-back."""
        per_path = self.average_path_cycles(samples=samples, seed=seed)
        return self.config.dram_to_proc_cycles(2.0 * per_path, proc_ghz)

    def insecure_access_cycles(self, proc_ghz: float, row_hit_fraction: float = 0.2) -> float:
        """Processor cycles for one 64-byte access without ORAM.

        A conventional LLC-miss stream has poor row locality; with a 20%
        row-hit rate the expected latency matches the paper's average
        insecure DRAM access (§7.1.2; the table2.insecure row of
        repro.eval.paper_values).
        """
        cfg = self.config
        hit = cfg.t_cas + cfg.burst_cycles
        miss = cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.burst_cycles
        dram_cycles = row_hit_fraction * hit + (1 - row_hit_fraction) * miss
        return cfg.dram_to_proc_cycles(dram_cycles, proc_ghz)
