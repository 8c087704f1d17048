"""Subtree address layout ([26] §ORAM-to-DRAM mapping).

A naive level-major layout makes every bucket on a path hit a different
DRAM row, paying a row activation per bucket. The subtree layout instead
groups each k-level subtree (2^k - 1 buckets) into one DRAM row, so a
path of L+1 buckets touches only ceil((L+1)/k) rows. Subtrees are
interleaved across channels and banks so path reads exploit all channels;
this is how the paper's configurations approach peak DRAM bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dram.config import DramConfig


@dataclass(frozen=True)
class BucketLocation:
    """Physical coordinates of one bucket."""

    channel: int
    bank: int
    row: int
    row_offset_bytes: int


class SubtreeLayout:
    """Maps (tree level, leaf path) bucket coordinates to DRAM locations."""

    def __init__(self, levels: int, bucket_bytes: int, dram: DramConfig):
        if bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")
        self.levels = levels
        self.bucket_bytes = bucket_bytes
        self.dram = dram
        buckets_per_row = max(dram.row_bytes // bucket_bytes, 1)
        # Largest k with 2^k - 1 buckets fitting in a row.
        k = 1
        while (1 << (k + 1)) - 1 <= buckets_per_row:
            k += 1
        self.subtree_levels = k
        # A path a k-level layer at a time: per layer, the shift that
        # takes a leaf to its subtree root's position and the layer's
        # first subtree id; and how many of the path's buckets it holds.
        self._layers: List[Tuple[int, int]] = []
        self._layer_buckets: List[int] = []
        base = 0
        for first in range(0, levels + 1, k):
            self._layers.append((levels - first, base))
            self._layer_buckets.append(min(k, levels + 1 - first))
            base += 1 << first
        self._row_ids = dram.banks_per_channel * dram.rows_per_bank

    def subtree_of(self, level: int, leaf: int) -> Tuple[int, int]:
        """(subtree_id, index_within_subtree) for the bucket at
        ``level`` on the path to ``leaf``."""
        if not 0 <= level <= self.levels:
            raise ValueError("level out of range")
        # The bucket's heap coordinates: depth = level, horizontal position
        # = leaf >> (levels - level).
        position = leaf >> (self.levels - level)
        chunk = level // self.subtree_levels  # which k-level layer
        depth_in_subtree = level - chunk * self.subtree_levels
        # Subtree root position at this layer:
        root_position = position >> depth_in_subtree
        # Unique id: concatenate layer and root position. Layer strides are
        # sized by the number of subtree roots above this layer.
        subtree_id = self._layer_base(chunk) + root_position
        index_in_subtree = ((1 << depth_in_subtree) - 1) + (
            position & ((1 << depth_in_subtree) - 1)
        )
        return subtree_id, index_in_subtree

    def _layer_base(self, chunk: int) -> int:
        base = 0
        for c in range(chunk):
            base += 1 << (c * self.subtree_levels)
        return base

    def locate(self, level: int, leaf: int) -> BucketLocation:
        """Physical DRAM location of a bucket."""
        subtree_id, index = self.subtree_of(level, leaf)
        dram = self.dram
        channel = subtree_id % dram.channels
        bank = (subtree_id // dram.channels) % dram.banks_per_channel
        row = (subtree_id // (dram.channels * dram.banks_per_channel)) % (
            dram.rows_per_bank
        )
        return BucketLocation(
            channel=channel,
            bank=bank,
            row=row,
            row_offset_bytes=index * self.bucket_bytes,
        )

    def path_rows(self, leaf: int) -> List[int]:
        """The row each k-level layer of the path to ``leaf`` lands in, in
        path order, as its id among every bank's rows:
        ``row * banks_per_channel + bank``, so that ``id %
        banks_per_channel`` is its bank. The k levels of one layer share
        the subtree rooted at the layer's first level; subtrees
        interleave over banks, then rows. Layers that alias onto one row
        repeat its id."""
        row_ids = self._row_ids
        return [(base + (leaf >> shift)) % row_ids for shift, base in self._layers]

    def path_row_groups(self, leaf: int) -> List[Tuple[int, int, int]]:
        """Rows touched by the path, as (bank, row, bucket_count) groups.

        Commodity controllers interleave addresses across channels at
        cache-line granularity, so one logical row group occupies the same
        (bank, row) coordinates on *every* channel and its bursts spread
        evenly over them. Grouping is by subtree, the unit the layout
        packs per row.
        """
        banks = self.dram.banks_per_channel
        # The dict keeps rows in first-appearance order and merges layers
        # that alias onto one row.
        counts: Dict[int, int] = {}
        for row_id, count in zip(self.path_rows(leaf), self._layer_buckets):
            counts[row_id] = counts.get(row_id, 0) + count
        return [(row_id % banks, row_id // banks, count) for row_id, count in counts.items()]
