"""Small statistics helpers shared by the simulator and the benches.

The paper reports geometric-mean speedups across SPEC benchmarks and
averages of per-access quantities; these helpers implement exactly those
aggregations plus a streaming mean/max tracker used by the stash monitor.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's cross-benchmark average)."""
    vals = list(values)
    if not vals:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geometric_mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def histogram(values: Sequence[int]) -> Dict[int, int]:
    """Exact integer histogram as a dict value -> count."""
    out: Dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def chi_square_uniform(counts: Sequence[int]) -> Tuple[float, int]:
    """Chi-square statistic and dof against a uniform expectation.

    Used by the privacy tests to check that backend leaf sequences are
    indistinguishable from uniform draws.
    """
    k = len(counts)
    if k < 2:
        raise ValueError("need at least two bins")
    total = sum(counts)
    if total == 0:
        raise ValueError("empty histogram")
    expected = total / k
    stat = sum((c - expected) ** 2 / expected for c in counts)
    return stat, k - 1


class LedgerSlot:
    """A counter stored as slot ``index`` of its owner's ``ledger``.

    Owners whose counters the native kernels move keep them in one
    fixed-size typed column (``ledger``, an ``array('q')``) that the
    kernels bind once and count in place; this descriptor reads and
    writes a slot under the counter's attribute name, so both tiers and
    every reader share the one copy.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __get__(self, owner, cls=None):
        return self if owner is None else owner.ledger[self.index]

    def __set__(self, owner, value) -> None:
        owner.ledger[self.index] = value


class RunningStats:
    """Streaming count/mean/max/min tracker (Welford variance)."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.max = float("-inf")
        self.min = float("inf")

    def add(self, x: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        if x > self.max:
            self.max = x
        if x < self.min:
            self.min = x

    @property
    def variance(self) -> float:
        """Sample variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def as_dict(self) -> Dict[str, float]:
        """Summary as a plain dict for reporting."""
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


def normalize(values: Sequence[float], reference: float) -> List[float]:
    """Divide every value by ``reference`` (figure normalisation helper)."""
    if reference == 0:
        raise ValueError("reference must be non-zero")
    return [v / reference for v in values]
