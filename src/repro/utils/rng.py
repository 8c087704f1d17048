"""Deterministic random-number generation.

Every stochastic component (leaf remapping, workload generation, DRAM
interleaving) draws from a :class:`DeterministicRng` so that simulations are
reproducible bit-for-bit given a seed. The class wraps :class:`random.Random`
and adds the few draws the ORAM layer needs.
"""

from __future__ import annotations

import random
from array import array


class DeterministicRng:
    """Seeded RNG with helpers for leaf labels and geometric gaps."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.seed = seed
        # Bound-method fast path: leaf remapping calls this once per ORAM
        # access, so skip the extra attribute hop through self._rng.
        self._getrandbits = self._rng.getrandbits

    def random_leaf(self, num_levels: int) -> int:
        """Uniform leaf label in [0, 2**num_levels)."""
        return self._getrandbits(num_levels) if num_levels > 0 else 0

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._rng.randint(lo, hi)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def getrandbits(self, k: int) -> int:
        """Uniform ``k``-bit integer."""
        return self._getrandbits(k) if k > 0 else 0

    def random_bytes(self, n: int) -> bytes:
        """``n`` uniformly random bytes."""
        return self._rng.getrandbits(8 * n).to_bytes(n, "little") if n else b""

    def choice(self, seq):
        """Uniform choice from a non-empty sequence."""
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(seq)

    def zipf(self, n: int, alpha: float) -> int:
        """Approximate Zipf(alpha) draw over [0, n) via inverse CDF sampling.

        Uses the standard power-law inversion which is accurate enough for
        workload-locality modelling (we only need a heavy-tailed rank
        distribution, not an exact Zipf).
        """
        if n <= 1:
            return 0
        u = self._rng.random()
        # Inverse of the continuous approximation of the Zipf CDF.
        if alpha == 1.0:
            rank = int(n ** u) - 1
        else:
            one = 1.0 - alpha
            rank = int(((n ** one - 1.0) * u + 1.0) ** (1.0 / one)) - 1
        return min(max(rank, 0), n - 1)

    def mt_state(self) -> array:
        """The generator's MT19937 state — 624 words, then the index — as
        the uint32 block the native trace-synthesis kernel resumes from."""
        return array("I", self._rng.getstate()[1])

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent child stream (stable across runs)."""
        return DeterministicRng((self.seed * 0x9E3779B97F4A7C15 + salt) & (2**63 - 1))
