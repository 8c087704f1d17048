"""§6.3 bench: PMMAC vs Merkle hash bandwidth, analytic and measured."""

from conftest import run_once

from repro.eval import hashbw
from repro.settings import Settings


def test_hash_bandwidth_analytic(benchmark, check):
    factors = run_once(benchmark, hashbw.analytic, tuple(range(16, 33, 4)))
    check("hashbw", hashbw.headline(factors))


def test_hash_bandwidth_measured(benchmark):
    accesses = 600 if Settings.from_env().full else 200
    merkle, pmmac = run_once(
        benchmark, hashbw.measured, num_blocks=2**10, accesses=accesses
    )
    reduction = merkle / max(pmmac, 1)
    # The functional measurement includes sibling-tag bytes, so it lands
    # near (but above) the block-count analytic bound for this tree depth.
    assert reduction > 30
