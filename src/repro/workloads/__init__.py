"""Workload generation: SPEC06-int stand-ins and synthetic patterns.

The paper drives its simulations with SPEC06-int reference traces. Those
traces are proprietary, so this package substitutes parameterised
synthetic generators that span the same locality spectrum (see
:mod:`repro.workloads.spec`): streaming, strided, Zipf-hot-set,
pointer-chasing, and mixtures thereof, one tuned stand-in per named
benchmark.
"""

from repro.workloads.spec import (
    MULTI_TENANT_MIXES,
    SPEC_BENCHMARKS,
    SpecStandIn,
    benchmark,
    benchmark_names,
    interleaved_name,
)
from repro.workloads.synthetic import (
    Pattern,
    hot_cold,
    pointer_chase,
    sequential_stream,
    strided_stream,
    uniform_random,
    zipf_random,
)

__all__ = [
    "MULTI_TENANT_MIXES",
    "Pattern",
    "SPEC_BENCHMARKS",
    "SpecStandIn",
    "benchmark",
    "benchmark_names",
    "interleaved_name",
    "sequential_stream",
    "strided_stream",
    "uniform_random",
    "zipf_random",
    "pointer_chase",
    "hot_cold",
]
