"""ORAM-as-a-service: the concurrent multi-tenant serving layer.

Builds on the same :class:`~repro.sim.engine.ReplayEngine` core as the
offline replay kernels, so served traffic is bit-identical to replayed
traffic (the property ``tests/test_serve_lockstep.py`` pins). See
:mod:`repro.serve.server` for the scheduling model.
"""

from repro.serve.server import (
    POLICIES,
    OramService,
    OramShard,
    ServeConfig,
    serve_replay_equivalent,
)
from repro.serve.stats import (
    LatencyHistogram,
    ShardStats,
    TenantStats,
    serve_table,
)
from repro.serve.workload import (
    TenantSpec,
    tenant_region_blocks,
    tenant_requests,
    tenants_for,
)

__all__ = [
    "POLICIES",
    "OramService",
    "OramShard",
    "ServeConfig",
    "serve_replay_equivalent",
    "LatencyHistogram",
    "ShardStats",
    "TenantStats",
    "serve_table",
    "TenantSpec",
    "tenant_region_blocks",
    "tenant_requests",
    "tenants_for",
]
