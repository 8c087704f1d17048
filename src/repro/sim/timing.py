"""Per-access ORAM latency composition.

One processor request costs (§7.1.1):

    frontend_latency                 (PLB evict/refill pipeline, once)
  + n_tree x (tree_latency + backend_latency)
  + sha3_latency if PMMAC           (verify the block of interest)

where ``n_tree`` is the number of Backend path accesses the Frontend
issued (1 on a full PLB hit; up to H on a complete miss; plus group-remap
relocations) and ``tree_latency`` is the DRAM time to read and write one
path of the Unified (or per-level) tree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import FrontendTimings, OramConfig
from repro.dram.config import DramConfig
from repro.dram.model import DramModel


@functools.lru_cache(maxsize=256)
def tree_latency_cycles(
    levels: int,
    bucket_bytes: int,
    dram_config: Optional[DramConfig],
    proc_ghz: float,
) -> float:
    """Expected processor cycles for one tree access of this geometry.

    A pure function of its (hashable) arguments — a fresh
    :class:`DramModel` per miss, so no open-row state outlives the call —
    and a sweep revisits a handful of geometries, so it is memoised.
    """
    model = DramModel(levels, bucket_bytes, dram_config)
    return model.average_oram_latency_proc_cycles(proc_ghz)


@dataclass
class OramTimingModel:
    """Latency calculator for one ORAM configuration."""

    tree_latency_cycles: float
    timings: FrontendTimings = FrontendTimings()
    pmmac: bool = False

    @classmethod
    def for_config(
        cls,
        oram_config: OramConfig,
        dram_config: Optional[DramConfig] = None,
        proc_ghz: float = 1.3,
        pmmac: bool = False,
        timings: FrontendTimings = FrontendTimings(),
    ) -> "OramTimingModel":
        """Derive the expected tree latency from the DRAM model."""
        return cls(
            tree_latency_cycles=tree_latency_cycles(
                oram_config.levels, oram_config.bucket_bytes, dram_config, proc_ghz
            ),
            timings=timings,
            pmmac=pmmac,
        )

    @classmethod
    def for_recursive(
        cls,
        configs: Sequence[OramConfig],
        dram_config: Optional[DramConfig] = None,
        proc_ghz: float = 1.3,
        timings: FrontendTimings = FrontendTimings(),
    ) -> "OramTimingModel":
        """Average per-tree latency for a multi-tree Recursive ORAM.

        Each level has its own (smaller) tree; the replay engine only
        reports a total tree-access count, so we weight levels equally —
        a Recursive access touches every level exactly once.
        """
        total = 0.0
        for cfg in configs:
            total += tree_latency_cycles(
                cfg.levels, cfg.bucket_bytes, dram_config, proc_ghz
            )
        return cls(
            tree_latency_cycles=total / len(configs),
            timings=timings,
            pmmac=False,
        )

    def __setattr__(self, name, value) -> None:
        # ``latency_table[n]`` is ``miss_latency(n)`` for every count a
        # replay met (None for one it has not): both tiers' replay loops
        # look each event up there and fill a count they miss, once. It
        # is a function of the fields, so binding one starts it afresh.
        object.__setattr__(self, name, value)
        if name != "latency_table":
            object.__setattr__(self, "latency_table", [])

    def miss_latency(self, tree_accesses: int) -> float:
        """Processor cycles to service one LLC miss/eviction, a float
        whatever the fields' types: simulated time is floats (both tiers'
        replay loops refuse any other latency), and ``cycles + float(x)``
        is ``cycles + x`` for an int ``x``."""
        t = self.timings
        latency = t.frontend_latency + tree_accesses * (
            self.tree_latency_cycles + t.backend_latency
        )
        if self.pmmac:
            latency += t.sha3_latency
        return float(latency)

    def latency(self, tree_accesses: int) -> float:
        """:meth:`miss_latency` through :attr:`latency_table`: what the
        reference tier's replay loop reads per event (the fast tier's C
        loop reads and fills the same list, and refuses the same
        latencies: an entry or a result that is not a float is a
        ``TypeError``, and such a result is not stored)."""
        table = self.latency_table
        if tree_accesses < 0:
            raise ValueError(f"tree_accesses must be >= 0, got {tree_accesses}")
        if tree_accesses < len(table):
            latency = table[tree_accesses]
            if type(latency) is float:
                return latency
            if latency is not None:
                raise _not_a_float(latency, tree_accesses)
        latency = self.miss_latency(tree_accesses)
        if type(latency) is not float:
            raise _not_a_float(latency, tree_accesses)
        table.extend([None] * (tree_accesses + 1 - len(table)))
        table[tree_accesses] = latency
        return latency


def _not_a_float(latency, tree_accesses: int) -> TypeError:
    return TypeError(
        f"the latency of {tree_accesses} tree accesses must be a float, "
        f"not {type(latency).__name__}"
    )


def timing_for_frontend(
    frontend,
    dram: Optional[DramConfig] = None,
    proc_ghz: float = 1.3,
) -> OramTimingModel:
    """Timing model matched to a frontend's tree geometry.

    One shared resolver for every frontend kind: multi-tree Recursive
    frontends (``configs``) get the averaged per-level model, everything
    else the single-tree model with PMMAC latency when the frontend
    verifies (``PlbFrontend.pmmac``). Both the experiment runner and the
    serving layer derive their timing here, so a served shard prices an
    access exactly like the replay harness does.
    """
    from repro.frontend.recursive import RecursiveFrontend
    from repro.frontend.unified import PlbFrontend

    if isinstance(frontend, RecursiveFrontend):
        return OramTimingModel.for_recursive(frontend.configs, dram, proc_ghz)
    return OramTimingModel.for_config(
        frontend.config,
        dram,
        proc_ghz,
        pmmac=frontend.pmmac if isinstance(frontend, PlbFrontend) else False,
    )
