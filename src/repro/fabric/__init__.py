"""Sweep fabric: cells run on a pool of forked workers, one cell each at a time.

``repro.fabric`` is the one parallel executor: it turns
:func:`~repro.sim.sweep.run_sweep` into a multi-process operation
without changing a byte of its output (:mod:`~repro.fabric.coordinator`).
With ``workers > 1``, :meth:`~repro.sim.runner.SimulationRunner.execute`
runs its cold scheme cells on one coordinator per call, so
``run_sweep(..., workers=N)`` and ``python -m repro --workers N sweep``
are the fabric; ``run_sweep(..., executor=FabricExecutor(coordinator))``
runs a sweep's calls on one started coordinator instead. A forked worker
replays with the caller's runner and that runner's own trace and result
stores, so a fabric run's report is bit-identical to the serial one and
an interrupted run is finished, like a local one, by running it again.
"""

from repro.fabric.coordinator import FabricCoordinator, FabricExecutor

__all__ = ["FabricCoordinator", "FabricExecutor"]
