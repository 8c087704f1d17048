"""Distributed sweep fabric: coordinator + work-stealing workers.

``repro.fabric`` is the one parallel executor: it turns
:func:`~repro.sim.sweep.run_sweep` into a multi-process (and multi-node,
over TCP) operation without changing a byte of its output. Local workers
are forked over socketpairs; remote ones dial in. The pieces:

- :mod:`~repro.fabric.protocol` — length-prefixed JSON framing with
  ``fabric.rpc`` fault-injection on every edge;
- :mod:`~repro.fabric.store` — the content-addressed shared trace/result
  store (the existing canonical-digest caches, shared by construction);
- :mod:`~repro.fabric.worker` — the lease-execute-stream worker loop, in
  a forked local process or dialled in
  (``python -m repro fabric serve-worker --connect HOST:PORT``);
- :mod:`~repro.fabric.coordinator` — sharding, work-stealing, heartbeat
  and cell-timeout liveness, dead-worker reclaim, and the
  :class:`~repro.fabric.coordinator.FabricExecutor` adapter
  ``run_sweep(..., executor=...)`` plugs in. With ``workers > 1``,
  :meth:`~repro.sim.runner.SimulationRunner.execute` runs one
  coordinator per call (``python -m repro --workers N sweep``);
  ``sweep --connect HOST:PORT`` runs one for the whole sweep, which
  workers attach to.

Determinism contract: a fabric run's report is bit-identical to the
serial local run — cells are content-addressed, results derive only
from the runner seed, and the report is assembled in grid order — and
an interrupted fabric run is finished, like a local one, by running
it again: the cells its workers stored come back from the result store.
"""

from repro.fabric.coordinator import FabricCoordinator, FabricExecutor
from repro.fabric.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    parse_address,
    recv_message,
    send_message,
)
from repro.fabric.store import SharedStore
from repro.fabric.worker import (
    FabricWorker,
    runner_from_wire,
    runner_to_wire,
    serve_worker,
)

__all__ = [
    "FabricCoordinator",
    "FabricExecutor",
    "FabricWorker",
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "SharedStore",
    "parse_address",
    "recv_message",
    "runner_from_wire",
    "runner_to_wire",
    "send_message",
    "serve_worker",
]
