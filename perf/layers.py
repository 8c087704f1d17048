"""Span tracing from outside the program: shims around calls into layers.

No file under ``src/`` is edited. ``Tracer.wrap`` turns a bound method
into one that records a span ``(name, start, end, parent, rep)`` and the
``install_*`` helpers hang those wrappers on the *instances* a workload
built, at the layer boundaries the ROADMAP names. Spans inside the
program (a telemetry registry) are ROADMAP item 1; until then this is
where per-layer host time comes from.

A layer's self time is its spans' duration minus the part their child
spans cover. Wrapper overhead lands in the parent's self time, so a
traced run is slower than an untraced one and over-weights layers with
many children; ``trace.overhead_ratio`` reports by how much.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

#: Span names double as the per-layer metric prefixes of BENCHMARK.json.
ROOT = "perf.slice"
ENGINE = "sim.engine"
TRANSLATE = "sim.replay.translate"
FRONTEND = "frontend.access"
PLB = "frontend.plb"
FORMATS = "frontend.formats"
POSMAP = "frontend.posmap"
PRF = "crypto.prf"
MAC = "crypto.mac"
BACKEND = "backend.access"
PATH_IO = "storage.path_io"
NATIVE_LOOP = "sim.native.access_loop"
NATIVE_DRAIN = "sim.native.drain"
NATIVE_EVICT = "sim.native.evict"

#: Layers reported as ``<name>.self_us`` / ``.calls_per_event`` / ``.share``.
LAYERS = (
    ENGINE, TRANSLATE, FRONTEND, PLB, FORMATS, POSMAP, PRF, MAC,
    BACKEND, PATH_IO, NATIVE_LOOP, NATIVE_DRAIN, NATIVE_EVICT,
)


class Tracer:
    """In-memory span log; written out once, when the run ends."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, rep]`` per span.
        self.spans: List[list] = []
        self.rep = 0
        self._stack: List[int] = []
        self.stash_peak = 0

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.rep])
            stack.append(index)
            span = spans[index]
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def self_times(self) -> List[float]:
        """Self time of every span, by span index."""
        spans = self.spans
        self_s = [span[2] - span[1] for span in spans]
        for span in spans:
            if span[3] >= 0:
                self_s[span[3]] -= span[2] - span[1]
        return self_s

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"self_s", "total_s", "calls"}}`` summed over spans."""
        out: Dict[str, Dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(
                span[0], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            row["self_s"] += self_s
            row["total_s"] += span[2] - span[1]
            row["calls"] += 1
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rep in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "rep": rep}
                ) + "\n")


class NativeProxy:
    """The compiled core with spans around its three loops.

    Handed to the public ``ReplayEngine.enable_native``, which passes it
    on to every backend's ``enable_native_kernel``; the remaining entry
    points go through untraced.
    """

    def __init__(self, core, tracer: Tracer):
        self.translate_block_addrs = core.translate_block_addrs
        self.accumulate = core.accumulate
        self.run_access_loop = tracer.wrap(NATIVE_LOOP, core.run_access_loop)
        self.drain_scalar = tracer.wrap(NATIVE_DRAIN, core.drain_scalar)
        self.place_greedy = tracer.wrap(NATIVE_EVICT, core.place_greedy)


def install_frontend(tracer: Tracer, frontend) -> None:
    """Shim one PLB frontend and everything it calls into."""
    frontend.access = tracer.wrap(FRONTEND, frontend.access)
    plb = frontend.plb
    plb.lookup = tracer.wrap(PLB, plb.lookup)
    plb.insert = tracer.wrap(PLB, plb.insert)
    frontend.format.remap = tracer.wrap(FORMATS, frontend.format.remap)
    posmap = frontend.posmap
    posmap.lookup_and_remap = tracer.wrap(POSMAP, posmap.lookup_and_remap)
    prf = frontend.crypto.prf
    prf.leaf_for = tracer.wrap(PRF, prf.leaf_for)
    prf.leaf_for_many = tracer.wrap(PRF, prf.leaf_for_many)
    mac = frontend.crypto.mac
    mac.tag = tracer.wrap(MAC, mac.tag)

    backend = frontend.backend
    access = tracer.wrap(BACKEND, backend.access)
    occupancy = backend.stash_occupancy

    def access_and_sample(*args, **kwargs):
        try:
            return access(*args, **kwargs)
        finally:
            depth = occupancy()
            if depth > tracer.stash_peak:
                tracer.stash_peak = depth

    backend.access = access_and_sample
    storage = backend.storage
    storage.read_path_slots = tracer.wrap(PATH_IO, storage.read_path_slots)
    storage.write_path_slots = tracer.wrap(PATH_IO, storage.write_path_slots)
    if hasattr(backend, "_read_path_slots"):
        # The columnar backend binds this method at construction; it is
        # the one private name the shims have to touch.
        backend._read_path_slots = storage.read_path_slots


def install_engine(tracer: Tracer, engine, core=None) -> None:
    """Shim a ``ReplayEngine`` (and route its C calls through spans)."""
    engine.run_trace = tracer.wrap(ENGINE, engine.run_trace)
    engine.translate = tracer.wrap(TRANSLATE, engine.translate)
    if core is not None:
        engine.enable_native(NativeProxy(core, tracer))
