"""SPEC06-int stand-in benchmarks.

Each stand-in is a weighted mixture of the synthetic primitives tuned to
the qualitative memory behaviour of the named SPEC benchmark (working-set
size, access-pattern mix, write share, memory intensity). The tuning
targets the *locality class*, which is what determines PLB hit rates and
LLC miss rates — the quantities the paper's figures depend on — not the
benchmark's semantics. Absolute MPKI values are approximate; the
simulation harness reports the measured values alongside every result.

Working sets are scaled for simulation tractability but ordered and
proportioned like the originals relative to the 1 MB L2: h264/hmmer fit
comfortably, gcc/perl/sjeng/gobmk spill moderately, astar/bzip2/libq
stream through several MB, and mcf/omnetpp sweep working sets far larger
than any cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.utils.rng import DeterministicRng
from repro.workloads.synthetic import Pattern


@dataclass(frozen=True)
class SpecStandIn:
    """Parameterisation of one SPEC stand-in."""

    name: str
    wss_bytes: int
    #: (weight, pattern) mixture of address patterns.
    patterns: Tuple[Tuple[float, Pattern], ...]
    write_fraction: float = 0.3
    #: Mean non-memory instructions between memory references.
    gap_instructions: int = 2

    def cumulative_weights(self) -> List[float]:
        """Running sum of the normalised pattern weights."""
        weights = [w for w, _ in self.patterns]
        total = sum(weights)
        cum: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        return cum

    def refs(self, rng: DeterministicRng) -> Iterator[Tuple[int, bool, int]]:
        """Infinite (gap, is_write, byte_addr) reference stream."""
        gens = [
            pattern.addresses(self.wss_bytes, rng.fork(i))
            for i, (_, pattern) in enumerate(self.patterns)
        ]
        cum = self.cumulative_weights()
        last = len(cum) - 1
        pick_rng = rng.fork(0xF00D)
        while True:
            u = pick_rng.random()
            # First pattern whose cumulative weight covers u; the last
            # one when float accumulation left cum[-1] just below 1.0.
            gen = gens[next((i for i, c in enumerate(cum) if u <= c), last)]
            gap = pick_rng.randint(0, 2 * self.gap_instructions)
            yield gap, pick_rng.random() < self.write_fraction, next(gen)


_MiB = 1024 * 1024

SPEC_BENCHMARKS: Dict[str, SpecStandIn] = {
    # Graph path-finding: pointer-heavy with a warm core.
    "astar": SpecStandIn(
        "astar", 6 * _MiB,
        ((0.45, Pattern("pointer_chase")), (0.35, Pattern("zipf", alpha=1.1)),
         (0.20, Pattern("sequential", 16))),
        write_fraction=0.25, gap_instructions=10,
    ),
    # Compression: large buffers scanned with block-local reuse.
    "bzip2": SpecStandIn(
        "bzip2", 8 * _MiB,
        ((0.40, Pattern("sequential", 16)),
         (0.40, Pattern("hot_cold", hot_fraction=0.08, hot_probability=0.8)),
         (0.20, Pattern("uniform"))),
        write_fraction=0.35, gap_instructions=8,
    ),
    # Compiler: many medium structures, heavy-tailed reuse.
    "gcc": SpecStandIn(
        "gcc", 4 * _MiB,
        ((0.60, Pattern("zipf", alpha=1.2)),
         (0.25, Pattern("sequential", 16)),
         (0.15, Pattern("pointer_chase"))),
        write_fraction=0.3, gap_instructions=10,
    ),
    # Go playing: compact board state, mostly cache-resident.
    "gob": SpecStandIn(
        "gob", 2 * _MiB,
        ((0.6, Pattern("zipf", alpha=1.2)),
         (0.4, Pattern("hot_cold", hot_fraction=0.1, hot_probability=0.9))),
        write_fraction=0.3, gap_instructions=12,
    ),
    # Video decode: streaming frames with strong intra-line locality.
    "h264": SpecStandIn(
        "h264", 3 * _MiB,
        ((0.80, Pattern("sequential", 8)),
         (0.15, Pattern("strided", 256)),
         (0.05, Pattern("uniform"))),
        write_fraction=0.4, gap_instructions=8,
    ),
    # Profile HMM search: small hot tables, very high locality.
    "hmmer": SpecStandIn(
        "hmmer", 2 * _MiB,
        ((0.75, Pattern("hot_cold", hot_fraction=0.1, hot_probability=0.95)),
         (0.25, Pattern("sequential", 8))),
        write_fraction=0.3, gap_instructions=10,
    ),
    # Quantum simulation: pure streaming over a large vector.
    "libq": SpecStandIn(
        "libq", 12 * _MiB,
        ((0.95, Pattern("sequential", 16)),
         (0.05, Pattern("uniform"))),
        write_fraction=0.45, gap_instructions=6,
    ),
    # Network simplex: giant pointer graph, worst-case locality.
    "mcf": SpecStandIn(
        "mcf", 24 * _MiB,
        ((0.65, Pattern("pointer_chase")), (0.2, Pattern("uniform")),
         (0.15, Pattern("sequential", 16))),
        write_fraction=0.3, gap_instructions=8,
    ),
    # Discrete event simulation: large heap, scattered objects.
    "omnet": SpecStandIn(
        "omnet", 16 * _MiB,
        ((0.5, Pattern("uniform")), (0.3, Pattern("pointer_chase")),
         (0.2, Pattern("zipf", alpha=0.8))),
        write_fraction=0.35, gap_instructions=10,
    ),
    # Interpreter: hot dispatch structures plus heap churn.
    "perl": SpecStandIn(
        "perl", 3 * _MiB,
        ((0.65, Pattern("zipf", alpha=1.2)), (0.20, Pattern("pointer_chase")),
         (0.15, Pattern("sequential", 8))),
        write_fraction=0.35, gap_instructions=10,
    ),
    # Chess search: transposition tables with random probes.
    "sjeng": SpecStandIn(
        "sjeng", 6 * _MiB,
        ((0.45, Pattern("uniform")),
         (0.55, Pattern("hot_cold", hot_fraction=0.08, hot_probability=0.75))),
        write_fraction=0.3, gap_instructions=12,
    ),
}


#: Recommended multi-tenant interleaved mixes (see :func:`interleaved_name`),
#: spanning the locality spectrum: cache-friendly pair, mixed-locality
#: pair, and a streaming-vs-pointer-chase worst case.
MULTI_TENANT_MIXES: Tuple[str, ...] = ("hmmer+gob", "gcc+h264", "mcf+libq")

#: Floor for a scaled mix component's region (one trivially small tenant
#: would otherwise collapse to an empty address range).
_MIN_COMPONENT_BYTES = 4096

#: Parsed derived stand-ins, memoised by their self-describing name.
_DERIVED_CACHE: Dict[str, SpecStandIn] = {}


def interleaved_name(names) -> str:
    """Self-describing name of a multi-tenant interleaved workload.

    ``interleaved_name(["gcc", "mcf"])`` -> ``"gcc+mcf"``: each component
    runs its own access-pattern mixture inside a private region of one
    shared address space (tenant regions are laid out back to back), with
    references interleaved so every component gets an equal share — the
    memory image of N tenants timesharing one ORAM. The name round-trips
    through :func:`benchmark` in any process, exactly like ``@wss=``
    derived names, so sweeps, worker pools and on-disk caches treat mixes
    as first-class benchmarks.
    """
    parts = list(names)
    if len(parts) < 2:
        raise ValueError("an interleaved mix needs at least two components")
    for part in parts:
        if part not in SPEC_BENCHMARKS:
            raise KeyError(
                f"unknown mix component {part!r}; "
                f"available: {sorted(SPEC_BENCHMARKS)}"
            )
    return "+".join(parts)


def _parse_mix(name: str, wss_bytes: "int | None" = None) -> "SpecStandIn | None":
    """Decode an ``a+b[+c...]`` interleaved mix (None if not one).

    Components keep their own pattern mixtures but are confined to
    disjoint back-to-back regions; each component's patterns are
    re-weighted to 1 so every tenant contributes an equal share of
    references. A ``wss_bytes`` override rescales every region
    proportionally (the sweep engine's ``wss`` axis).
    """
    if "+" not in name:
        return None
    parts = name.split("+")
    if len(parts) < 2 or any(part not in SPEC_BENCHMARKS for part in parts):
        return None
    comps = [SPEC_BENCHMARKS[part] for part in parts]
    native_total = sum(comp.wss_bytes for comp in comps)
    scale = 1.0 if wss_bytes is None else wss_bytes / native_total
    full_name = name if wss_bytes is None else f"{name}@wss={wss_bytes}"
    patterns = []
    offset = 0
    for comp in comps:
        comp_wss = max(int(comp.wss_bytes * scale), _MIN_COMPONENT_BYTES)
        weight_total = sum(weight for weight, _pattern in comp.patterns)
        for weight, pattern in comp.patterns:
            confined = dataclasses.replace(
                pattern, region_wss=comp_wss, offset=offset
            )
            patterns.append((weight / weight_total, confined))
        offset += comp_wss
    return SpecStandIn(
        name=full_name,
        wss_bytes=max(wss_bytes if wss_bytes is not None else native_total, offset),
        patterns=tuple(patterns),
        write_fraction=sum(c.write_fraction for c in comps) / len(comps),
        gap_instructions=max(
            round(sum(c.gap_instructions for c in comps) / len(comps)), 1
        ),
    )


def scaled_benchmark_name(name: str, wss_bytes: int) -> str:
    """Self-describing name of a WSS-overridden stand-in.

    ``scaled_benchmark_name("mcf", 8 << 20)`` -> ``"mcf@wss=8388608"``;
    a no-op override returns the base name unchanged. A name that is
    *already* derived re-derives from its base (the override replaces,
    it does not stack); interleaved mixes (``"gcc+mcf"``) scale every
    component region proportionally. The returned name round-trips
    through :func:`benchmark` *in any process* — the override is parsed
    back out of the name, never looked up in mutable registry state —
    which is what lets worker pools and on-disk cache keys treat derived
    benchmarks exactly like registered ones.
    """
    name = name.partition("@")[0]
    base = SPEC_BENCHMARKS.get(name)
    if base is None:
        base = _parse_mix(name)
    if base is None:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {sorted(SPEC_BENCHMARKS)}"
        )
    if not isinstance(wss_bytes, int) or isinstance(wss_bytes, bool) or wss_bytes < 1:
        raise ValueError(f"wss override must be a positive byte count, got {wss_bytes!r}")
    if wss_bytes == base.wss_bytes:
        return name
    return f"{name}@wss={wss_bytes}"


def _parse_derived(name: str) -> "SpecStandIn | None":
    """Decode a ``base@wss=BYTES`` derived name (None if not one)."""
    base_name, sep, suffix = name.partition("@")
    if not sep:
        return None
    key, eq, value = suffix.partition("=")
    if key != "wss" or not eq:
        return None
    try:
        wss_bytes = int(value)
    except ValueError:
        return None
    if wss_bytes < 1:
        return None
    if base_name in SPEC_BENCHMARKS:
        return dataclasses.replace(
            SPEC_BENCHMARKS[base_name], name=name, wss_bytes=wss_bytes
        )
    return _parse_mix(base_name, wss_bytes)


def benchmark(name: str) -> SpecStandIn:
    """Stand-in by SPEC short name (see :data:`SPEC_BENCHMARKS`).

    Also accepts self-describing derived names: ``"mcf@wss=8388608"``
    (working-set override — the sweep engine's benchmark-parameter grid
    axis), ``"gcc+mcf"`` (multi-tenant interleaved mix, see
    :func:`interleaved_name`), and ``"gcc+mcf@wss=BYTES"`` (both).
    """
    try:
        return SPEC_BENCHMARKS[name]
    except KeyError:
        pass
    derived = _DERIVED_CACHE.get(name)
    if derived is None:
        derived = _parse_derived(name) if "@" in name else _parse_mix(name)
        if derived is not None:
            _DERIVED_CACHE[name] = derived
    if derived is not None:
        return derived
    raise KeyError(
        f"unknown benchmark {name!r}; available: {sorted(SPEC_BENCHMARKS)} "
        "(or a derived 'name@wss=BYTES' / interleaved 'a+b' mix)"
    )


def benchmark_names() -> List[str]:
    """All stand-in names in the paper's figure order."""
    return list(SPEC_BENCHMARKS)
