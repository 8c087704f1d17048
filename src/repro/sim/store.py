"""One content-addressed on-disk store, one codec per kind of entry.

Everything the experiment engine persists is a pure function of its key:
a :class:`~repro.proc.hierarchy.MissTrace` of (benchmark, seed, processor
config, miss budget, warmup); a :class:`~repro.sim.metrics.SimResult` of
the sized scheme spec plus that trace's parameters. A key is a recipe —
:func:`trace_key`, :func:`result_key` — and every layer above (the
runner, fabric workers) needs only "load, or compute and
store". A figure's table is derived from its cells and recomputed on
every call, never stored (:mod:`repro.eval`).

:class:`Store` is the one implementation of that, and the only place in
the package that renames a file into position. What differs between the
kinds of entry is a :class:`Codec` value: file suffix, fault-plan key
prefix, warning text, and an ``encode``/``decode`` pair. The result
store is also what finishes an interrupted sweep: running the sweep
again loads every cell stored before the interrupt. The rules are the
same for both kinds:

- entries are written atomically (unique temp file + ``os.replace``), so
  a crashed or concurrent writer — threads of the fabric coordinator,
  separate worker processes racing one stolen cell — never leaves a
  half-written entry visible, and same-key racers leave one valid image
  (content-addressing makes all of them identical);
- an entry that was read but does not decode — corrupt, truncated,
  written by another schema version, or valid JSON of the wrong shape —
  is a counted, warned eviction and a miss, falling back to
  recomputation; an entry that cannot be read is a plain miss;
- an unwritable directory silently disables the store rather than
  failing the experiment.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Union

from repro.config import ProcessorConfig
from repro.dram.config import DramConfig
from repro.errors import CacheCorruptionWarning
from repro.faults import fault_hook
from repro.proc.hierarchy import TRACE_VERSION, MissTrace
from repro.sim.metrics import SimResult

#: Bump when SimResult serialization (or replay semantics the key cannot
#: see) changes; embedded in every entry and checked on load.
#: v2: spec-canonical keys + SimResult prf_calls/prf_cache_hits fields.
#: v3: prf_cache_hits dropped (the PRF memoises no leaf).
RESULT_SCHEMA_VERSION = 3

#: Per-process sequence for temp-file names: combined with the pid it
#: makes concurrent writers — threads of one process (fabric coordinator)
#: and separate worker processes alike — never collide on a temp path,
#: so the atomic-rename discipline holds under any write race.
_TMP_SEQ = itertools.count()


@dataclass(frozen=True)
class Codec:
    """What distinguishes one kind of entry from another.

    ``kind`` prefixes the fault-plan keys (``trace/<key>``,
    ``result/tmp``, ...); ``evicted`` is the eviction warning, formatted
    with the entry's file ``name``. ``encode`` may raise ``TypeError``
    for a value the format cannot carry (the store then refuses it);
    ``decode`` may raise anything for bytes it does not accept.
    """

    kind: str
    suffix: str
    evicted: str
    encode: Callable[[object], bytes]
    decode: Callable[[bytes], object]


class Store:
    """Directory of encoded entries, one file per content-address key."""

    def __init__(self, root: Union[str, Path], codec: Codec):
        self.root = Path(root).expanduser()
        self.codec = codec
        # Hit/miss/store counters for tests and diagnostics.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_evictions = 0

    def path_for(self, key: str) -> Path:
        """Entry location for a key."""
        return self.root / f"{key}{self.codec.suffix}"

    def keys(self) -> List[str]:
        """Sorted keys of every entry currently on disk."""
        suffix = self.codec.suffix
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n[: -len(suffix)] for n in names if n.endswith(suffix))

    def load(self, key: str):
        """Return the stored value, or None on miss/corruption/staleness."""
        path = self.path_for(key)
        fault_hook("cache.entry", f"{self.codec.kind}/{key}", path)
        try:
            data = path.read_bytes()
        except OSError:
            # Absent entry: a plain miss, nothing to evict.
            self.misses += 1
            return None
        try:
            value = self.codec.decode(data)
        except Exception:
            # Whatever decode objected to, the bytes are not an entry:
            # drop them and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.corrupt_evictions += 1
            self.misses += 1
            warnings.warn(
                self.codec.evicted.format(name=path.name),
                CacheCorruptionWarning,
                stacklevel=2,
            )
            return None
        self.hits += 1
        return value

    def store(self, key: str, value) -> bool:
        """Atomically persist a value; returns False if it cannot be kept."""
        kind = self.codec.kind
        try:
            data = self.codec.encode(value)
        except TypeError:
            return False
        fault_hook("cache.write", f"{kind}/begin")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SEQ)}")
        try:
            tmp.write_bytes(data)
            fault_hook("cache.write", f"{kind}/tmp", tmp)
            os.replace(tmp, path)
            fault_hook("cache.write", f"{kind}/replace", path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stores += 1
        return True


def _digest(schema: str, parts: Iterable[str]) -> str:
    """A key: 40 hex digits over a format version, the release, and ``parts``."""
    import repro

    text = "|".join([schema, f"repro={getattr(repro, '__version__', '0')}", *parts])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:40]


def _fields(prefix: str, config) -> List[str]:
    """A flat config dataclass, canonicalised field-by-field (sorted).

    The declared fields only, read one by one: the configs hold scalars,
    so the deep copy ``dataclasses.asdict`` makes was most of the cost of
    a key, and a figure computes one per cell on every call.
    """
    return [
        f"{prefix}.{f.name}={getattr(config, f.name)!r}"
        for f in sorted(dataclasses.fields(config), key=lambda f: f.name)
    ]


# -- miss traces ---------------------------------------------------------------


def trace_key(
    bench_name: str,
    seed: int,
    proc: ProcessorConfig,
    max_llc_misses: int,
    warmup_refs: int,
) -> str:
    """Stable digest of everything that determines a trace's contents.

    The processor config is canonicalised field-by-field (sorted) so the
    key is independent of dataclass field ordering. The trace format
    version and package version are mixed in so format changes — and
    releases that may alter workload generation — invalidate old entries.
    """
    parts = [
        f"bench={bench_name}",
        f"seed={seed}",
        f"misses={max_llc_misses}",
        f"warmup={warmup_refs}",
    ]
    return _digest(f"format={TRACE_VERSION}", parts + _fields("proc", proc))


TRACE_CODEC = Codec(
    kind="trace",
    suffix=".trace",
    evicted="trace cache: evicted corrupt/stale entry {name}; recomputing",
    encode=MissTrace.to_bytes,
    decode=MissTrace.from_bytes,
)


#: ``TraceCache(root)``: store of miss traces keyed by :func:`trace_key`.
TraceCache = functools.partial(Store, codec=TRACE_CODEC)


# -- replay results ------------------------------------------------------------


def result_key(
    scheme_canonical: str,
    bench_name: str,
    seed: int,
    proc: ProcessorConfig,
    dram: DramConfig,
    proc_ghz: float,
    max_llc_misses: int,
    warmup_refs: int,
) -> str:
    """Stable digest of everything that determines one cell's SimResult.

    ``scheme_canonical`` is the scheme spec's total canonical serialization
    (:meth:`repro.spec.SchemeSpec.canonical`), already sized for the
    benchmark — or the literal ``"insecure"`` for the DRAM baseline. Every
    construction knob therefore re-keys automatically, with no
    hand-maintained argument list. The package release and the result
    schema version are mixed in; the schema version is also embedded in
    the payload, so entries written by an older schema are evicted on
    first contact instead of being misread.
    """
    parts = [
        f"spec={scheme_canonical}",
        f"bench={bench_name}",
        f"seed={seed}",
        f"ghz={proc_ghz!r}",
        f"misses={max_llc_misses}",
        f"warmup={warmup_refs}",
    ]
    return _digest(
        f"schema={RESULT_SCHEMA_VERSION}",
        parts + _fields("proc", proc) + _fields("dram", dram),
    )


def _encode_result(result: SimResult) -> bytes:
    payload = {
        "schema": RESULT_SCHEMA_VERSION,
        "result": dataclasses.asdict(result),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _decode_result(data: bytes) -> SimResult:
    payload = json.loads(data.decode("utf-8"))
    if payload.get("schema") != RESULT_SCHEMA_VERSION:
        raise ValueError("stale result schema")
    return SimResult(**payload["result"])


RESULT_CODEC = Codec(
    kind="result",
    suffix=".result.json",
    evicted="result cache: evicted corrupt/stale entry {name}; recomputing",
    encode=_encode_result,
    decode=_decode_result,
)


#: ``ResultCache(root)``: store of SimResults keyed by :func:`result_key`.
ResultCache = functools.partial(Store, codec=RESULT_CODEC)
