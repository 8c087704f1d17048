"""Deterministic fault-injection plans.

A :class:`FaultPlan` is a list of :class:`FaultSpec` injectors installed
process-wide (and re-installed in forked workers via ``REPRO_FAULTS``). Code
under test calls :func:`fault_hook` at named *sites*; when no plan is
installed the hook is a single ``is None`` check, so the production hot
path pays effectively nothing.

Plan grammar (``REPRO_FAULTS`` / ``--faults``)::

    entry   := site '.' action '@' keypat ['#' hits] ['|' k '=' v {',' k '=' v}]
    plan    := entry {';' entry}

``site`` names where the hook lives, one of :data:`SITES` (an unknown
site is a :class:`~repro.errors.SpecError`, never a plan that silently
cannot fire); ``action`` is what happens
(``crash``, ``exit``, ``stall``, ``interrupt``, ``kill``, ``corrupt``,
``truncate``); ``keypat`` is an ``fnmatch`` pattern over the site-specific
key (the *first* ``@`` splits, so keys themselves may contain ``@``, as
derived benchmark names do); ``hits`` selects which matches fire, counted
per injector (``#1`` = the first time this injector's site+key pattern
matches, ``#2,4`` = the second and fourth; omitted = every match).

Examples::

    cell.crash@PC_X32*/gob/1#1          # first attempt of that cell crashes
    fabric.worker.exit@*/*/1#1          # each worker dies on its first attempt-1 cell
    fabric.worker.stall@*/*/1|secs=30   # every attempt-1 cell stalls 30 s
    cache.write.kill@result/replace#1   # die between tmp write and rename
    cache.entry.truncate@trace/*#1      # damage first trace entry read

Fabric site: ``fabric.worker`` fires in a forked worker, and only there,
before each cell it runs (``label/bench/attempt``). A ``crash`` there
is a cell error, an ``exit`` the worker's death and a ``stall`` past the
cell timeout a killed worker; each is one charged attempt on that cell
alone — the same retry accounting a serial run uses. A forked worker
installs the plan afresh, so its counters restart in every process,
respawns included: a fault that must fire once keys on the attempt
number.

Sweep sites: ``cell`` fires per cell attempt (``label/bench/attempt``)
and ``sweep`` after each finished cell (``label/bench``); the store's
``cache.entry`` fires per entry read (``kind/key``) and ``cache.write``
at each step of a write (``kind/begin|tmp|replace``).

Determinism: occurrence counters are keyed per ``(site, key)`` and file
damage uses a deterministic byte pattern derived from the plan's seed
(0 unless :func:`parse` is given another), so the same plan on the same
run injects byte-identical faults every time.
"""

from __future__ import annotations

import fnmatch
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultKillPoint, InjectedFault, SpecError

_ACTIONS = ("crash", "exit", "stall", "interrupt", "kill", "corrupt", "truncate")

#: Every site a hook fires at; a plan may name no other.
SITES = ("cell", "sweep", "cache.entry", "cache.write", "fabric.worker")

#: Actions that damage the file passed to the hook rather than raising.
_FILE_ACTIONS = ("corrupt", "truncate")


@dataclass(frozen=True)
class FaultSpec:
    """One injector: fire ``action`` at ``site`` when ``key`` matches."""

    site: str
    action: str
    key: str = "*"
    hits: Tuple[int, ...] = ()  # empty = fire on every occurrence
    params: Dict[str, str] = field(default_factory=dict)

    def matches_site_key(self, site: str, key: str) -> bool:
        return site == self.site and fnmatch.fnmatchcase(key, self.key)

    def to_entry(self) -> str:
        """Serialize back to the plan grammar (inverse of :func:`parse`)."""
        entry = f"{self.site}.{self.action}@{self.key}"
        if self.hits:
            entry += "#" + ",".join(str(h) for h in self.hits)
        if self.params:
            entry += "|" + ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return entry


class FaultPlan:
    """A set of injectors plus per-injector match bookkeeping."""

    def __init__(self, specs: List[FaultSpec], seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        # How many times each injector's site+key pattern has matched;
        # ``hits`` selects among these counts, so "#2" means "the second
        # event this injector watches", whatever its exact key was.
        self._spec_hits: List[int] = [0] * len(self.specs)
        #: Log of faults that actually fired: (site, key, match_no, action).
        self.fired: List[Tuple[str, str, int, str]] = []

    def match(self, site: str, key: str = "") -> Optional[FaultSpec]:
        """Count pattern matches and return the spec that fires, if any.

        Does *not* perform the action (:meth:`fire` does). Every injector
        watching this (site, key) advances its counter; the first one
        whose ``hits`` select the current count fires.
        """
        chosen: Optional[FaultSpec] = None
        chosen_count = 0
        for i, spec in enumerate(self.specs):
            if not spec.matches_site_key(site, key):
                continue
            self._spec_hits[i] += 1
            if chosen is None and (
                not spec.hits or self._spec_hits[i] in spec.hits
            ):
                chosen = spec
                chosen_count = self._spec_hits[i]
        if chosen is not None:
            self.fired.append((site, key, chosen_count, chosen.action))
        return chosen

    def fire(self, site: str, key: str = "", path: Optional[Path] = None) -> None:
        """Count the occurrence and perform the matching action, if any."""
        spec = self.match(site, key)
        if spec is None:
            return
        self._perform(spec, site, key, path)

    def _perform(
        self, spec: FaultSpec, site: str, key: str, path: Optional[Path]
    ) -> None:
        action = spec.action
        where = f"{site}@{key}" if key else site
        if action == "crash":
            raise InjectedFault(f"injected crash at {where}")
        if action == "exit":
            # Hard process death, as a crashed worker would exhibit.
            os._exit(int(spec.params.get("code", "17")))
        if action == "stall":
            time.sleep(float(spec.params.get("secs", "0.2")))
            return
        if action == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt at {where}")
        if action == "kill":
            raise FaultKillPoint(f"injected kill-point at {where}")
        if action in _FILE_ACTIONS:
            # Damage the file and let execution continue: pair with a `kill`
            # entry on a later key to also simulate dying with the torn
            # bytes on disk. Read-side (cache.entry) damage exercises the
            # corrupt-entry fallback on the very next read.
            if path is not None:
                _damage_file(path, action, self.seed, key)
            return
        raise SpecError(f"unknown fault action: {action!r}")


def _damage_file(path: Path, action: str, seed: int, key: str) -> None:
    """Deterministically truncate or garble ``path`` in place (best-effort)."""
    try:
        data = path.read_bytes()
    except OSError:
        return
    rng = zlib.crc32(f"{seed}|{key}|{action}".encode("utf-8"))
    if action == "truncate":
        cut = rng % max(1, len(data)) if data else 0
        damaged = data[:cut]
    else:  # corrupt: flip a deterministic byte (and keep the length)
        if not data:
            damaged = b"\xff"
        else:
            pos = rng % len(data)
            flipped = data[pos] ^ (0x01 | (rng >> 8) & 0xFF) or 0xA5
            damaged = data[:pos] + bytes([flipped & 0xFF]) + data[pos + 1 :]
    try:
        path.write_bytes(damaged)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Plan grammar
# ---------------------------------------------------------------------------


def parse(text: str, seed: int = 0) -> FaultPlan:
    """Parse a ``;``-separated plan string into a :class:`FaultPlan`."""
    specs: List[FaultSpec] = []
    for raw in text.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        specs.append(_parse_entry(entry))
    return FaultPlan(specs, seed=seed)


def _parse_entry(entry: str) -> FaultSpec:
    params: Dict[str, str] = {}
    if "|" in entry:
        entry, _, param_text = entry.partition("|")
        for pair in param_text.split(","):
            if not pair.strip():
                continue
            k, sep, v = pair.partition("=")
            if not sep:
                raise SpecError(f"fault param must be k=v, got {pair!r}")
            params[k.strip()] = v.strip()
    head, sep, tail = entry.partition("@")
    if not sep:
        raise SpecError(f"fault entry needs '@keypat': {entry!r}")
    site, dot, action = head.rpartition(".")
    if not dot or not site:
        raise SpecError(f"fault entry needs 'site.action': {entry!r}")
    if site not in SITES:
        raise SpecError(f"unknown fault site {site!r} (expected one of {SITES})")
    if action not in _ACTIONS:
        raise SpecError(
            f"unknown fault action {action!r} (expected one of {_ACTIONS})"
        )
    keypat, hsep, hits_text = tail.partition("#")
    hits: Tuple[int, ...] = ()
    if hsep:
        try:
            hits = tuple(int(h) for h in hits_text.split(",") if h.strip())
        except ValueError:
            raise SpecError(f"fault hits must be integers: {hits_text!r}") from None
        if any(h < 1 for h in hits):
            raise SpecError(f"fault hits are 1-based: {hits_text!r}")
    return FaultSpec(site=site, action=action, key=keypat or "*", hits=hits, params=params)


# ---------------------------------------------------------------------------
# Process-wide installation
# ---------------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or, with None, clear) the process-wide plan; returns old."""
    global _PLAN
    old = _PLAN
    _PLAN = plan
    return old


def clear() -> None:
    install(None)


def active() -> Optional[FaultPlan]:
    return _PLAN


def install_from(settings) -> Optional[FaultPlan]:
    """(Re)install the plan ``settings.faults`` (``REPRO_FAULTS``) describes, if any."""
    if not settings.faults:
        return None
    plan = parse(settings.faults)
    install(plan)
    return plan


def fault_hook(site: str, key: str = "", path: Optional[Path] = None) -> None:
    """Zero-overhead injection point: no-op unless a plan is installed."""
    if _PLAN is None:
        return
    _PLAN.fire(site, key, path)


class injected:
    """Context manager installing a plan for a scoped block (tests)."""

    def __init__(self, plan_or_text, seed: int = 0):
        if isinstance(plan_or_text, str):
            plan_or_text = parse(plan_or_text, seed=seed)
        self.plan: FaultPlan = plan_or_text

    def __enter__(self) -> FaultPlan:
        self._old = install(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        install(self._old)
