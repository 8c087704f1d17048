"""Every ``REPRO_*`` environment variable, declared once and read here only.

:class:`Settings` is a frozen value with one field per variable;
:meth:`Settings.from_env` is the only reader of the process environment
under ``src/`` (``tests/test_settings.py`` keeps it so by text search).
Nothing is cached: whoever needs a setting calls ``from_env()`` at the
moment it needs it, so a variable changed between two calls — a test's
``monkeypatch.setenv``, a CLI flag exported by :meth:`Settings.export` —
is seen by the second.

The grammar, for all of them:

- unset, or set to nothing but whitespace, is the default;
- a true/false variable takes one of :data:`TRUE_WORDS` or
  :data:`FALSE_WORDS`, in any case. A cache directory variable takes a
  false word (no cache), a true word (the per-user default location) or a
  path (``~`` is expanded where the store is opened); ``REPRO_NATIVE``
  takes them beside ``require``;
  ``REPRO_RPC_TIMEOUT`` and ``REPRO_CELL_TIMEOUT`` take a false word, or
  any number that is not positive, for "no deadline";
- anything else raises :class:`~repro.errors.ConfigurationError` naming
  the variable, the value and what the variable accepts — a typo never
  silently selects a default.

``REPRO_NATIVE`` alone picks the replay tier, and the storage follows the
tier; :func:`repro.sim.replay.resolve_tier` is where that is decided.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ConfigurationError

#: The one true/false vocabulary (matched case-insensitively).
TRUE_WORDS = ("1", "on", "yes", "y", "true")
FALSE_WORDS = ("0", "off", "no", "n", "false", "none", "disable", "disabled")


# -- parsers: stripped, non-empty text -> value, or ValueError(what is accepted) --


def _flag(text: str) -> bool:
    if text.lower() not in TRUE_WORDS + FALSE_WORDS:
        raise ValueError(f"one of {'/'.join(TRUE_WORDS)} or {'/'.join(FALSE_WORDS)}")
    return text.lower() in TRUE_WORDS


def _native(text: str) -> str:
    if text.lower() == "require":
        return "require"
    try:
        return "on" if _flag(text) else "off"
    except ValueError as exc:
        raise ValueError(f"'require', or {exc}") from None


def _cache(default: str) -> Callable[[str], Optional[str]]:
    def parse(text: str) -> Optional[str]:
        try:
            return default if _flag(text) else None
        except ValueError:
            return text

    return parse


def _number(kind: type, accepts: str, minimum=None) -> Callable[[str], object]:
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        finite = value == value and abs(value) != math.inf
        if not finite or (minimum is not None and value < minimum):
            raise ValueError(accepts)
        return value

    return parse


_integer = _number(int, "an integer")
_seconds = _number(float, "a non-negative number of seconds", minimum=0)


def _attempts(text: str) -> int:
    return max(1, _integer(text))  # below 1 has always meant 1


def _deadline(text: str) -> Optional[float]:
    if text.lower() in FALSE_WORDS:
        return None
    seconds = _number(float, "a number of seconds (0 or off: no deadline)")(text)
    return seconds if seconds > 0 else None


def _render(value: object) -> str:
    if value is None or value is False:
        return "off"
    return "1" if value is True else str(value)


def _var(env: str, parse: Callable[[str], object], default, meaning: str):
    """One variable's declaration: a dataclass field carrying the rest."""
    return dataclasses.field(
        default=default, metadata={"env": env, "parse": parse, "meaning": meaning}
    )


def _cache_var(env: str, subdir: str, meaning: str):
    default = f"~/.cache/repro/{subdir}"
    return _var(env, _cache(default), default, meaning)


@dataclass(frozen=True)
class Settings:
    """What the ``REPRO_*`` environment says, typed (see the module docs)."""

    native: str = _var(
        "REPRO_NATIVE", _native, "on",
        "replay tier: on (fast when the extension is built, else reference) "
        "| off (reference) | require (fast, or fail)",
    )
    workers: int = _var(
        "REPRO_WORKERS", _number(int, "a positive integer", minimum=1), 1,
        "local fabric workers for the (scheme, benchmark) fan-out",
    )
    trace_cache: Optional[str] = _cache_var(
        "REPRO_TRACE_CACHE", "traces", "miss-trace cache directory, or off"
    )
    result_cache: Optional[str] = _cache_var(
        "REPRO_RESULT_CACHE", "results", "replay-result cache directory, or off"
    )
    force: bool = _var(
        "REPRO_FORCE", _flag, False, "recompute, and refresh, every cached cell"
    )
    full: bool = _var(
        "REPRO_FULL", _flag, False,
        "paper-scale miss budget (50 000 per benchmark instead of 6 000)",
    )
    retries: int = _var(
        "REPRO_RETRIES", _attempts, 3,
        "attempts per sweep cell before it is quarantined",
    )
    retry_base: float = _var(
        "REPRO_RETRY_BASE", _seconds, 0.05,
        "backoff before a cell's second attempt, seconds (doubles after)",
    )
    cell_timeout: Optional[float] = _var(
        "REPRO_CELL_TIMEOUT", _deadline, None,
        "seconds a leased cell may run before its worker is reclaimed "
        "(0 or off: no limit)",
    )
    rpc_timeout: Optional[float] = _var(
        "REPRO_RPC_TIMEOUT", _deadline, 30.0,
        "fabric per-call deadline, seconds (0 or off: none)",
    )
    connect_retries: int = _var(
        "REPRO_CONNECT_RETRIES", _attempts, 3, "fabric dial / reconnect attempts"
    )
    faults: str = _var(
        "REPRO_FAULTS", str, "",
        "deterministic fault-injection plan (testing; see repro.faults.plan)",
    )
    faults_seed: int = _var(
        "REPRO_FAULTS_SEED", _integer, 0,
        "seed of the byte pattern a file-damaging fault writes",
    )

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "Settings":
        """Parse ``environ`` (the process environment when omitted)."""
        if environ is None:
            environ = os.environ
        values: Dict[str, object] = {}
        for name, env, parse in _VARIABLES:
            text = environ.get(env, "").strip()
            if not text:
                continue
            try:
                values[name] = parse(text)
            except ValueError as exc:
                raise ConfigurationError(f"{env}={text!r}: expected {exc}") from None
        return cls(**values)

    def to_env(self) -> Dict[str, str]:
        """The variables that say this, defaults left unset.

        ``Settings.from_env(s.to_env()) == s``; it is what a forked
        worker inherits (:meth:`export`).
        """
        return {
            env: _render(getattr(self, name))
            for name, env, _parse in _VARIABLES
            if getattr(self, name) != getattr(_DEFAULTS, name)
        }

    def export(self) -> None:
        """Make this the process environment's ``REPRO_*`` half.

        The CLI's one write: everything downstream — this process's next
        ``from_env()``, the fabric workers it forks — reads it.
        """
        for _name, env, _parse in _VARIABLES:
            os.environ.pop(env, None)
        os.environ.update(self.to_env())

    # -- what the variables resolve to --------------------------------------------

    @property
    def miss_budget(self) -> int:
        """Per-benchmark LLC miss budget."""
        return 50_000 if self.full else 6_000


#: (field, variable, parser) per declaration, and the all-defaults value.
_VARIABLES = tuple(
    (f.name, f.metadata["env"], f.metadata["parse"]) for f in dataclasses.fields(Settings)
)
_DEFAULTS = Settings()
