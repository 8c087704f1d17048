"""Declarative scheme specifications: the paper's evaluation matrix as data.

The evaluation (§7) is a grid of named schemes (R_X8 … PIC_X32) crossed
with benchmarks and parameter variations. :class:`SchemeSpec` captures one
point of that grid as a frozen, serializable value object — frontend kind,
PosMap format and fan-out inputs, PLB geometry, PMMAC, storage backend and
crypto suite — so experiments are configured with *data* instead of
hand-threaded keyword arguments:

- ``to_dict()``/``from_dict()`` and the spec mini-language
  ``to_string()``/``from_string()`` (``"PIC_X32:plb=32KiB,storage=columnar"``)
  round-trip exactly;
- ``with_(**changes)`` derives variations (unknown fields raise
  :class:`~repro.errors.SpecError` naming the valid ones);
- ``canonical()`` is a stable, total serialization used by the on-disk
  result store (:func:`~repro.sim.store.result_key`) as its key — every
  knob re-keys automatically, with no hand-maintained argument list;
- ``build()`` hands the spec to its frontend's constructor
  (:class:`~repro.frontend.unified.PlbFrontend`,
  :class:`~repro.frontend.recursive.RecursiveFrontend` or
  :class:`~repro.frontend.linear.LinearFrontend`), which reads every
  geometry and format value from it: the field defaults below are the
  only defaults (digests pinned in ``tests/test_equivalence_golden.py``).

A process-wide registry maps the paper's scheme names to their specs;
:func:`register` admits new named schemes (e.g. from downstream studies)
without touching any construction code.

Build-time objects — ``rng``, ``observer``, and concrete ``CryptoSuite``
instances — are deliberately *not* spec fields: a spec describes a
configuration, not a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SpecError
from repro.frontend.linear import LinearFrontend
from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.unified import PlbFrontend

#: Frontend organisations a spec can name.
FRONTEND_KINDS = ("recursive", "plb", "linear")

#: PosMap block formats of the unified-tree frontend (§4/§5/§6).
POSMAP_FORMATS = ("uncompressed", "flat", "compressed")

#: Tree storage backends (``default`` follows the replay tier:
#: ``columnar`` on the fast tier, ``object`` on the reference tier;
#: ``columnar`` needs the C extension).
STORAGE_KINDS = ("default", "object", "columnar")

#: Crypto suites (:class:`~repro.crypto.suite.CryptoSuite` constructors).
CRYPTO_KINDS = ("fast", "reference")


@dataclass(frozen=True)
class SchemeSpec:
    """One fully-specified ORAM scheme configuration (a value object).

    Field defaults are the simulation-scale defaults (N = 2^16 blocks,
    64-byte blocks, 64 KiB PLB) and the only ones: every frontend
    constructor reads its configuration from a spec. The bare
    ``SchemeSpec()`` is exactly the paper's P_X16.
    """

    frontend: str = "plb"
    posmap_format: str = "uncompressed"
    pmmac: bool = False
    num_blocks: int = 2**16
    block_bytes: int = 64
    blocks_per_bucket: int = 4
    posmap_block_bytes: int = 32
    leaf_bytes: int = 4
    onchip_entries: int = 2**11
    plb_capacity_bytes: int = 64 * 1024
    plb_ways: int = 1
    mac_tag_bytes: int = 14
    compressed_alpha: int = 64
    compressed_beta: int = 14
    compressed_fanout: Optional[int] = None
    storage: str = "default"
    crypto: str = "fast"

    def __post_init__(self):
        if self.frontend not in FRONTEND_KINDS:
            raise SpecError(
                f"unknown frontend {self.frontend!r}; choose from {FRONTEND_KINDS}"
            )
        if self.posmap_format not in POSMAP_FORMATS:
            raise SpecError(
                f"unknown posmap_format {self.posmap_format!r}; "
                f"choose from {POSMAP_FORMATS}"
            )
        if self.storage not in STORAGE_KINDS:
            raise SpecError(
                f"unknown storage {self.storage!r}; choose from {STORAGE_KINDS}"
            )
        if self.crypto not in CRYPTO_KINDS:
            raise SpecError(
                f"unknown crypto {self.crypto!r}; choose from {CRYPTO_KINDS}"
            )
        if self.pmmac and self.frontend != "plb":
            raise SpecError(
                "pmmac requires frontend='plb' — PMMAC is a property of the "
                "unified-tree organisation (§6) and cannot be bolted onto "
                f"{self.frontend!r}"
            )
        if self.crypto != "fast" and self.frontend != "plb":
            raise SpecError(
                f"crypto={self.crypto!r} requires frontend='plb' — the "
                "recursive and linear baselines take no crypto suite, so a "
                "non-default selection would be silently ignored"
            )
        for name in _POSITIVE_INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SpecError(f"{name} must be a positive integer, got {value!r}")
        if self.compressed_fanout is not None and (
            isinstance(self.compressed_fanout, bool)
            or not isinstance(self.compressed_fanout, int)
            or self.compressed_fanout < 1
        ):
            raise SpecError(
                f"compressed_fanout must be None or a positive integer, "
                f"got {self.compressed_fanout!r}"
            )
        if not isinstance(self.pmmac, bool):
            raise SpecError(f"pmmac must be a bool, got {self.pmmac!r}")

    # -- derived geometry --------------------------------------------------------

    @property
    def fanout(self) -> int:
        """PosMap fan-out X implied by this configuration (0 = no recursion)."""
        if self.frontend == "recursive":
            return self.posmap_block_bytes // self.leaf_bytes
        if self.frontend == "linear":
            return 0
        if self.posmap_format == "uncompressed":
            return self.block_bytes // self.leaf_bytes
        if self.posmap_format == "flat":
            return self.block_bytes // 8
        if self.compressed_fanout is not None:
            return self.compressed_fanout
        most = (8 * self.block_bytes - self.compressed_alpha) // self.compressed_beta
        return 1 << (most.bit_length() - 1) if most >= 1 else 0

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data image (JSON-safe); inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SchemeSpec":
        """Construct from a (possibly partial) field mapping."""
        unknown = sorted(set(data) - set(SPEC_FIELDS))
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(SPEC_FIELDS)}"
            )
        return cls(**dict(data))

    def canonical(self) -> str:
        """Total, order-stable serialization — the result-cache key basis.

        Every field participates (sorted ``name=repr(value)``), so any new
        knob added to the spec automatically re-keys cached results.
        """
        return "|".join(f"{name}={getattr(self, name)!r}" for name in sorted(SPEC_FIELDS))

    def to_string(self) -> str:
        """Spec mini-language image, e.g. ``"PIC_X32:plb_capacity_bytes=32768"``.

        Rendered as the nearest registered scheme name plus its field
        deltas; ``from_string(spec.to_string()) == spec`` always holds.
        """
        return render_scheme_string(*decompose_spec(self))

    @classmethod
    def from_string(cls, text: str) -> "SchemeSpec":
        """Parse the mini-language: ``NAME[:field=value,...]``.

        ``NAME`` is a registered scheme; fields accept their full names or
        the short aliases in :data:`FIELD_ALIASES`; byte-sized integers
        accept ``KiB``/``MiB``/``GiB`` suffixes (``"plb=32KiB"``).
        """
        name, changes = parse_scheme_string(text)
        return get_spec(name).with_(**changes)

    # -- derivation --------------------------------------------------------------

    def with_(self, **changes) -> "SchemeSpec":
        """A copy with the given fields replaced (validated, frozen)."""
        if not changes:
            return self
        unknown = sorted(set(changes) - set(SPEC_FIELDS))
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(SPEC_FIELDS)}"
            )
        return replace(self, **changes)

    # -- construction ------------------------------------------------------------

    def build(self, rng=None, observer=None, crypto=None):
        """Instantiate the frontend this spec describes.

        ``rng``/``observer``/``crypto`` are build-time objects; a concrete
        ``crypto`` suite overrides the spec's ``crypto`` kind (only the
        ``plb`` frontend takes one).
        """
        if self.frontend == "recursive":
            return RecursiveFrontend(self, rng=rng, observer=observer)
        if self.frontend == "linear":
            return LinearFrontend(self, rng=rng, observer=observer)
        return PlbFrontend(self, rng=rng, observer=observer, crypto=crypto)


#: All SchemeSpec field names, in declaration order.
SPEC_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(SchemeSpec))

_STR_FIELDS = frozenset({"frontend", "posmap_format", "storage", "crypto"})
_BOOL_FIELDS = frozenset({"pmmac"})
_OPTIONAL_INT_FIELDS = frozenset({"compressed_fanout"})
_POSITIVE_INT_FIELDS = tuple(
    name
    for name in SPEC_FIELDS
    if name not in _STR_FIELDS | _BOOL_FIELDS | _OPTIONAL_INT_FIELDS
)

#: Short mini-language aliases accepted by ``from_string`` (full field
#: names always work too).
FIELD_ALIASES: Dict[str, str] = {
    "plb": "plb_capacity_bytes",
    "ways": "plb_ways",
    "posmap": "posmap_format",
    "format": "posmap_format",
    "onchip": "onchip_entries",
    "blocks": "num_blocks",
    "z": "blocks_per_bucket",
    "alpha": "compressed_alpha",
    "beta": "compressed_beta",
    "fanout": "compressed_fanout",
    "mac": "mac_tag_bytes",
}

_SIZE_UNITS = (
    ("kib", 1024),
    ("mib", 1 << 20),
    ("gib", 1 << 30),
    ("k", 1024),
    ("m", 1 << 20),
    ("g", 1 << 30),
    ("b", 1),
)

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def parse_size(text: str) -> int:
    """Integer with optional binary size suffix: ``"32KiB"`` -> 32768."""
    token = str(text).strip().lower().replace("_", "")
    for unit, scale in _SIZE_UNITS:
        if token.endswith(unit) and len(token) > len(unit):
            number = token[: -len(unit)]
            try:
                scaled = float(number) * scale
            except ValueError:
                break
            if scaled != int(scaled):
                raise SpecError(f"size {text!r} is not a whole number of bytes")
            return int(scaled)
    try:
        return int(token, 0)
    except ValueError:
        raise SpecError(f"cannot parse integer value {text!r}") from None


def resolve_field(key: str) -> str:
    """Map a mini-language key (alias or full name) to a spec field."""
    token = key.strip().lower()
    name = FIELD_ALIASES.get(token, token)
    if name not in SPEC_FIELDS:
        raise SpecError(
            f"unknown spec field {key!r}; valid fields: {', '.join(SPEC_FIELDS)} "
            f"(aliases: {', '.join(sorted(FIELD_ALIASES))})"
        )
    return name


def parse_field_value(field_name: str, text: str) -> object:
    """Parse a mini-language value by its field's type."""
    token = str(text).strip()
    if field_name in _STR_FIELDS:
        return token
    if field_name in _BOOL_FIELDS:
        lowered = token.lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
        raise SpecError(f"{field_name} expects a boolean, got {text!r}")
    if field_name in _OPTIONAL_INT_FIELDS and token.lower() in ("none", "auto"):
        return None
    return parse_size(token)


def _format_value(value: object) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_scheme_string(text: str) -> Tuple[str, Dict[str, object]]:
    """Split ``NAME[:k=v,...]`` into (registered name, parsed field deltas)."""
    if not isinstance(text, str) or not text.strip():
        raise SpecError(f"empty scheme spec {text!r}")
    name, sep, rest = text.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        raise SpecError(
            f"unknown scheme {name!r}; choose from {tuple(_REGISTRY)}"
        )
    changes: Dict[str, object] = {}
    if sep:
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise SpecError(
                    f"spec option {item!r} is not of the form field=value"
                )
            key, value = item.split("=", 1)
            field_name = resolve_field(key)
            changes[field_name] = parse_field_value(field_name, value)
    return name, changes


def render_scheme_string(name: str, changes: Mapping[str, object]) -> str:
    """Inverse of :func:`parse_scheme_string` (full field names, sorted)."""
    if not changes:
        return name
    body = ",".join(
        f"{key}={_format_value(value)}" for key, value in sorted(changes.items())
    )
    return f"{name}:{body}"


def decompose_spec(spec: SchemeSpec) -> Tuple[str, Dict[str, object]]:
    """Express a spec as (nearest registered base name, field deltas).

    Deterministic: registry insertion order breaks ties, and an exact
    registry match yields empty deltas. This is what lets the experiment
    runner re-apply its per-benchmark sizing *underneath* a caller's
    explicit deltas.
    """
    best_name: Optional[str] = None
    best_diffs: Optional[Dict[str, object]] = None
    for name, base in _REGISTRY.items():
        diffs = {
            field_name: getattr(spec, field_name)
            for field_name in SPEC_FIELDS
            if getattr(spec, field_name) != getattr(base, field_name)
        }
        if best_diffs is None or len(diffs) < len(best_diffs):
            best_name, best_diffs = name, diffs
            if not diffs:
                break
    if best_name is None or best_diffs is None:
        raise SpecError("scheme registry is empty; register() a base spec first")
    return best_name, best_diffs


# -- registry -----------------------------------------------------------------

_REGISTRY: Dict[str, SchemeSpec] = {}


def register(name: str, spec: SchemeSpec, *, overwrite: bool = False) -> SchemeSpec:
    """Add a named scheme to the registry (refuses silent redefinition)."""
    if not name or not isinstance(name, str):
        raise SpecError(f"scheme name must be a non-empty string, got {name!r}")
    if ":" in name or "," in name or "=" in name:
        raise SpecError(f"scheme name {name!r} may not contain ':', ',' or '='")
    if name in _REGISTRY and not overwrite:
        raise SpecError(f"scheme {name!r} already registered (pass overwrite=True)")
    if not isinstance(spec, SchemeSpec):
        raise SpecError(f"register() expects a SchemeSpec, got {type(spec).__name__}")
    _REGISTRY[name] = spec
    return spec


def get_spec(name: str) -> SchemeSpec:
    """Registered spec for a scheme name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown scheme {name!r}; choose from {tuple(_REGISTRY)}"
        ) from None


def spec_names() -> Tuple[str, ...]:
    """All registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def resolve_spec(value) -> SchemeSpec:
    """Coerce a SchemeSpec, registry name, or spec string to a SchemeSpec."""
    if isinstance(value, SchemeSpec):
        return value
    if isinstance(value, str):
        return SchemeSpec.from_string(value)
    raise SpecError(
        f"expected a SchemeSpec or spec string, got {type(value).__name__}"
    )


def spec_label(value) -> str:
    """Canonical display label: nearest registered name plus deltas."""
    return resolve_spec(value).to_string()


# The paper's named configurations (§7.1.4), registered in paper order so
# decomposition ties resolve the same way the paper names them.
register("R_X8", SchemeSpec(frontend="recursive", posmap_block_bytes=32))
register("P_X16", SchemeSpec(frontend="plb", posmap_format="uncompressed"))
register("PC_X32", SchemeSpec(frontend="plb", posmap_format="compressed"))
register("PI_X8", SchemeSpec(frontend="plb", posmap_format="flat", pmmac=True))
register(
    "PIC_X32", SchemeSpec(frontend="plb", posmap_format="compressed", pmmac=True)
)
register(
    "PC_X64",
    SchemeSpec(
        frontend="plb",
        posmap_format="compressed",
        num_blocks=2**15,
        block_bytes=128,
        blocks_per_bucket=3,
    ),
)
register(
    "phantom_4kb",
    SchemeSpec(frontend="linear", num_blocks=2**12, block_bytes=4096),
)
