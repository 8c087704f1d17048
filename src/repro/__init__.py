"""Freecursive ORAM — reproduction of Fletcher et al., ASPLOS 2015.

A complete, pure-Python implementation of "Freecursive ORAM: [Nearly]
Free Recursion and Integrity Verification for Position-based Oblivious
RAM": Path ORAM backend, Recursive ORAM baseline, the PosMap Lookaside
Buffer with a Unified ORAM tree (S4), compressed PosMap (S5), PMMAC
integrity verification (S6), and the full evaluation substrate (DDR3
timing model, cache hierarchy, SPEC stand-in workloads, ASIC area model).

Quickstart::

    from repro import build_frontend

    oram = build_frontend("PIC_X32", num_blocks=2**14)  # PLB + compression + PMMAC
    oram.write(7, b"secret".ljust(64, b"\\0"))
    assert oram.read(7).startswith(b"secret")

See README.md for the system inventory (its Layout section) and
:mod:`repro.eval` for every table and figure of the paper, each printed
beside the paper's values by ``python -m repro all``.
"""

from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.config import FrontendTimings, OramConfig, ProcessorConfig
from repro.crypto.suite import CryptoSuite
from repro.errors import (
    BlockNotFoundError,
    ConfigurationError,
    IntegrityViolationError,
    ReproError,
    SpecError,
    StashOverflowError,
)
from repro.frontend.linear import LinearFrontend
from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.unified import PlbFrontend
from repro.presets import SCHEMES, build_frontend
from repro.spec import SchemeSpec, get_spec, register, spec_names
from repro.utils.rng import DeterministicRng

__version__ = "1.0.0"

__all__ = [
    "Op",
    "PathOramBackend",
    "OramConfig",
    "ProcessorConfig",
    "FrontendTimings",
    "CryptoSuite",
    "ReproError",
    "StashOverflowError",
    "IntegrityViolationError",
    "BlockNotFoundError",
    "ConfigurationError",
    "SpecError",
    "LinearFrontend",
    "RecursiveFrontend",
    "PlbFrontend",
    "SCHEMES",
    "build_frontend",
    "SchemeSpec",
    "get_spec",
    "register",
    "spec_names",
    "DeterministicRng",
    "__version__",
]
