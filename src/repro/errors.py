"""Exception hierarchy for the Freecursive ORAM library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class StashOverflowError(ReproError):
    """Stash occupancy exceeded its configured limit.

    For Z >= 4 this is a negligible-probability event in a correct system
    (§3.1.2); seeing it in a simulation almost always means an adversary
    injected blocks or a frontend violated the readrmv/append discipline.
    """


class IntegrityViolationError(ReproError):
    """PMMAC or Merkle verification failed — memory was tampered with.

    Per the threat model (§2), the processor receives this as an exception
    and may kill the program.
    """


class BlockNotFoundError(ReproError):
    """The block of interest was not on its path nor in the stash.

    With honest memory this indicates a PosMap/backend bug; with an active
    adversary it indicates tampering (e.g. the block's address bits were
    corrupted, §6.5.2) and is handled like an integrity violation.
    """


class ConfigurationError(ReproError):
    """Inconsistent or unsupported parameter combination."""


class SpecError(ReproError, ValueError):
    """Malformed scheme/sweep spec: unknown name, field, or value.

    Subclasses :class:`ValueError` as well so call sites that predate the
    declarative spec layer (``build_frontend`` rejecting an unknown scheme
    name with ``ValueError``) keep their historical contract.
    """


class NativeKernelUnavailable(ReproError):
    """The fast tier's native kernels are needed but cannot be loaded.

    Raised when the optional C extension is unbuilt, stale or switched
    off and the fast tier was asked for anyway: under
    ``REPRO_NATIVE=require`` (the CI ``require`` lane's setting), by an
    explicit ``mode="compiled"`` replay, or by constructing a columnar
    backend. Without those the default falls back to the reference tier.
    """


class InjectedFault(ReproError):
    """A fault deliberately raised by the :mod:`repro.faults` plane.

    Recovery machinery (cell retry, shard failover, cache fallback) treats
    this exactly like an organic failure; tests use the distinct type to
    assert that *only* injected faults fired.
    """


class FaultKillPoint(InjectedFault):
    """A simulated hard crash at a kill-point (e.g. mid cache write).

    Raised where a real process would die: callers other than the chaos
    harness must never catch it below the process boundary, so crash-safety
    tests observe the exact on-disk state a SIGKILL would leave behind.
    """


class FabricError(ReproError):
    """The sweep fabric cannot make progress.

    Raised by the coordinator when it has no live worker: every worker
    has died and no respawn budget remains (or it forked none). Every cell finished
    before this propagates is in the runner's result store (when it has
    one), so running the sweep again picks up where the fabric stopped.
    """


class SweepInterrupted(ReproError):
    """A sweep stopped early (Ctrl-C or injected interrupt) with partial work.

    Carries the partial ``report`` dict (completed cells only, marked
    ``"interrupted": True``) so the CLI can persist it and print a
    hint that running the sweep again finishes it, then exit with status
    130.
    """

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report


#: Exception types a backend *rollback* is allowed to absorb (chained
#: onto the original error as a note) when restoration itself fails:
#: the library's own errors plus the container/buffer faults a corrupted
#: column snapshot can produce. Anything else escaping a restore path is
#: a programming error and must propagate, not be silently attached.
RESTORE_FAILURES = (ReproError, ValueError, KeyError, IndexError, BufferError)

#: Exception types a fabric worker reports as an *ordinary* failed cell
#: (one error reply, one charged attempt, retried/quarantined by the
#: coordinator): the library's own errors, the data faults a corrupted
#: spec/trace/cache can produce, and environmental failures (I/O,
#: memory, arithmetic). Programming errors — TypeError, AttributeError,
#: and friends — are *not* listed: they propagate and kill the worker so
#: bugs surface loudly instead of silently burning the retry budget.
CELL_FAILURES = RESTORE_FAILURES + (ArithmeticError, MemoryError, OSError)


class CacheCorruptionWarning(RuntimeWarning):
    """A disk-cache entry was corrupt/stale and has been evicted for recompute.

    Emitted (and counted on the cache object) instead of raising so a
    damaged cache degrades to recomputation, never to an aborted run.
    """
