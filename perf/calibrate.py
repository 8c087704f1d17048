"""Host-speed calibration: one fixed kernel, and slice-bracketed timing.

The sandbox this benchmark runs in changes speed by up to 2x within a
minute (wall and CPU time drift together, so it is the host, not
descheduling). Every timed region is therefore cut into slices, each
bracketed by a run of one fixed kernel; a slice's wall time is scaled by
the kernel's rate around it, relative to the rate pinned when the
benchmark was defined (``reference.json: calibration.ref_rate``), so a
reported time is "seconds at reference host speed".

The kernel mixes what the simulator's hot path is made of — bytecode
dispatch, dict probes, ``blake2b.copy().update()`` and cache-missing
memory touches — so that contention which slows the one slows the other.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Iterations of the kernel per calibration slice (~3 ms at ref speed),
#: after an untimed prelude that refills the caches the workload emptied.
SLICE_ITERS = 3000
PRELUDE_ITERS = 256
#: Around a region that is one slice (a set-up, a whole ``service.run()``)
#: the two neighbours are all that is known of the host's speed during
#: it, so they are fifteen times longer (~45 ms).
LONG_SLICE_ITERS = 15 * SLICE_ITERS

#: The kernel strides over this buffer so most touches miss the caches.
BUFFER_BYTES = 32 << 20
_STRIDE = 4099 * 64

_MESSAGE = bytes(range(84))  # one PMMAC message: 12 B count + 8 B addr + 64 B data

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> Dict:
    """``reference.json``: what ``BENCHMARK.json`` has no key for."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Calibrator:
    """Owns the kernel's state; ``rate()`` runs one slice of it."""

    def __init__(self) -> None:
        #: The pinned kernel rate (iterations/s) all times are scaled to.
        self.ref_rate = float(load_reference()["calibration"]["ref_rate"])
        self._buffer = bytearray(BUFFER_BYTES)
        self._table = {i: i for i in range(1024)}
        self._keyed = hashlib.blake2b(key=b"perf-calibration", digest_size=14)
        self._pos = 0

    def rate(self, iters: int = SLICE_ITERS) -> float:
        """Kernel iterations per second over one slice."""
        buffer = self._buffer
        table = self._table
        keyed_copy = self._keyed.copy
        mask = BUFFER_BYTES - 1
        pos = self._pos
        acc = 0
        start = 0.0
        for i in range(-PRELUDE_ITERS, iters):
            if i == 0:
                start = time.perf_counter()
            acc += table[i & 1023]
            state = keyed_copy()
            state.update(_MESSAGE)
            acc ^= state.digest()[0]
            pos = (pos + _STRIDE) & mask
            acc += buffer[pos]
        elapsed = time.perf_counter() - start
        self._pos = pos
        buffer[0] = acc & 0xFF  # the result is consumed
        return iters / elapsed

    def median_rate(self, slices: int = 50) -> float:
        """Median slice rate: the live host speed in a run's fingerprint."""
        rates = sorted(self.rate() for _ in range(slices))
        return rates[len(rates) // 2]


class SliceClock:
    """Accumulates raw and normalised time over bracketed slices.

    ``start()`` runs a calibration slice and starts timing; ``split()``
    ends the slice, runs the next calibration slice (shared with the
    slice that follows) and starts timing again; ``time(fn)`` is the two
    around one call. The normalised time of a slice is
    ``wall * rate / ref_rate`` with ``rate`` the harmonic mean of the two
    neighbours, that is the kernel's mean time per iteration around the
    slice. Interference comes in bursts that outlast a slice, so the mean
    slowness of the neighbours estimates the slowness inside; scaling by
    the faster neighbour alone left twice the run-to-run spread (README,
    "Noise").
    """

    def __init__(self, calibrator: Calibrator, iters: int = SLICE_ITERS):
        self.calibrator = calibrator
        self.iters = iters
        self.raw_s = 0.0
        self.norm_s = 0.0
        #: ``(wall, rate before, rate after)`` per slice.
        self.slices: List[Tuple[float, float, float]] = []
        self._rate: Optional[float] = None
        self._started = 0.0

    def start(self) -> None:
        if self._rate is None:
            self._rate = self.calibrator.rate(self.iters)
        self._started = time.perf_counter()

    def split(self) -> None:
        wall = time.perf_counter() - self._started
        cal = self.calibrator
        before = self._rate
        after = self._rate = cal.rate(self.iters)
        rate = 2.0 / (1.0 / before + 1.0 / after)
        self.raw_s += wall
        self.norm_s += wall * rate / cal.ref_rate
        self.slices.append((wall, before, after))
        self._started = time.perf_counter()

    def time(self, fn: Callable, *args, **kwargs):
        self.start()
        out = fn(*args, **kwargs)
        self.split()
        return out
