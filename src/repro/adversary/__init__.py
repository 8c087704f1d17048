"""Adversary models from the threat model (§2).

- :class:`~repro.adversary.observer.TraceObserver` — the passive data-centre
  adversary: records the DRAM-visible access sequence (which tree, which
  path) for distinguishability analysis.
- :class:`~repro.adversary.tamper.Tamperer` — the active adversary: flips
  ciphertext bits, replays stale bucket images, and rolls back encryption
  seeds against an :class:`~repro.storage.encrypted.EncryptedTreeStorage`.
- :class:`~repro.adversary.tamper.StorageTamperer` — the same attack
  repertoire expressed over content records, uniform across the object
  and columnar plaintext storage models.
"""

from repro.adversary.observer import AccessEvent, TraceObserver
from repro.adversary.tamper import StorageTamperer, Tamperer

__all__ = ["AccessEvent", "TraceObserver", "Tamperer", "StorageTamperer"]
