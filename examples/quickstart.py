"""Quickstart: an oblivious, integrity-verified RAM in a few lines.

Creates the paper's headline configuration — PLB + compressed PosMap +
PMMAC (PIC_X32) — stores some blocks, reads them back, and prints what
the ORAM controller did under the hood.

Run:  python examples/quickstart.py
"""

from repro import DeterministicRng, build_frontend


def main() -> None:
    # A 2^14-block ORAM (1 MiB of 64-byte blocks at simulation scale).
    oram = build_frontend("PIC_X32", num_blocks=2**14, rng=DeterministicRng(2015))

    # The processor-facing interface is an ordinary block RAM.
    oram.write(1000, b"attack at dawn".ljust(64, b"\x00"))
    oram.write(1001, b"retreat at dusk".ljust(64, b"\x00"))

    secret = oram.read(1000)
    print(f"block 1000: {secret.rstrip(bytes(1)).decode()}")
    assert oram.read(1001).startswith(b"retreat")

    # Never-written blocks read as zeroes, obliviously.
    assert oram.read(5) == bytes(64)

    # What the controller did:
    stats = oram.stats
    print(f"processor requests      : {stats.accesses}")
    print(f"ORAM tree path accesses : {stats.tree_accesses}")
    print(f"  for data blocks       : {stats.data_tree_accesses}")
    print(f"  for PosMap blocks     : {stats.posmap_tree_accesses}")
    print(f"PLB hits / misses       : {stats.plb_hits} / {stats.plb_misses}")
    print(f"MAC verifications       : {stats.mac_checks}")
    print(f"bytes on memory bus     : {oram.total_bytes_moved}")
    print(f"on-chip PosMap          : {oram.onchip_posmap_bytes} B "
          f"(vs {oram.num_blocks * 4} B without recursion)")


if __name__ == "__main__":
    main()
