"""The fast tier's BLAKE2b lanes against the reference order, on PMMAC.

On the fast tier a request computes every BLAKE2b compression it has
ready at one moment in one ``blake2b_lanes`` call: a WRITE's seal beside
its data block's leaf pair, a READ's verify beside its seal, a PLB
victim's seal beside the next level's leaf pair.  A lane's result is
counted only where the interpreted ``PlbFrontend.access`` makes that
call, and one computed ahead of a failure is dropped uncounted.  So on
``PI_X8`` (flat counters) and ``PIC_X32`` (compressed) the kernel-driven
frontend and the interpreted one must agree after every access — reads,
and writes whose payload is ``bytes`` (sealed in a lane), ``bytearray``
or a ``memoryview`` (sealed on their own) — and under attack: a flipped
MAC bit, two blocks swapped, a stale (block, counter) replay and PLB
counters at and past 2^96 - 1 raise the same exception with the same
message at the same access, leaving every ledger, the stash and the tree
digest equal.
"""

import pytest

from repro.adversary.tamper import StorageTamperer
from repro.backend.ops import Op
from repro.sim.native import unavailable_reason
from repro.utils.rng import DeterministicRng

from test_native_frontend import CORE, assert_same_state, pair

pytestmark = pytest.mark.skipif(CORE is None, reason=unavailable_reason())

SCHEMES = ("PI_X8", "PIC_X32")

#: How a WRITE hands over its block: only exact bytes are sealed in the
#: remap's lanes, the others through a call of their own.
WRAPS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(bytearray(data)),
}


def request(rng, blocks, block_bytes, write_share=0.5, hot=48):
    addr = rng.randrange(hot if rng.random() < 0.5 else blocks)
    if rng.random() >= write_share:
        return (addr, Op.READ)
    wrap = WRAPS[rng.choice(sorted(WRAPS))]
    return (addr, Op.WRITE, wrap(bytes([rng.randrange(256)]) * block_bytes))


def step(frontend, args):
    """One request: its result, or the exception it raised."""
    try:
        return ("ok", frontend.access(*args))
    except Exception as exc:  # noqa: BLE001 - compared across tiers
        return ("raised", type(exc), str(exc))


def lockstep(ref, nat, requests, context):
    """Both tiers through ``requests``; equal after each.  Returns the
    index and outcome of the first failure, or None."""
    for index, args in enumerate(requests):
        outcome = step(ref, args)
        assert outcome == step(nat, args), (context, index)
        assert_same_state(ref, nat, (context, index))
        if outcome[0] == "raised":
            return index, outcome
    return None


def traffic(ref, seed, steps, **kwargs):
    rng = DeterministicRng(seed)
    return [
        request(rng, ref.num_blocks, ref.config.block_bytes, **kwargs)
        for _ in range(steps)
    ]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestLanesInLockstep:
    def test_reads_and_writes_of_every_payload_type(self, scheme):
        ref, nat = pair(scheme)
        assert lockstep(ref, nat, traffic(ref, 4, 500), scheme) is None
        assert ref.stats.plb_evictions > 20 and ref.stats.mac_checks > 100
        # Every seal is counted once, where the reference makes it.
        assert nat.crypto.mac.call_count == ref.crypto.mac.call_count

    def test_a_tree_of_no_levels_derives_and_counts_no_leaf(self, scheme):
        """One block, a one-bucket tree (L = 0): every leaf is 0 and no
        PRF call is counted, while the seals and verifies still run."""
        ref, nat = pair(scheme, num_blocks=1, onchip_entries=1)
        assert ref.config.levels == 0
        assert lockstep(ref, nat, traffic(ref, 12, 60, hot=1), scheme) is None
        assert nat.crypto.prf.call_count == 0
        assert nat.crypto.mac.call_count > 60

    def test_a_flipped_mac_bit(self, scheme):
        ref, nat = pair(scheme)
        warm = traffic(ref, 5, 120)
        assert lockstep(ref, nat, warm, scheme) is None
        target = next(
            args[0] for args in reversed(warm)
            if args[1] is Op.WRITE
            and StorageTamperer(ref.backend.storage).find(args[0]) is not None
        )
        for frontend in (ref, nat):
            assert StorageTamperer(frontend.backend.storage).corrupt_mac(target)
        failure = lockstep(ref, nat, [(target, Op.READ)] * 40, scheme)
        assert failure is not None
        assert failure[1][2].startswith(f"MAC mismatch for block {target:#x}")

    def test_a_swapped_pair_of_blocks(self, scheme):
        ref, nat = pair(scheme)
        assert lockstep(ref, nat, traffic(ref, 6, 150), scheme) is None
        tamperer = StorageTamperer(ref.backend.storage)
        resident = [
            (index, record[0])
            for index in range(ref.backend.storage.config.num_buckets)
            for record in ref.backend.storage.bucket_records(index)
            if record[0] < ref.num_blocks and record[3] is not None
        ]
        (first, a), (second, b) = resident[0], resident[-1]
        assert tamperer.find(a) and tamperer.find(b) and a != b
        for frontend in (ref, nat):
            storage = frontend.backend.storage
            rows = {
                index: list(storage.bucket_records(index))
                for index in {first, second}
            }
            pa = next(i for i, r in enumerate(rows[first]) if r[0] == a)
            pb = next(i for i, r in enumerate(rows[second]) if r[0] == b)
            ra, rb = rows[first][pa], rows[second][pb]
            # Each address keeps its place; data and tag change hands.
            rows[first][pa] = (ra[0], ra[1], rb[2], rb[3])
            rows[second][pb] = (rb[0], rb[1], ra[2], ra[3])
            for index, records in rows.items():
                storage.replace_bucket_records(index, tuple(records))
        failure = lockstep(ref, nat, [(a, Op.READ), (b, Op.READ)] * 20, scheme)
        assert failure is not None and "MAC mismatch" in failure[1][2]

    def test_a_stale_block_and_counter_replayed(self, scheme):
        ref, nat = pair(scheme)
        assert lockstep(ref, nat, traffic(ref, 7, 100), scheme) is None
        tamperers = [StorageTamperer(f.backend.storage) for f in (ref, nat)]
        for tamperer in tamperers:
            tamperer.snapshot()
        assert lockstep(ref, nat, traffic(ref, 8, 100), scheme) is None
        for tamperer in tamperers:
            tamperer.replay_all()
        failure = lockstep(ref, nat, traffic(ref, 9, 300), scheme)
        assert failure is not None
        assert failure[1][1].__name__ == "IntegrityViolationError"

    @pytest.mark.parametrize("high", [2**32 - 1, 2**32])
    def test_plb_counters_at_the_top_of_96_bits(self, scheme, high):
        """Every resident PosMap block's counter set to 2^96 - 1 (its
        victim seal still fits a lane) or to 2^96 (it does not: the seal
        raises where ``to_bytes(12)`` does, with nothing counted)."""
        ref, nat = pair(scheme)
        assert lockstep(ref, nat, traffic(ref, 10, 80), scheme) is None
        for frontend in (ref, nat):
            counters = frontend.plb.counters
            for way, tag in enumerate(frontend.plb.tags):
                if tag >= 0:
                    counters[2 * way] = 2**64 - 1
                    counters[2 * way + 1] = high
        failure = lockstep(
            ref, nat, traffic(ref, 11, 400, write_share=0.3, hot=ref.num_blocks),
            scheme,
        )
        assert failure is not None
        if high == 2**32:
            assert failure[1][1:] == (OverflowError, "int too big to convert")
