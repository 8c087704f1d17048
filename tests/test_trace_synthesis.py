"""Trace synthesis: the native kernel, the interpreted reference, and a
committed value — each pinned to the other two.

A trace is the *input* of every replay, so its two producers must agree
on every byte: ``_replay_core.synthesize_trace`` (pattern mixture,
MT19937 draws and the L1+L2 hierarchy in one C call) and
``CacheHierarchy.run(spec.refs(rng))`` (the reference, and what runs
without the extension). The lockstep cases compare them directly and
need the extension; the digests here and in
``tests/test_equivalence_golden.py`` pin each path to a committed value,
so the two cannot drift together either.

What the interpreted reference costs decides what runs by default: a
stand-in with a working set of 6 MiB or more spends seconds in warm-up
alone, and all 96 cells of name x seed x budget take about five minutes.
Every cell's native trace is checked against a digest the interpreted
path produced; the direct comparison runs for the light names at the
150-miss budget, all three seeds — the heavy ones never run the
interpreted reference in tier-1 — and for all 96 cells under
``REPRO_FULL=1`` (the compiled CI lane has a step for it).
"""

import dataclasses
import hashlib
import os
import random
from array import array
from contextlib import contextmanager
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ProcessorConfig
from repro.proc.hierarchy import CacheHierarchy
from repro.sim import runner as runner_module
from repro.settings import Settings
from repro.sim.native import build_hint, load_native_core
from repro.sim.runner import SimulationRunner, synthesize_trace
from repro.utils.rng import DeterministicRng
from repro.workloads.spec import (
    MULTI_TENANT_MIXES,
    SPEC_BENCHMARKS,
    SpecStandIn,
    benchmark,
)
from repro.workloads.synthetic import Pattern


def require_core():
    """The built extension; its absence is a skip, or under
    ``REPRO_NATIVE=require`` (the CI ``require`` lanes) the
    ``NativeKernelUnavailable`` that ``load_native_core`` raises."""
    module = load_native_core()
    if module is None:
        pytest.skip(f"compiled core not built ({build_hint()})")
    return module


@pytest.fixture
def core():
    return require_core()


def _boom(*_args, **_kwargs):
    raise AssertionError("the interpreted hierarchy ran where the kernel should have")


@contextmanager
def kernel_only():
    """The interpreted path poisoned: a kernel that quietly fell back
    cannot pass for one that ran."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CacheHierarchy, "run", _boom)
        yield


@contextmanager
def interpreted_only():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE", "off")
        yield


def runner_trace(name, seed, misses):
    runner = SimulationRunner(
        misses_per_benchmark=misses, seed=seed, cache_dir=None, result_cache_dir=None
    )
    return runner.trace(name)


# -- (a) every registered stand-in, both paths ------------------------------------

NAMES = (
    list(SPEC_BENCHMARKS)
    + list(MULTI_TENANT_MIXES)
    + ["mcf@wss=8388608", "hmmer+gob@wss=6291456"]
)
SEEDS = (2015, 7919, 1)
BUDGETS = (150, 2000)
#: Stand-ins whose interpreted warm-up alone is seconds (working sets of
#: 6 MiB and up).
HEAVY = {"astar", "bzip2", "libq", "mcf", "omnet", "sjeng", "mcf+libq", "mcf@wss=8388608"}
FULL = Settings.from_env().full


def cells(direct: bool):
    """name x seed x budget as pytest params, the slow ones marked.

    ``direct`` keeps only the cells whose interpreted reference tier-1
    can afford (see the module docstring) unless ``REPRO_FULL`` is set.
    """
    for name in NAMES:
        for seed in SEEDS:
            for misses in BUDGETS:
                heavy = name in HEAVY
                if direct and not FULL and (misses > 150 or heavy):
                    continue
                slow = direct and (misses > 150 or heavy)
                yield pytest.param(
                    name, seed, misses,
                    marks=[pytest.mark.slow] if slow else [],
                    id=f"{name}-{seed}-{misses}",
                )


@pytest.mark.parametrize("name, seed, misses", cells(direct=True))
def test_native_equals_interpreted(core, name, seed, misses):
    with kernel_only():
        native = runner_trace(name, seed, misses)
    with interpreted_only():
        interpreted = runner_trace(name, seed, misses)
    assert native == interpreted
    assert native.to_bytes() == interpreted.to_bytes()
    assert native.llc_misses == misses
    lines, writes = native.columns()
    assert lines.tolist() == [e.line_addr for e in interpreted.events]
    assert writes.tolist() == [e.is_write for e in interpreted.events]


@pytest.mark.parametrize("name, seed, misses", cells(direct=False))
def test_native_matches_interpreted_digest(core, name, seed, misses):
    """Every cell, at the kernel's cost: SHA-256 of the trace image
    against the value ``REPRO_NATIVE=off`` produced (regenerate with
    ``python tests/test_trace_synthesis.py``, which runs interpreted)."""
    with kernel_only():
        image = runner_trace(name, seed, misses).to_bytes()
    assert hashlib.sha256(image).hexdigest() == INTERPRETED_DIGESTS[f"{name}-{seed}-{misses}"]


# -- (b) random mixtures over tiny hierarchies ------------------------------------

tiny_level = st.tuples(st.sampled_from([2, 4, 8]), st.integers(1, 4))  # sets, ways
alphas = st.one_of(st.just(1.0), st.floats(0.4, 1.6))
fractions = st.floats(0.0, 1.0)


@st.composite
def patterns(draw):
    region = draw(st.one_of(st.none(), st.integers(64, 8192)))
    return Pattern(
        kind=draw(st.sampled_from(
            ["sequential", "strided", "uniform", "zipf", "pointer_chase", "hot_cold"]
        )),
        step=draw(st.one_of(st.sampled_from([8, 16, 64, 256]), st.integers(1, 700))),
        alpha=draw(alphas),
        hot_fraction=draw(fractions),
        hot_probability=draw(fractions),
        region_wss=region,
        offset=0 if region is None else draw(st.integers(0, 1 << 14)),
    )


@st.composite
def stand_ins(draw):
    mixture = draw(st.lists(
        st.tuples(st.floats(0.01, 1.0), patterns()), min_size=1, max_size=4
    ))
    return SpecStandIn(
        name="random",
        wss_bytes=draw(st.integers(64, 16384)),
        patterns=tuple(mixture),
        write_fraction=draw(st.one_of(fractions, st.floats(0.5, 1.0))),
        gap_instructions=draw(st.integers(0, 6)),
    )


@settings(max_examples=300, deadline=None)
@given(
    spec=stand_ins(),
    seed=st.integers(0, 2**32),
    l1=tiny_level,
    l2=tiny_level,
    line_bytes=st.sampled_from([16, 64]),
    warmup=st.integers(0, 60),
)
def test_random_mixture_on_tiny_hierarchy(spec, seed, l1, l2, line_bytes, warmup):
    """A few hundred references over 2-8 sets of 1-4 ways hit every rule:
    LRU victims, L1 -> L2 installs, both write-back paths."""
    require_core()
    proc = ProcessorConfig(
        l1_bytes=l1[0] * l1[1] * line_bytes, l1_ways=l1[1],
        l2_bytes=l2[0] * l2[1] * line_bytes, l2_ways=l2[1],
        line_bytes=line_bytes,
    )
    # How many demand misses do 600 references make?  (A mixture that
    # stops missing never ends on either path.)
    bounded = CacheHierarchy(proc).run(
        islice(spec.refs(DeterministicRng(seed)), 600), warmup_refs=warmup
    )
    misses = bounded.llc_misses
    assume(misses > 0)
    args = (spec, DeterministicRng(seed), proc, "random", misses, warmup)
    with kernel_only():
        native = synthesize_trace(*args)
    with interpreted_only():
        interpreted = synthesize_trace(*args)
    assert native == interpreted
    assert native.to_bytes() == interpreted.to_bytes()
    assert interpreted.events == bounded.events[: len(interpreted.events)]


# -- (c) MT19937 known answers ----------------------------------------------------

MODULI = [1, 2, 3, 2**7, 2**7 + 1, 2**16, 2**16 + 1, 2**31, 2**31 + 1, 2**32 - 1]


def burned(seed: int, burn: int):
    """(random.Random advanced by ``burn`` words, its state block)."""
    rng = random.Random(seed)
    for _ in range(burn):
        rng.getrandbits(32)
    return rng, array("I", rng.getstate()[1])


@pytest.mark.parametrize("seed", [0, 2015, 2**40 + 7])
@pytest.mark.parametrize("burn", [0, 5, 623])
class TestMersenneTwister:
    """More than 624 draws each, so every stream crosses a state
    regeneration; ``burn`` starts it at a different index."""

    def test_random_stream(self, core, seed, burn):
        reference, state = burned(seed, burn)
        assert core.mt_draws(state, 0, 700) == [reference.random() for _ in range(700)]

    @pytest.mark.parametrize("n", MODULI)
    def test_randbelow_stream(self, core, seed, burn, n):
        reference, state = burned(seed, burn)
        assert core.mt_draws(state, n, 700) == [reference.randrange(n) for _ in range(700)]


def test_mt_state_is_the_streams_state():
    rng = DeterministicRng(77)
    rng.random()
    twin = random.Random()
    twin.setstate((3, tuple(rng.mt_state()), None))
    assert [rng.random() for _ in range(5)] == [twin.random() for _ in range(5)]


# -- (d) the trace cache does not care who wrote an entry -------------------------


@pytest.mark.parametrize("writer", ["native", "interpreted"])
def test_cache_round_trip_across_paths(core, monkeypatch, tmp_path, writer):
    paths = {"native": kernel_only, "interpreted": interpreted_only}
    reader = "interpreted" if writer == "native" else "native"

    def trace(path, cache_dir):
        with paths[path]():
            runner = SimulationRunner(
                misses_per_benchmark=150, seed=2015,
                cache_dir=cache_dir, result_cache_dir=None,
            )
            return runner, runner.trace("gob")

    first, written = trace(writer, tmp_path)
    assert first.trace_cache.stores == 1
    _runner, own = trace(reader, None)
    monkeypatch.setattr(runner_module, "synthesize_trace", _boom)
    second, loaded = trace(reader, tmp_path)
    assert second.trace_cache.hits == 1
    assert loaded == written == own
    assert loaded.to_bytes() == own.to_bytes()


# -- pattern selection never runs off the end of the weights ----------------------


def test_three_way_mix_with_short_cumulative_weights(monkeypatch):
    """``a+b+c`` divides weights by three; if float accumulation leaves
    ``cum[-1]`` below a draw, selection clamps to the last pattern where
    it used to raise StopIteration inside the generator."""
    spec = benchmark("gob+hmmer+h264")
    true_weights = spec.cumulative_weights()
    # The natural shortfall is one ulp; make it a quarter of all draws.
    monkeypatch.setattr(
        SpecStandIn, "cumulative_weights",
        lambda self: [0.75 * c for c in true_weights],
    )
    refs = list(islice(spec.refs(DeterministicRng(5)), 2000))
    last_region = spec.patterns[-1][1]
    in_last = sum(1 for _gap, _w, addr in refs if addr >= last_region.offset)
    assert in_last > 0.25 * len(refs)

    if load_native_core() is None:
        return
    args = (spec, DeterministicRng(5), ProcessorConfig(), spec.name, 100, 1000)
    with kernel_only():
        native = synthesize_trace(*args)
    with interpreted_only():
        assert native == synthesize_trace(*args)


# -- what the kernel hands back to the interpreted path ---------------------------


def test_stand_in_beyond_32_bits_takes_the_interpreted_path(core):
    """A modulus the kernel cannot draw in one word is not an error: the
    reference handles any size."""
    huge = dataclasses.replace(
        benchmark("gob"),
        patterns=((1.0, Pattern("sequential", 64, region_wss=1 << 33)),),
    )
    args = (huge, DeterministicRng(3), ProcessorConfig(), "huge", 20, 0)
    with pytest.raises(OverflowError):
        core.synthesize_trace(
            [("sequential", 1 << 33, 64, 0.9, 0.05, 0.9, 0)], [1.0], 0.3, 12,
            DeterministicRng(3).mt_state() * 2, (64, 32768, 4, 1 << 20, 16), 0, 20,
        )
    trace = synthesize_trace(*args)
    assert trace.llc_misses == 20
    with interpreted_only():
        assert trace == synthesize_trace(*args)


# -- the committed digests ---------------------------------------------------------

INTERPRETED_DIGESTS = {
    "astar-2015-150": "ad6e8e51d8524f2c5abc45bbdf4b4e8a2905eae6d24e08ab628e0c2b5f2bdc53",
    "astar-2015-2000": "21c9ae4f267ae69d1e49ec3a5b824efa4e77650bfe2e9c3e967bb9b4b34ed226",
    "astar-7919-150": "b471a2e359a62b6b6ba29120cecfc8eaea3a9880331d51fa77ac60f60c0fdd89",
    "astar-7919-2000": "c099a790e735d2bec825e3da565afddc1593d8a5f7b70af1e7ca34647090a7a0",
    "astar-1-150": "111f9fa4597515d3990d86cf359dfc6486a9a7376535e6ed5cfc885d487c82b0",
    "astar-1-2000": "1cf7d951ce54efbde027c4b824265d53e55f4beddd72c88f9c0424de9cd47258",
    "bzip2-2015-150": "a1a111e609b03beafc477fd288dffd7daac7235c5ee0ae55270d6e26337e78cc",
    "bzip2-2015-2000": "f76136f75882955201396aaf38fe2c50985c9f44c6d841db165c67bf68ab275a",
    "bzip2-7919-150": "828e22716498e2dfa7dad1d26946013e80c4ba22a954abb410bf07b339c7fd52",
    "bzip2-7919-2000": "497eb52846882ee071b896de6e962e20cd1b47cefc8fc1261af3a840787d78ab",
    "bzip2-1-150": "864f576b39c87ee8a243e92367c6e2b31680275c05c9b92e7cd0c1ac426e7d41",
    "bzip2-1-2000": "8dc1d5308dbf35c46276a51d8341b957ccf439f627b086ace9893d3261fe92b9",
    "gcc-2015-150": "5e487c0430057a9f2eb2c2db911405f08396f0b24daaee7bebcaed35f9786930",
    "gcc-2015-2000": "61b7378d8c9a6c308352b84e75c89bfb689e8998bca18d4d288f2942d0f1bce0",
    "gcc-7919-150": "89644c9efd8e85169d75f53496c0197bfa0e33ec07d2ded4a3e9490038296a86",
    "gcc-7919-2000": "7d2bfc59c305fdd377a8078c8747183ee22dbd1987ebea4b573360756a7b5a4d",
    "gcc-1-150": "f3a98c86fc48554b287924e25ddb2e32843602c13ff9da40cc7029a4ec9afe38",
    "gcc-1-2000": "0fa3285cd1fe45a8a8bf2daee59c382908d7164b2cb89798263c820a4d224d88",
    "gob-2015-150": "6b54ba015526e70dce59618c36d875c3eb44a466511b2da9a5807d03207584fe",
    "gob-2015-2000": "99c09fa9bd11338e70cc85919d084d4111ac161940598173993a5a02bfd88355",
    "gob-7919-150": "2f1e10d64541ebca161259ae9f2cd969385d9739734ad63b038910bd3843abfa",
    "gob-7919-2000": "543ac8b6f0c9d438b8a9afa78c438a721c03ec574a06a6083aa6e4ca0cbb39ce",
    "gob-1-150": "f289080dad0d6aac05d26af82ec1110b5ce5fa6e77c7af9da7d948fe52889812",
    "gob-1-2000": "0bdd7db9799d5cb4d7ad38b3a08e60da1800f2e7897ff0a5958384018db43f63",
    "h264-2015-150": "055471cbac89bba6c52d8131bf5b337cae404613e90ecaea37116da1312a8296",
    "h264-2015-2000": "4883b252f067a162faa4fd3513c8a35360717e2585a06332f74dfedb2f6c257e",
    "h264-7919-150": "26c77185956d12a22134a42d6710ea32c8489c96192292bec994ffd29232dfbe",
    "h264-7919-2000": "1ac3b22ea5fe5165194ac496b11b585da793915d2d660e1dc0b3e78a7962ecc2",
    "h264-1-150": "079ef155998d91d324b6967f47dc6703ffdc6ee656e0db59e0e0f8b4a60c0e0e",
    "h264-1-2000": "44173c4c979712f3f46af43c1f77b994a3e67025bba5684d1f34f955a548acf6",
    "hmmer-2015-150": "9f1dc26cb0985bc7255697b8befd9f7c978877351b29c3f7f934b3fdf43f1e44",
    "hmmer-2015-2000": "7d72d4ea9000320bcb027c5fe0dfe54507edeecd66b27d4a61358a1738033c15",
    "hmmer-7919-150": "0d1b1005bdc70d7126c9af6a5a57417677e981a342ea86015294eade7d5dbb67",
    "hmmer-7919-2000": "b90ddc01258fbe897fe87075ab2e99055ca897103ea383eff8531239a84a8d62",
    "hmmer-1-150": "dd1a09bec4e36fc21a260fe0bd65f23c8107150a86b0faba98b9c18524d40a89",
    "hmmer-1-2000": "257d3fe76a328f3d5444a91440bb74e24df2934f8099359f5cf237705509ae73",
    "libq-2015-150": "0100279476b4c8f69275ebb927375bab1df9c0d0223ea0d7ae1a1639339bdc3d",
    "libq-2015-2000": "f6fcfb0e1e70d7aa6433023bc20a4a47403243ba90ac73ca9829d888625e0284",
    "libq-7919-150": "eb541b86550ecba4a7fbf54574d265d56f3c02896e502efd21545156e4b635b0",
    "libq-7919-2000": "1c89079fb918cf989b779d1759c10a433cf19b868ee65298598a0e1111990a5a",
    "libq-1-150": "e3d3884849edc23ebed0637033f553a592c48a6068ec9093fc3449ceac31584b",
    "libq-1-2000": "54fb78a86af8a27a31a0c47947c1956d3877e003fe33fe592666742b8cb6c9af",
    "mcf-2015-150": "3704faf7866bd92d2215d3b9644f0e2e5ab63ac240a08518cdd961519cbb3987",
    "mcf-2015-2000": "3123e01fa409333c47da5a0c7c32ef7cb16d3f766d942628263814fc1a3bbe5f",
    "mcf-7919-150": "0672c4e8df2ddd54d018a9ea00399a6f8f681438155f01f49312631b1c826eee",
    "mcf-7919-2000": "85b9afc1fd868b1798748bc2044a07da2232bf66f013467d0c616050c9f583b1",
    "mcf-1-150": "8cd0e24e69ae0f4e5684b3a3aa4408df88b640ad4c996d9e1fd6093af920b35f",
    "mcf-1-2000": "bbdfaafffc037331b29c519edcc70219bba673350200f7eae9a5923bcf3746cd",
    "omnet-2015-150": "a5f495c0c39cccc2bfd819040c7c471656616d82a06109bdf0fcb4cb99b6acb4",
    "omnet-2015-2000": "bdc11143951f6ba488c7b5670659899fa91cebfcfc547093403fa3259b891d88",
    "omnet-7919-150": "b266fa182680eaaa807762c0940342fe162caa84c31436f5ec41fd449227f12f",
    "omnet-7919-2000": "69810af865a4c2686372b4a2a94521b3bd61e0b137979a23b388b2ebb3fff803",
    "omnet-1-150": "5ddede549608638cafbb4b68e08b8c3a64b7861ab7df54383a38b0bc15dcf816",
    "omnet-1-2000": "7bf938f2b7ea110aeb108259ef70df6009fd662ed8a13fdadf52170ad407f5e3",
    "perl-2015-150": "3611dd77a5683e2339b2e522f2d91643dc2ef56551178866cb1da05f52ec2885",
    "perl-2015-2000": "9c1a109de4e47da033ae2b9274c6d0e8425bb0b8dae57599cc3650e94035b5b8",
    "perl-7919-150": "654a4107b87e49418dd039c644b3e935438104104297da3cbceaf2eebfceb75e",
    "perl-7919-2000": "299bf9441bee49a5102b84ef3f6d18c5a9aa3e057b9362eb79a92f3c8668f062",
    "perl-1-150": "50d2e356cda24ef5cf1de0ee51bc0f474818b93a40a2e4503cff05c1b6bfbe21",
    "perl-1-2000": "de85a49634689f0dc7f2d97fb5a50b98c0f6b9746a92c11e0e151b43f1c042ef",
    "sjeng-2015-150": "c2146653b33af6657f79e1e683d7288085c0eba704d87675b7beb12f66786f0e",
    "sjeng-2015-2000": "9fec99deeb3a452c2d82091966f102799864531e83ee3d9652ea191739963750",
    "sjeng-7919-150": "7ee0b57f7049d90c6267d986b58f13ff6cc49867d88ebec420aadcf87860cb50",
    "sjeng-7919-2000": "bd47a511b7fbcbaf90614e0eb62dfc3dc0102c49e62d1ccca636db29d7d407be",
    "sjeng-1-150": "21fcef850e5969ddf734094b402588f49a242959416a017624e0dd7eb25cf555",
    "sjeng-1-2000": "f7b972d943731ec2a2ea165f8a67e45ea59858004845e531b64f7c6676bb8cb1",
    "hmmer+gob-2015-150": "d192b8367521b4f97d7361f14b9b3c0aeff2096d9ac09a19c9c79423ffa5d991",
    "hmmer+gob-2015-2000": "b3999021b0f963d3e62430256beb5bd0c75c6ace8ad097737e74ca651f073518",
    "hmmer+gob-7919-150": "b13f5bf8d1c846a611519158692524356f4193b42b1638ac572b783b08464a32",
    "hmmer+gob-7919-2000": "f9e9e1d583a60a5e19b390301fa82512a2f8e11fe1b4f1aa3a5eaf36adf78249",
    "hmmer+gob-1-150": "b012379b3014a52ad40095cbbdca65fe05c1b60964799a331b2c6b9d7349e64f",
    "hmmer+gob-1-2000": "852afb38b54fcb7ed71cf80a92987062be348173e1453a35631f8f2ebd7386c1",
    "gcc+h264-2015-150": "872af533c1cffe653ad0e857faa3296a2a537003dd226d609b5e0261148975f3",
    "gcc+h264-2015-2000": "c49cf334d01b57c58d57804f83363aa04bf25c3818828704993a6053fd4c5e34",
    "gcc+h264-7919-150": "575a6f46a866b921b1ea5e858fcb4d1c546bcb55fd2cf64bd7c66be023df8111",
    "gcc+h264-7919-2000": "e3d39f1c36298cd0b292ac274a7777edf85adc4ef5505efa8091d5ea52f509ad",
    "gcc+h264-1-150": "dbcad1f4c29b8b7ec6218b3b45fc7f8c19c5527850f8292d8a3e053244bca1f5",
    "gcc+h264-1-2000": "70658b6ab856fc04425537243bc5e2bad50c22a344bc33261b5d7f1de6caa0cc",
    "mcf+libq-2015-150": "90f457a353906742df147bdf8178d5b7596ec17d7d52b8091d28db39cd8ba400",
    "mcf+libq-2015-2000": "ae643728ce6e1bb7e88f077c5ccaf798666269a690eeb657114068e3593924e8",
    "mcf+libq-7919-150": "12ff9ff35d8471b9a51fec9b81629355d4eed9f28c042045d7a8c90150b70566",
    "mcf+libq-7919-2000": "81d3f51752b713cbb633380edca870b1af8daba6f45a89d21a110e5663bc9004",
    "mcf+libq-1-150": "59ec7de046f12e2cda909ac1bfdda06c88f30c87f19493452daeec0451e61dce",
    "mcf+libq-1-2000": "7f1d191d9b623b2492c96cf606ee4b2a6fa0f22e3d525ffe7d2995aaee9f0d64",
    "mcf@wss=8388608-2015-150": "3bb8182bdebf65df37dd1daaf70df9dbc7b2c37009a82a86870725546169cb51",
    "mcf@wss=8388608-2015-2000": "121125353e480c8f9af69272c603e67781b0e46d9c8eb438d891031c04e46788",
    "mcf@wss=8388608-7919-150": "b0f863e5f496bef0d3c68a0a2059b1631bce22ea79e5f460b40aef58714cb381",
    "mcf@wss=8388608-7919-2000": "05bc8245fdcb99e32aa22196cd8aedd4d0c03867acf5057c3bc27fe4d9e8231b",
    "mcf@wss=8388608-1-150": "b81c587d4170aa091d0b0d373a7edd9138e1e2653f304c07f327e76a31cbbf2a",
    "mcf@wss=8388608-1-2000": "b262f1c21583650bb20f4e43a43bf6cd8a1c97362811426bd7c96ece2d552293",
    "hmmer+gob@wss=6291456-2015-150": "45e2da81a47fa36bb99450b2e74013799a3fb53c39ae07509b9ae7c9d6c49247",
    "hmmer+gob@wss=6291456-2015-2000": "a8c18dec9f2ac3db551a99647a598fc2d73901f1bf7fe0dfa0045758e04f0e39",
    "hmmer+gob@wss=6291456-7919-150": "b74f37ac922e7d2c5955d76768bc48ef8ba7568445e4e11f54947f38fde2e3ce",
    "hmmer+gob@wss=6291456-7919-2000": "8c9d72a8bb77835702bbe342aedfa18577fce7c8749979957b370d4de9327d9d",
    "hmmer+gob@wss=6291456-1-150": "28116b5164c109414be058f18d63639e57d582256073445a641f863142e4fab1",
    "hmmer+gob@wss=6291456-1-2000": "5a74887ae007308b836ecf2119b98e243fd047b95eae383fdb914acfdd670cec",
}


if __name__ == "__main__":  # regenerate INTERPRETED_DIGESTS, interpreted
    os.environ["REPRO_NATIVE"] = "off"
    for cell in cells(direct=False):
        name, seed, misses = cell.values
        digest = hashlib.sha256(runner_trace(name, seed, misses).to_bytes()).hexdigest()
        print(f'    "{cell.id}": "{digest}",', flush=True)
