"""Scheme presets: geometry matches the paper's named configurations."""

import pytest

from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.unified import PlbFrontend
from repro.presets import SCHEMES, build_frontend
from repro.utils.rng import DeterministicRng


class TestFactories:
    def test_r_x8_is_recursive(self):
        frontend = build_frontend("R_X8", num_blocks=2**12)
        assert isinstance(frontend, RecursiveFrontend)
        assert frontend.space.fanout == 8

    def test_p_x16(self):
        frontend = build_frontend("P_X16", num_blocks=2**12)
        assert isinstance(frontend, PlbFrontend)
        assert frontend.format.fanout == 16
        assert not frontend.pmmac

    def test_pc_x32(self):
        frontend = build_frontend("PC_X32", num_blocks=2**12)
        assert frontend.format.fanout == 32
        assert frontend.format.kind == "compressed"
        assert not frontend.pmmac

    def test_pi_x8(self):
        frontend = build_frontend("PI_X8", num_blocks=2**12)
        assert frontend.format.fanout == 8
        assert frontend.format.kind == "flat"
        assert frontend.pmmac

    def test_pic_x32(self):
        frontend = build_frontend("PIC_X32", num_blocks=2**12)
        assert frontend.format.fanout == 32
        assert frontend.pmmac

    def test_pc_x64_doubles_fanout(self):
        frontend = build_frontend("PC_X64", num_blocks=2**12)
        assert frontend.config.block_bytes == 128
        assert frontend.format.fanout == 64
        assert frontend.config.blocks_per_bucket == 3

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_frontend("QQQ")

    def test_schemes_tuple_complete(self):
        for scheme in SCHEMES:
            assert build_frontend(scheme, num_blocks=2**10) is not None


class TestPhantom:
    def test_no_recursion(self):
        frontend = build_frontend("phantom_4kb", num_blocks=2**8)
        assert frontend.posmap.entries == 2**8
        assert frontend.config.block_bytes == 4096

    def test_functional(self):
        frontend = build_frontend(
            "phantom_4kb", num_blocks=2**6, rng=DeterministicRng(2)
        )
        payload = b"\x55" * 4096
        frontend.write(3, payload)
        assert frontend.read(3) == payload


class TestCrossSchemeConsistency:
    def test_all_schemes_agree_on_contents(self):
        """Every scheme is a correct RAM: same op sequence, same answers."""
        rng_ops = DeterministicRng(77)
        ops = []
        for step in range(150):
            addr = rng_ops.randrange(2**10)
            write = rng_ops.random() < 0.5
            ops.append((addr, write, bytes([step % 256]) * 64))
        reference = None
        for scheme in SCHEMES:
            frontend = build_frontend(
                scheme, num_blocks=2**10, rng=DeterministicRng(5)
            )
            outputs = []
            for addr, write, payload in ops:
                if write:
                    frontend.write(addr, payload)
                else:
                    outputs.append((addr, frontend.read(addr)))
            if reference is None:
                reference = outputs
            else:
                assert outputs == reference, scheme
