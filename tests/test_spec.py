"""Declarative SchemeSpec layer: round-trips, registry, validation, runner."""

import dataclasses
import inspect

import pytest

from repro.errors import ConfigurationError, ReproError, SpecError
from repro.frontend.linear import LinearFrontend
from repro.frontend.recursive import RecursiveFrontend
from repro.frontend.unified import PlbFrontend
from repro.presets import build_frontend
from repro.spec import (
    FIELD_ALIASES,
    SPEC_FIELDS,
    SchemeSpec,
    decompose_spec,
    get_spec,
    parse_size,
    register,
    resolve_spec,
    spec_label,
    spec_names,
)

ALL_NAMES = ("R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32", "PC_X64", "phantom_4kb")


class TestRegistry:
    def test_all_paper_schemes_registered(self):
        assert set(spec_names()) >= set(ALL_NAMES)

    def test_fanouts_match_paper_names(self):
        assert get_spec("R_X8").fanout == 8
        assert get_spec("P_X16").fanout == 16
        assert get_spec("PC_X32").fanout == 32
        assert get_spec("PI_X8").fanout == 8
        assert get_spec("PIC_X32").fanout == 32
        assert get_spec("PC_X64").fanout == 64
        assert get_spec("phantom_4kb").fanout == 0

    def test_default_spec_is_p_x16(self):
        """The bare SchemeSpec() reproduces the P_X16 simulation defaults."""
        assert SchemeSpec() == get_spec("P_X16")

    def test_unknown_name_rejected_with_choices(self):
        with pytest.raises(SpecError, match="R_X8"):
            get_spec("QQQ")

    def test_register_refuses_silent_redefinition(self):
        with pytest.raises(SpecError, match="already registered"):
            register("PC_X32", SchemeSpec())

    def test_register_rejects_minilanguage_chars(self):
        with pytest.raises(SpecError):
            register("bad:name", SchemeSpec())

    def test_register_custom_scheme_round_trips(self):
        name = "test_custom_scheme"
        if name not in spec_names():
            register(name, SchemeSpec(posmap_format="compressed", plb_ways=4))
        spec = SchemeSpec.from_string(name)
        assert spec.plb_ways == 4
        assert spec.to_string() == name

    def test_spec_error_is_repro_and_value_error(self):
        with pytest.raises(ReproError):
            get_spec("QQQ")
        with pytest.raises(ValueError):
            get_spec("QQQ")


class TestRoundTrips:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_registered_specs_render_as_their_name(self, name):
        assert get_spec(name).to_string() == name

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_string_round_trip_exact(self, name):
        spec = get_spec(name)
        assert SchemeSpec.from_string(spec.to_string()) == spec

    @pytest.mark.parametrize(
        "changes",
        [
            {"plb_capacity_bytes": 32 * 1024},
            {"storage": "columnar"},
            {"plb_ways": 4, "onchip_entries": 2**12},
            {"compressed_fanout": 16},
            {"crypto": "reference", "num_blocks": 2**10},
        ],
    )
    def test_modified_spec_round_trips(self, changes):
        spec = get_spec("PIC_X32").with_(**changes)
        assert SchemeSpec.from_string(spec.to_string()) == spec

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_dict_round_trip_exact(self, name):
        spec = get_spec(name)
        assert SchemeSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "spec",
        [get_spec(name) for name in spec_names()]
        + [get_spec("PC_X32").with_(compressed_fanout=16)],
        ids=[*spec_names(), "PC_X32:compressed_fanout=16"],
    )
    def test_dict_is_asdict_in_declaration_order(self, spec):
        """The field-by-field read is the deep copy it replaces, key order too."""
        image = spec.to_dict()
        assert image == dataclasses.asdict(spec)
        assert list(image) == list(dataclasses.asdict(spec))

    def test_decompose_prefers_nearest_base(self):
        spec = get_spec("PIC_X32").with_(plb_capacity_bytes=8192)
        name, deltas = decompose_spec(spec)
        assert name == "PIC_X32"
        assert deltas == {"plb_capacity_bytes": 8192}

    def test_canonical_covers_every_field(self):
        canonical = SchemeSpec().canonical()
        for field_name in SPEC_FIELDS:
            assert f"{field_name}=" in canonical

    def test_canonical_distinguishes_specs(self):
        seen = {get_spec(name).canonical() for name in ALL_NAMES}
        assert len(seen) == len(ALL_NAMES)
        assert (
            SchemeSpec().canonical()
            != SchemeSpec().with_(plb_ways=2).canonical()
        )


class TestMiniLanguage:
    def test_alias_and_size_parsing(self):
        spec = SchemeSpec.from_string("PIC_X32:plb=32KiB,storage=columnar")
        assert spec.plb_capacity_bytes == 32 * 1024
        assert spec.storage == "columnar"
        assert spec.pmmac and spec.posmap_format == "compressed"

    def test_full_field_names_accepted(self):
        spec = SchemeSpec.from_string("P_X16:plb_capacity_bytes=8192,plb_ways=2")
        assert spec.plb_capacity_bytes == 8192
        assert spec.plb_ways == 2

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("64", 64), ("32KiB", 32768), ("1MiB", 1 << 20), ("2k", 2048),
            ("0x40", 64), ("1_024", 1024), ("4g", 1 << 32), ("24b", 24),
        ],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_rejects_junk(self):
        with pytest.raises(SpecError):
            parse_size("lots")
        with pytest.raises(SpecError, match="whole number"):
            parse_size("0.3KiB")

    def test_bool_and_none_values(self):
        assert SchemeSpec.from_string("PIC_X32:pmmac=false").pmmac is False
        assert SchemeSpec.from_string("PC_X32:fanout=16").compressed_fanout == 16
        assert SchemeSpec.from_string("PC_X32:fanout=none").compressed_fanout is None

    def test_unknown_field_names_valid_fields(self):
        with pytest.raises(SpecError, match="plb_capacity_bytes"):
            SchemeSpec.from_string("PC_X32:frobnication=7")

    def test_malformed_option_rejected(self):
        with pytest.raises(SpecError, match="field=value"):
            SchemeSpec.from_string("PC_X32:plb")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SpecError, match="unknown scheme"):
            SchemeSpec.from_string("ZZZ:plb=1KiB")

    def test_removed_array_storage_names_the_survivors(self):
        with pytest.raises(SpecError, match="unknown storage 'array'") as err:
            SchemeSpec.from_string("PC_X32:storage=array")
        assert "'object'" in str(err.value) and "'columnar'" in str(err.value)

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecError):
            SchemeSpec.from_string("   ")

    def test_spec_label_normalizes(self):
        assert spec_label("PC_X32:plb=8KiB") == "PC_X32:plb_capacity_bytes=8192"
        assert spec_label(get_spec("R_X8")) == "R_X8"

    def test_aliases_map_to_real_fields(self):
        for alias, target in FIELD_ALIASES.items():
            assert target in SPEC_FIELDS, alias


class TestValidation:
    def test_with_unknown_field_raises_naming_fields(self):
        with pytest.raises(SpecError, match="valid fields"):
            SchemeSpec().with_(plb_capacity=1)

    def test_with_returns_new_frozen_instance(self):
        base = get_spec("PC_X32")
        derived = base.with_(plb_capacity_bytes=8192)
        assert derived is not base
        assert base.plb_capacity_bytes == 64 * 1024
        with pytest.raises(Exception):
            derived.plb_capacity_bytes = 1  # frozen

    def test_from_dict_unknown_key(self):
        with pytest.raises(SpecError, match="valid fields"):
            SchemeSpec.from_dict({"bogus": 1})

    def test_pmmac_requires_plb_frontend(self):
        with pytest.raises(SpecError, match="pmmac"):
            SchemeSpec(frontend="recursive", pmmac=True)

    def test_nondefault_crypto_requires_plb_frontend(self):
        """R_X8/phantom take no crypto suite; a non-default selection must
        fail loudly instead of being silently ignored (and re-keying the
        result cache for an identical run)."""
        with pytest.raises(SpecError, match="crypto"):
            SchemeSpec(frontend="recursive", crypto="reference")
        with pytest.raises(SpecError, match="crypto"):
            SchemeSpec.from_string("phantom_4kb:crypto=reference")

    @pytest.mark.parametrize(
        "changes",
        [
            {"frontend": "quantum"},
            {"posmap_format": "zip"},
            {"storage": "tape"},
            {"crypto": "rot13"},
            {"num_blocks": 0},
            {"plb_ways": -1},
            {"compressed_fanout": 0},
        ],
    )
    def test_bad_values_rejected(self, changes):
        with pytest.raises(SpecError):
            SchemeSpec().with_(**changes)

    def test_tree_storage_alias_is_gone(self):
        """``object`` is the one name of the bucket-object store."""
        with pytest.raises(
            SpecError, match=r"choose from \('default', 'object', 'columnar'\)"
        ):
            SchemeSpec.from_string("PC_X32:storage=tree")

    def test_resolve_spec_rejects_other_types(self):
        with pytest.raises(SpecError):
            resolve_spec(42)


class TestBuild:
    def test_builds_expected_frontend_types(self):
        assert isinstance(get_spec("R_X8").with_(num_blocks=2**10).build(),
                          RecursiveFrontend)
        assert isinstance(get_spec("PIC_X32").with_(num_blocks=2**10).build(),
                          PlbFrontend)
        assert isinstance(get_spec("phantom_4kb").with_(num_blocks=2**6).build(),
                          LinearFrontend)

    def test_built_plb_geometry_matches_spec(self):
        spec = get_spec("PC_X32").with_(
            num_blocks=2**10, plb_capacity_bytes=8192, plb_ways=2
        )
        frontend = spec.build()
        assert frontend.plb.capacity_bytes == 8192
        assert frontend.plb.ways == 2
        assert frontend.format.fanout == spec.fanout

    def test_reference_crypto_kind_selects_aes_suite(self):
        spec = get_spec("PIC_X32").with_(num_blocks=2**8, crypto="reference")
        frontend = spec.build()
        assert frontend.crypto.prf.mode == "aes"


    def test_constructors_take_a_spec_and_build_time_objects(self):
        params = {
            cls.__name__: tuple(inspect.signature(cls).parameters)
            for cls in (PlbFrontend, RecursiveFrontend, LinearFrontend)
        }
        assert params == {
            "PlbFrontend": ("spec", "rng", "observer", "crypto", "storage_factory"),
            "RecursiveFrontend": ("spec", "rng", "observer"),
            "LinearFrontend": ("spec", "rng", "observer", "storage_factory"),
        }

    def test_every_door_builds_the_same_tree(self):
        """The spec's defaults are the constructors' defaults: R_X8 at
        2^12 blocks recurses (two levels), P_X16 gets the 64 KiB PLB."""
        rec = get_spec("R_X8").with_(num_blocks=2**12)
        assert RecursiveFrontend(rec).num_levels == rec.build().num_levels == 2
        plb = get_spec("P_X16").with_(num_blocks=2**12)
        built = build_frontend("P_X16", num_blocks=2**12)
        assert PlbFrontend(plb).plb.capacity_bytes == built.plb.capacity_bytes
        assert built.plb.capacity_bytes == 64 * 1024

    def test_tree_configs_are_the_geometry_without_a_build(self):
        """R_X8 at 2^16 blocks and 2^11 on-chip entries recurses twice
        (2^16 -> 2^13 -> 2^10 blocks), its PosMap trees on 32-byte blocks;
        PIC_X32's one tree carries the MAC; a linear tree is the data."""
        rec = get_spec("R_X8").with_(num_blocks=2**16)
        assert [(c.num_blocks, c.block_bytes) for c in rec.tree_configs()] == [
            (2**16, 64), (2**13, 32), (2**10, 32),
        ]
        (pic,) = get_spec("PIC_X32").with_(num_blocks=2**10).tree_configs()
        assert (pic.num_blocks, pic.mac_bytes) == (2**10, 14)
        (flat,) = get_spec("phantom_4kb").with_(num_blocks=2**6).tree_configs()
        assert flat.num_blocks == 2**6
        assert rec.build().configs == list(rec.tree_configs())

    def test_tree_configs_refuse_a_fanout_that_cannot_recurse(self):
        spec = get_spec("R_X8").with_(posmap_block_bytes=4, num_blocks=2**16)
        with pytest.raises(ConfigurationError, match="too small"):
            spec.tree_configs()
        plb = SchemeSpec(block_bytes=4, leaf_bytes=4)  # X = 1, 2^16 blocks
        with pytest.raises(ValueError, match="never shrinks"):
            plb.build()

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_constructors_refuse_another_frontend_kind(self, name):
        spec = get_spec(name)
        for cls, kind in (
            (PlbFrontend, "plb"),
            (RecursiveFrontend, "recursive"),
            (LinearFrontend, "linear"),
        ):
            if spec.frontend != kind:
                with pytest.raises(ConfigurationError, match=f"not a {kind} spec"):
                    cls(spec)


class TestRunnerSpecs:
    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        from repro.sim.runner import SimulationRunner

        return SimulationRunner(
            misses_per_benchmark=150,
            cache_dir=tmp_path_factory.mktemp("spec-traces"),
            result_cache_dir=tmp_path_factory.mktemp("spec-results"),
        )

    def test_unknown_override_raises_spec_error(self, runner):
        with pytest.raises(SpecError, match="valid fields"):
            runner.build("PC_X32", "gob", plb_capacity=8192)

    def test_unknown_override_in_run_one(self, runner):
        with pytest.raises(ReproError, match="valid fields"):
            runner.run_one("PC_X32", "gob", frobnicate=True)

    def test_spec_string_scheme(self, runner):
        frontend = runner.build("PC_X32:plb=8KiB,ways=2", "gob")
        assert frontend.plb.capacity_bytes == 8192
        assert frontend.plb.ways == 2

    def test_spec_object_scheme(self, runner):
        spec = get_spec("PC_X32").with_(plb_capacity_bytes=16 * 1024)
        frontend = runner.build(spec, "gob")
        assert frontend.plb.capacity_bytes == 16 * 1024

    def test_runner_sizes_under_explicit_deltas(self, runner):
        """Working-set sizing applies, but never clobbers explicit deltas."""
        spec, label = runner.sized_spec("PC_X32:plb=8KiB", "gob")
        assert spec.plb_capacity_bytes == 8192  # delta wins
        assert spec.block_bytes == runner.proc.line_bytes  # sizing fills
        assert label == "PC_X32:plb_capacity_bytes=8192"

    def test_string_delta_at_registry_default_is_pinned(self, runner):
        """A spec-string delta equal to the base's default is still the
        user's explicit choice — it must survive runner sizing (which
        would otherwise set onchip_entries to the platform's 1024)."""
        spec, label = runner.sized_spec("PC_X32:onchip=2048", "gob")
        assert spec.onchip_entries == 2048
        assert label == "PC_X32:onchip_entries=2048"
        bare_spec, bare_label = runner.sized_spec("PC_X32", "gob")
        assert bare_spec.onchip_entries == runner.platform.onchip_entries
        assert bare_label == "PC_X32"

    def test_run_one_matches_between_spellings(self, runner):
        """One configuration, three spellings: identical simulated outcome.

        The scheme *label* differs on purpose (per-call overrides keep the
        bare paper name for result tables; spec strings carry their deltas)
        — every simulated field must nevertheless be bit-identical.
        """
        import dataclasses

        via_override = runner.run_one("PC_X32", "gob", plb_capacity_bytes=8192)
        via_string = runner.run_one("PC_X32:plb=8KiB", "gob")
        via_spec = runner.run_one(
            get_spec("PC_X32").with_(plb_capacity_bytes=8192), "gob"
        )
        assert via_string == via_spec  # same label, same cache cell
        assert via_override.scheme == "PC_X32"
        assert via_string.scheme == "PC_X32:plb_capacity_bytes=8192"
        strip = lambda r: {
            k: v for k, v in dataclasses.asdict(r).items() if k != "scheme"
        }
        assert strip(via_override) == strip(via_string)

    def test_cell_label_keys(self, runner):
        cells = runner.cells(
            ["R_X8", get_spec("PC_X32").with_(plb_capacity_bytes=8192)], ["gob"]
        )
        assert [cell.label for cell in cells] == [
            "R_X8", "PC_X32:plb_capacity_bytes=8192"
        ]
        out = runner.execute(cells)
        for cell in cells:
            assert out[cell.key].scheme == cell.label
            assert out[cell.key].oram_accesses > 0
