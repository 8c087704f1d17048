"""DRAM timing model and the subtree layout."""

import pytest

from repro.config import OramConfig
from repro.dram.config import DramConfig
from repro.dram.layout import SubtreeLayout
from repro.dram.model import DramModel


class TestDramConfig:
    def test_row_bytes(self):
        assert DramConfig().row_bytes == 8192

    def test_peak_bandwidth_near_paper(self):
        """667 MHz DDR x 64-bit = ~10.67 GB/s per channel (§7.1.1)."""
        per_channel = DramConfig(channels=1).peak_bandwidth_bytes_per_sec
        assert per_channel == pytest.approx(10.67e9, rel=0.01)

    def test_burst_bytes(self):
        assert DramConfig().burst_bytes == 64

    def test_cycle_conversion(self):
        cfg = DramConfig()
        assert cfg.dram_to_proc_cycles(667, 1.3) == pytest.approx(1300)

    def test_invalid_channels_rejected(self):
        with pytest.raises(ValueError):
            DramConfig(channels=0)


class TestSubtreeLayout:
    def test_subtree_levels_fit_row(self):
        layout = SubtreeLayout(levels=20, bucket_bytes=320, dram=DramConfig())
        # 8192 / 320 = 25 buckets per row: 2^k - 1 <= 25 -> k = 4.
        assert layout.subtree_levels == 4

    def test_root_subtree_is_zero(self):
        layout = SubtreeLayout(levels=10, bucket_bytes=320, dram=DramConfig())
        subtree, index = layout.subtree_of(0, 0)
        assert subtree == 0 and index == 0

    def test_same_subtree_for_shallow_path(self):
        """All levels within the first k land in subtree 0."""
        layout = SubtreeLayout(levels=20, bucket_bytes=320, dram=DramConfig())
        k = layout.subtree_levels
        for level in range(k):
            subtree, _ = layout.subtree_of(level, 12345 % (1 << 20))
            assert subtree == 0

    def test_distinct_leaves_distinct_deep_subtrees(self):
        layout = SubtreeLayout(levels=12, bucket_bytes=320, dram=DramConfig())
        s1, _ = layout.subtree_of(12, 0)
        s2, _ = layout.subtree_of(12, (1 << 12) - 1)
        assert s1 != s2

    def test_row_groups_cover_path(self):
        layout = SubtreeLayout(levels=20, bucket_bytes=320, dram=DramConfig())
        groups = layout.path_row_groups(777)
        assert sum(n for _, _, n in groups) == 21

    def test_row_group_count_matches_chunks(self):
        layout = SubtreeLayout(levels=20, bucket_bytes=320, dram=DramConfig())
        groups = layout.path_row_groups(0)
        expected_chunks = -(-21 // layout.subtree_levels)
        assert len(groups) <= expected_chunks + 1

    def test_level_bounds_checked(self):
        layout = SubtreeLayout(levels=4, bucket_bytes=320, dram=DramConfig())
        with pytest.raises(ValueError):
            layout.subtree_of(5, 0)


class TestDramModel:
    def _model(self, channels=2, levels=25, bucket=320):
        return DramModel(levels, bucket, DramConfig(channels=channels))

    def test_latency_decreases_with_channels(self):
        latencies = [
            self._model(ch).average_oram_latency_proc_cycles(1.3)
            for ch in (1, 2, 4, 8)
        ]
        assert latencies == sorted(latencies, reverse=True)

    def test_scaling_is_sublinear(self):
        """Table 2: 8 channels gain less than 8x (fixed activation cost)."""
        l1 = self._model(1).average_oram_latency_proc_cycles(1.3)
        l8 = self._model(8).average_oram_latency_proc_cycles(1.3)
        assert 2.0 < l1 / l8 < 8.0

    def test_table2_two_channel_point(self):
        """Within 10% of the paper's 1208 cycles at 2 channels."""
        latency = self._model(2).average_oram_latency_proc_cycles(1.3)
        assert latency == pytest.approx(1208, rel=0.10)

    def test_insecure_near_58_cycles(self):
        latency = self._model(2).insecure_access_cycles(1.3)
        assert latency == pytest.approx(58, rel=0.10)

    def test_repeat_path_hits_rows(self):
        model = self._model()
        first = model.path_access_cycles(5)
        second = model.path_access_cycles(5)
        assert second.row_misses <= first.row_misses
        assert second.dram_cycles <= first.dram_cycles

    def test_oram_access_is_two_paths(self):
        model = self._model()
        cycles = model.oram_access_cycles(9)
        assert cycles > 0
        assert model.total_accesses == 2

    def test_burst_accounting(self):
        model = self._model(levels=10, bucket=320)
        stats = model.path_access_cycles(0)
        assert stats.bursts == 11 * 5  # 320 B = 5 bursts per bucket

    def test_deeper_tree_costs_more(self):
        shallow = DramModel(15, 320, DramConfig()).average_path_cycles(64)
        deep = DramModel(25, 320, DramConfig()).average_path_cycles(64)
        assert deep > shallow

    def test_bigger_buckets_cost_more(self):
        small = DramModel(20, 320, DramConfig()).average_path_cycles(64)
        big = DramModel(20, 384, DramConfig()).average_path_cycles(64)
        assert big > small


def row_groups_by_level(layout, leaf):
    """``path_row_groups`` the way it was first written: one
    ``subtree_of`` per level, groups in first-appearance order."""
    dram = layout.dram
    counts = {}
    for level in range(layout.levels + 1):
        subtree_id, _ = layout.subtree_of(level, leaf)
        key = (
            subtree_id % dram.banks_per_channel,
            (subtree_id // dram.banks_per_channel) % dram.rows_per_bank,
        )
        counts[key] = counts.get(key, 0) + 1
    return [(bank, row, count) for (bank, row), count in counts.items()]


class TestRowGroupsWalkTheLayers:
    hypothesis = pytest.importorskip("hypothesis")

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=400, deadline=None)
    @given(
        levels=st.integers(1, 25),
        bucket_bytes=st.sampled_from([64, 192, 320, 384, 1024, 4096, 8192, 9000]),
        channels=st.sampled_from([1, 2, 4, 8]),
        banks=st.sampled_from([1, 2, 8]),
        rows=st.sampled_from([1, 4, 16384]),
        data=st.data(),
    )
    def test_equal_to_the_per_level_grouping(
        self, levels, bucket_bytes, channels, banks, rows, data
    ):
        """Few banks and rows make distinct layers alias onto one
        (bank, row): the merged counts and their order must agree too."""
        dram = DramConfig(
            channels=channels, banks_per_channel=banks, rows_per_bank=rows
        )
        layout = SubtreeLayout(levels, bucket_bytes, dram)
        leaf = data.draw(self.st.integers(0, (1 << levels) - 1))
        groups = layout.path_row_groups(leaf)
        assert groups == row_groups_by_level(layout, leaf)
        assert sum(count for _, _, count in groups) == levels + 1


class TestTimingModelValues:
    """The chunk-wise walk and the memo are performance only: the tree
    latencies are the floats the per-level, per-cell model produced
    (computed on the commit before either existed)."""

    #: scheme -> tree_latency_cycles at the ``gob`` geometry of a
    #: default ``SimulationRunner`` (R_X8: trees of L = 14/11/8).
    FIG6 = {
        "R_X8": 485.0484913793104,
        "P_X16": 761.832950712144,
        "PC_X32": 761.832950712144,
        "PI_X8": 886.5705818965517,
        "PIC_X32": 886.5705818965517,
    }
    #: channels -> Table 2's point (N = 2^26, 64-byte blocks, Z = 4).
    TABLE2 = {
        1: 2197.4881699775115,
        2: 1183.994916604198,
        4: 685.0443918665668,
        8: 435.56912949775113,
    }

    @staticmethod
    def gob_frontend(scheme):
        from repro.sim.runner import SimulationRunner

        runner = SimulationRunner(misses_per_benchmark=200)
        return runner, runner._build_spec(runner.cells([scheme], ["gob"])[0].spec)

    @pytest.mark.parametrize("scheme", sorted(FIG6))
    def test_fig6_schemes_at_the_gob_geometry(self, scheme):
        from repro.sim.timing import timing_for_frontend

        runner, frontend = self.gob_frontend(scheme)
        for timing in (timing_for_frontend(frontend), runner.timing_for(frontend)):
            assert repr(timing.tree_latency_cycles) == repr(self.FIG6[scheme])

    @pytest.mark.parametrize("channels", sorted(TABLE2))
    def test_table2_points(self, channels):
        from repro.eval import table2
        from repro.sim.timing import OramTimingModel

        cfg = OramConfig(num_blocks=2**26, block_bytes=64, blocks_per_bucket=4)
        dram = DramConfig(channels=channels)
        timing = OramTimingModel.for_config(cfg, dram, proc_ghz=1.3)
        direct = DramModel(cfg.levels, cfg.bucket_bytes, dram)
        assert (
            repr(timing.tree_latency_cycles)
            == repr(direct.average_oram_latency_proc_cycles(1.3))
            == repr(self.TABLE2[channels])
        )
        assert round(self.TABLE2[channels]) == round(
            table2.run(channel_counts=(channels,))[channels]
        )


class TestTimingModelMemo:
    @pytest.fixture
    def path_calls(self, monkeypatch):
        calls = []
        original = DramModel.path_access_cycles

        def counted(model, leaf):
            calls.append(model.config)
            return original(model, leaf)

        monkeypatch.setattr(DramModel, "path_access_cycles", counted)
        return calls

    @pytest.mark.parametrize("scheme", ("R_X8", "PIC_X32"))
    def test_an_equal_geometry_costs_no_path_access(self, scheme, path_calls):
        from repro.sim import timing

        timing.tree_latency_cycles.cache_clear()
        _, first = TestTimingModelValues.gob_frontend(scheme)
        _, second = TestTimingModelValues.gob_frontend(scheme)
        cold = timing.timing_for_frontend(first)
        trees = len(getattr(first, "configs", [None]))
        assert len(path_calls) == 256 * trees
        assert timing.timing_for_frontend(second) == cold
        assert len(path_calls) == 256 * trees

    def test_distinct_dram_configs_do_not_share_an_entry(self, path_calls):
        from repro.sim import timing

        timing.tree_latency_cycles.cache_clear()
        _, frontend = TestTimingModelValues.gob_frontend("P_X16")
        two = timing.timing_for_frontend(frontend, DramConfig(channels=2))
        four = timing.timing_for_frontend(frontend, DramConfig(channels=4))
        slow = timing.timing_for_frontend(frontend, DramConfig(t_rp=12))
        assert len({two.tree_latency_cycles, four.tree_latency_cycles,
                    slow.tree_latency_cycles}) == 3
        assert len(path_calls) == 3 * 256
        assert {c.channels for c in path_calls} == {2, 4}
        # An equal config is a hit whichever object carries it; another
        # clock is another entry.
        assert timing.timing_for_frontend(frontend, DramConfig()) == two
        assert len(path_calls) == 3 * 256
        faster = timing.timing_for_frontend(frontend, DramConfig(), 2.6)
        assert faster.tree_latency_cycles == 2 * two.tree_latency_cycles
        assert len(path_calls) == 4 * 256
