"""Supplementary coverage: statistics accounting and config corner cases."""


from repro.core.config import MinerConfig
from repro.core.database import paper_table2_database
from repro.core.miner import MPFCIMiner
from repro.core.stats import MinerStatistics


class TestStatisticsAccounting:
    def test_fcp_evaluations_property(self):
        stats = MinerStatistics(fcp_exact_evaluations=3, fcp_sampled_evaluations=2)
        assert stats.fcp_evaluations == 5

    def test_as_dict_round_trip(self):
        stats = MinerStatistics(nodes_visited=7)
        payload = stats.as_dict()
        assert payload["nodes_visited"] == 7
        assert set(payload) == set(MinerStatistics.__dataclass_fields__)

    def test_merge_accumulates_every_field(self):
        first = MinerStatistics()
        second = MinerStatistics(
            **{name: 1 for name in MinerStatistics.__dataclass_fields__}
        )
        first.merge(second)
        assert all(
            getattr(first, name) == 1
            for name in MinerStatistics.__dataclass_fields__
        )

    def test_candidate_accounting_on_paper_example(self):
        db = paper_table2_database()
        miner = MPFCIMiner(db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        stats = miner.stats
        # Every generated candidate is either pruned or visited as a node.
        assert stats.candidates_generated >= stats.nodes_visited - len(
            miner.candidate_items()
        )
        assert stats.results_emitted <= stats.nodes_visited


class TestConfigDescribe:
    def test_default_describe_has_no_disabled_suffix(self):
        text = MinerConfig(min_sup=3).describe()
        assert "min_sup=3" in text
        assert "-CH" not in text

    def test_all_disabled(self):
        config = MinerConfig(
            min_sup=1,
            use_chernoff_pruning=False,
            use_superset_pruning=False,
            use_subset_pruning=False,
            use_probability_bounds=False,
        )
        text = config.describe()
        for tag in ("CH", "Super", "Sub", "PB"):
            assert tag in text

    def test_seed_none_is_allowed(self):
        db = paper_table2_database()
        config = MinerConfig(min_sup=2, pfct=0.8, seed=None)
        results = MPFCIMiner(db, config).mine()
        assert len(results) == 2
