"""Every :class:`MinerConfig` rejection path fires eagerly at construction.

Invalid configurations must never reach the miner: a bad threshold that only
surfaces as a crash (or silently wrong results) hours into a run is exactly
the failure mode the robustness layer exists to prevent.
"""

import pytest

from repro.core.config import MinerConfig
from repro.runtime import SupervisorConfig
from repro.runtime.faults import BranchFault


def valid(**overrides):
    return MinerConfig(min_sup=2).variant(**overrides)


class TestMinerConfigRejections:
    @pytest.mark.parametrize("min_sup", [0, -1, -100])
    def test_min_sup_below_one(self, min_sup):
        with pytest.raises(ValueError, match="min_sup"):
            MinerConfig(min_sup=min_sup)

    @pytest.mark.parametrize("pfct", [-0.1, 1.0, 1.5])
    def test_pfct_outside_half_open_unit_interval(self, pfct):
        with pytest.raises(ValueError, match="pfct"):
            valid(pfct=pfct)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.2])
    def test_epsilon_outside_open_unit_interval(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            valid(epsilon=epsilon)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0])
    def test_delta_outside_open_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            valid(delta=delta)

    def test_negative_exact_event_limit(self):
        with pytest.raises(ValueError, match="exact_event_limit"):
            valid(exact_event_limit=-1)

    def test_unknown_lower_bound(self):
        with pytest.raises(ValueError, match="lower bound"):
            valid(lower_bound="bonferroni")

    def test_unknown_upper_bound(self):
        with pytest.raises(ValueError, match="upper bound"):
            valid(upper_bound="markov")

    def test_unknown_tidset_backend(self):
        with pytest.raises(ValueError, match="tidset backend"):
            valid(tidset_backend="roaring")

    @pytest.mark.parametrize("size", [0, -5])
    def test_max_itemset_size_below_one(self, size):
        with pytest.raises(ValueError, match="max_itemset_size"):
            valid(max_itemset_size=size)

    @pytest.mark.parametrize("size", [0, -1])
    def test_dp_cache_size_below_one(self, size):
        with pytest.raises(ValueError, match="dp_cache_size"):
            valid(dp_cache_size=size)

    @pytest.mark.parametrize("budget", [-1, -100])
    def test_negative_exact_check_budget(self, budget):
        with pytest.raises(ValueError, match="exact_check_budget"):
            valid(exact_check_budget=budget)

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_non_positive_check_deadline(self, deadline):
        with pytest.raises(ValueError, match="check_deadline_seconds"):
            valid(check_deadline_seconds=deadline)

    @pytest.mark.parametrize("ratio", [0.0, 1.0001, -0.5])
    def test_relative_min_sup_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(ValueError, match="relative min_sup"):
            MinerConfig.with_relative_min_sup(100, ratio)

    def test_variant_revalidates(self):
        """``variant`` reconstructs the frozen dataclass, so overrides go
        through ``__post_init__`` again."""
        with pytest.raises(ValueError, match="pfct"):
            valid(pfct=2.0)

    def test_boundary_values_accepted(self):
        config = valid(
            pfct=0.0,
            exact_event_limit=0,
            exact_check_budget=0,
            check_deadline_seconds=0.001,
            dp_cache_size=1,
            max_itemset_size=1,
        )
        assert config.exact_check_budget == 0
        assert config.check_deadline_seconds == 0.001


NAN = float("nan")
INF = float("inf")


class TestSupervisorConfigRejections:
    @pytest.mark.parametrize("timeout", [0.0, -1.0, NAN, INF])
    def test_non_positive_branch_timeout(self, timeout):
        with pytest.raises(ValueError, match="branch_timeout_seconds"):
            SupervisorConfig(branch_timeout_seconds=timeout)

    def test_negative_max_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            SupervisorConfig(max_retries=-1)

    def test_negative_backoff_base(self):
        with pytest.raises(ValueError, match="backoff_base_seconds"):
            SupervisorConfig(backoff_base_seconds=-0.1)

    def test_backoff_multiplier_below_one(self):
        with pytest.raises(ValueError, match="backoff_multiplier"):
            SupervisorConfig(backoff_multiplier=0.5)

    def test_negative_backoff_cap(self):
        with pytest.raises(ValueError, match="backoff_cap_seconds"):
            SupervisorConfig(backoff_cap_seconds=-1.0)

    def test_non_positive_poll_interval(self):
        with pytest.raises(ValueError, match="poll_interval_seconds"):
            SupervisorConfig(poll_interval_seconds=0.0)

    @pytest.mark.parametrize("value", [NAN, INF])
    @pytest.mark.parametrize(
        "field",
        [
            "backoff_base_seconds",
            "backoff_multiplier",
            "backoff_cap_seconds",
            "poll_interval_seconds",
        ],
    )
    def test_non_finite_float_field(self, field, value):
        # NaN passes every range comparison; infinity breaks wait()/sleep().
        with pytest.raises(ValueError, match=field):
            SupervisorConfig(**{field: value})

    def test_backoff_schedule_is_capped_exponential(self):
        supervisor = SupervisorConfig(
            backoff_base_seconds=0.1, backoff_multiplier=2.0, backoff_cap_seconds=0.35
        )
        assert supervisor.backoff_seconds(0) == 0.0
        assert supervisor.backoff_seconds(1) == pytest.approx(0.1)
        assert supervisor.backoff_seconds(2) == pytest.approx(0.2)
        assert supervisor.backoff_seconds(3) == pytest.approx(0.35)  # capped


class TestBranchFaultRejections:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="fault kind"):
            BranchFault("segfault")

    def test_attempts_below_one(self):
        with pytest.raises(ValueError, match="attempts"):
            BranchFault("raise", attempts=0)

    def test_non_positive_hang_seconds(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            BranchFault("hang", hang_seconds=0.0)
