"""Tests for the privacy accountant and budget splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accountant import (
    PrivacyAccountant,
    PrivacyBudgetExceeded,
    PrivacySpend,
    split_evenly,
)
from repro.core.mechanisms import PrivacyParameters


class TestSplitEvenly:
    def test_ten_way_split(self):
        # The MNIST one-vs-rest split of Section 4.3.
        shares = split_evenly(PrivacyParameters(1.0, 1e-4), 10)
        assert len(shares) == 10
        assert all(s.epsilon == pytest.approx(0.1) for s in shares)
        assert all(s.delta == pytest.approx(1e-5) for s in shares)

    def test_single_part(self):
        shares = split_evenly(PrivacyParameters(2.0), 1)
        assert shares[0].epsilon == 2.0

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            split_evenly(PrivacyParameters(1.0), 0)


class TestSequentialAccounting:
    def test_spends_accumulate(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0, 1e-4))
        acct.spend(PrivacyParameters(0.3, 1e-5), label="a")
        acct.spend(PrivacyParameters(0.4, 2e-5), label="b")
        eps, delta = acct.total()
        assert eps == pytest.approx(0.7)
        assert delta == pytest.approx(3e-5)

    def test_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(0.5))
        acct.spend(PrivacyParameters(0.4))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(PrivacyParameters(0.2))

    def test_delta_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(10.0, 1e-6))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(PrivacyParameters(0.1, 1e-5))

    def test_remaining(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0, 1e-4))
        acct.spend(PrivacyParameters(0.25, 2e-5))
        remaining = acct.remaining()
        assert remaining.epsilon == pytest.approx(0.75)
        assert remaining.delta == pytest.approx(8e-5)

    def test_remaining_raises_when_exhausted(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(0.5))
        acct.spend(PrivacyParameters(0.5))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.remaining()

    def test_exact_budget_allowed(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        for _ in range(10):
            acct.spend(PrivacyParameters(0.1))
        eps, _ = acct.total()
        assert eps == pytest.approx(1.0)

    def test_spend_labels_recorded(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        acct.spend(PrivacyParameters(0.1), label="model-3")
        assert acct.spends[0].label == "model-3"


class TestParallelAccounting:
    def test_parallel_spends_cost_max(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        for _ in range(5):
            acct.spend_parallel(PrivacyParameters(0.8), group="tuning")
        eps, _ = acct.total()
        assert eps == pytest.approx(0.8)

    def test_parallel_group_maximum_tracked(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        acct.spend_parallel(PrivacyParameters(0.3), group="g")
        acct.spend_parallel(PrivacyParameters(0.6), group="g")
        acct.spend_parallel(PrivacyParameters(0.2), group="g")
        eps, _ = acct.total()
        assert eps == pytest.approx(0.6)

    def test_parallel_plus_sequential(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(1.0))
        acct.spend_parallel(PrivacyParameters(0.5), group="train")
        acct.spend(PrivacyParameters(0.5), label="select")
        eps, _ = acct.total()
        assert eps == pytest.approx(1.0)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend(PrivacyParameters(0.1))

    def test_parallel_budget_enforced(self):
        acct = PrivacyAccountant(budget=PrivacyParameters(0.5))
        with pytest.raises(PrivacyBudgetExceeded):
            acct.spend_parallel(PrivacyParameters(0.6), group="g")


def _bits(total):
    return [(type(x), float(x).hex()) for x in total]


_PARAMS = st.builds(
    PrivacyParameters,
    epsilon=st.floats(1e-6, 5.0),
    delta=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
)
_OPS = st.one_of(
    st.tuples(st.just("spend"), _PARAMS),
    st.tuples(st.just("parallel"), _PARAMS, st.sampled_from("abc")),
    st.tuples(st.just("replay"), st.lists(_PARAMS, max_size=4)),
)


class TestRunningTotal:
    """total() is a running sum, bitwise the sum() over every spend."""

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.lists(_PARAMS, max_size=3),
        ops=st.lists(_OPS, max_size=25),
        cap=st.sampled_from([20.0, 1e9]),
    )
    def test_cached_total_equals_the_sum_bitwise(self, initial, ops, cap):
        acct = PrivacyAccountant(
            budget=PrivacyParameters(cap, 0.5),
            spends=[PrivacySpend("seed", p) for p in initial],
        )
        for op in ops:
            try:
                if op[0] == "spend":
                    acct.spend(op[1])
                elif op[0] == "parallel":
                    acct.spend_parallel(op[1], group=op[2])
                else:
                    acct.replay(PrivacySpend("replayed", p) for p in op[1])
            except PrivacyBudgetExceeded:
                pass
            expected = (
                sum(s.parameters.epsilon for s in acct.spends),
                sum(s.parameters.delta for s in acct.spends),
            )
            assert _bits(acct.total()) == _bits(expected)
