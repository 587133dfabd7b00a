import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hydrocm.records import RecordRow
from hydrocm.stats import SUMMARY_COLUMNS, mann_whitney_u, mean_std, speedup, summary_cells


def mann_whitney_oracle(xs, ys):
    """From-scratch permutation oracle: U by pairwise comparison counting,
    exact two-sided p by enumerating every split of the pooled values."""
    n_a, n_b = len(xs), len(ys)
    pooled = list(xs) + list(ys)

    def u_of(a_values, b_values):
        twice = 0  # 2*U, so ties stay integral
        for x in a_values:
            for y in b_values:
                if x > y:
                    twice += 2
                elif x == y:
                    twice += 1
        return twice / 2.0

    u_obs = u_of(xs, ys)
    mu = n_a * n_b / 2.0
    count = 0
    total = 0
    for combo in itertools.combinations(range(n_a + n_b), n_a):
        chosen = set(combo)
        a_side = [pooled[i] for i in combo]
        b_side = [pooled[i] for i in range(n_a + n_b) if i not in chosen]
        if abs(u_of(a_side, b_side) - mu) >= abs(u_obs - mu):
            count += 1
        total += 1
    return u_obs, count / total


class TestMeanStd:
    def test_constant_sample(self):
        assert mean_std((5, 5, 5)) == (5.0, 0.0)

    def test_hand_computed(self):
        mean, std = mean_std([1, 2, 3, 4])
        assert mean == 2.5
        assert std == pytest.approx(1.2909944487358056, abs=1e-12)

    def test_singleton_convention(self):
        assert mean_std([7]) == (7.0, 0.0)

    def test_deviation_squared_past_the_float_range_is_inf(self):
        assert mean_std([1e200, 0.0]) == (5e199, math.inf)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])


class TestSpeedup:
    def test_published_style_ratio(self):
        result = speedup((15995,), (5318,))
        assert abs(result - 3.00) <= 0.01
        assert f"{result:.2f}" == f"{15995 / 5318:.2f}"

    def test_second_published_cell(self):
        assert abs(speedup([20627], [3052]) - 6.76) <= 0.01

    def test_identity(self):
        xs = (3.0, 4.0, 5.0)
        assert speedup(xs, xs) == 1.0

    def test_zero_parallel_mean_rejected(self):
        with pytest.raises(ValueError):
            speedup([1.0], [0.0])

    def test_exact_ratio_of_means(self):
        assert speedup([10.0, 20.0], [2.0, 4.0]) == 5.0


class TestMannWhitney:
    def test_small_exact_case(self):
        u, p, method = mann_whitney_u([1, 2], [3, 4])
        assert u == 0.0
        assert method == "exact"
        assert p == 2 / 6

    def test_identical_multisets_midpoint(self):
        xs = [1.0, 2.0, 3.0]
        u, p, method = mann_whitney_u(xs, list(xs))
        assert u == len(xs) * len(xs) / 2.0

    def test_degenerate_all_tied(self):
        u, p, method = mann_whitney_u([2.0] * 4, [2.0] * 4)
        assert p == 1.0

    def test_degenerate_all_tied_large(self):
        u, p, method = mann_whitney_u([2.0] * 30, [2.0] * 30)
        assert p == 1.0
        assert method == "normal_approx"

    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=6),
        st.lists(st.integers(0, 50), min_size=1, max_size=6),
    )
    def test_swap_symmetry(self, xs, ys):
        u_ab, p_ab, _ = mann_whitney_u(xs, ys)
        u_ba, p_ba, _ = mann_whitney_u(ys, xs)
        assert u_ba == len(xs) * len(ys) - u_ab
        assert p_ab == p_ba

    def test_exact_matches_oracle_on_ties(self):
        xs, ys = [1, 2, 2, 5], [2, 3, 3]
        u, p, method = mann_whitney_u(xs, ys)
        u_oracle, p_oracle = mann_whitney_oracle(xs, ys)
        assert method == "exact"
        assert u == u_oracle
        assert p == p_oracle

    def test_exact_matches_oracle_random(self):
        rng = np.random.default_rng(202)
        for _ in range(30):
            n_a = int(rng.integers(1, 7))
            n_b = int(rng.integers(1, 7))
            pool = rng.permutation(100)[: n_a + n_b].astype(float)
            xs, ys = list(pool[:n_a]), list(pool[n_a:])
            u, p, method = mann_whitney_u(xs, ys)
            u_oracle, p_oracle = mann_whitney_oracle(xs, ys)
            assert method == "exact"
            assert u == u_oracle and p == p_oracle

    def test_normal_approximation_used_for_large_samples(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        u, p, method = mann_whitney_u(xs, ys)
        assert method == "normal_approx"
        assert 0.0 <= p <= 1.0

    def test_exact_close_to_normal_at_boundary(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pool = rng.permutation(1000)[:16].astype(float)
            xs, ys = list(pool[:8]), list(pool[8:])
            _, p_exact, method = mann_whitney_u(xs, ys)
            assert method == "exact"
            assert abs(p_exact - _normal_p(xs, ys)) <= 0.05

    def test_false_positive_rate_calibrated(self):
        rng = np.random.default_rng(55)
        rejections = 0
        trials = 1_000
        for _ in range(trials):
            xs = rng.normal(size=50)
            ys = rng.normal(size=50)
            _, p, _ = mann_whitney_u(xs, ys)
            if p < 0.05:
                rejections += 1
        assert abs(rejections / trials - 0.05) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


def _normal_p(xs, ys):
    """Tie-corrected normal approximation, reimplemented for comparison."""
    n_a, n_b = len(xs), len(ys)
    n = n_a + n_b
    pooled = sorted((v, i < n_a) for i, v in enumerate(list(xs) + list(ys)))
    values = [v for v, _ in pooled]
    ranks = {}
    i = 0
    rank_sum_a = 0.0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            if pooled[k][1]:
                rank_sum_a += rank
        i = j + 1
    u = rank_sum_a - n_a * (n_a + 1) / 2
    mu = n_a * n_b / 2
    ties = [len(list(g)) for _, g in itertools.groupby(values)]
    var = n_a * n_b / 12 * ((n + 1) - sum(t**3 - t for t in ties) / (n * (n - 1)))
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(z / math.sqrt(2)))


class TestSummarizeExperiment:
    def rows(self, n_success, n_fail):
        rows = [
            RecordRow(seed=i, evaluations=1000 + i, elapsed_ms=10.0 + i, best=5.0, success=True)
            for i in range(n_success)
        ]
        rows += [
            RecordRow(seed=100 + i, evaluations=9999, elapsed_ms=99.0, best=4.0, success=False)
            for i in range(n_fail)
        ]
        return rows

    def test_all_successful(self):
        summary = dict(zip(SUMMARY_COLUMNS, summary_cells(self.rows(100, 0))))
        assert float(summary["success_rate"]) == 1.0
        assert summary["runs"] == "100"
        assert float(summary["eval_mean"]) == pytest.approx(1000 + 49.5)

    def test_no_successes_flagged_unavailable(self):
        summary = dict(zip(SUMMARY_COLUMNS, summary_cells(self.rows(0, 10))))
        assert float(summary["success_rate"]) == 0.0
        assert summary["eval_mean"] == "*"
        assert summary["time_mean"] == "*"

    def test_mixed_partition(self):
        summary = dict(zip(SUMMARY_COLUMNS, summary_cells(self.rows(90, 10))))
        assert float(summary["success_rate"]) == 0.9
        # failures excluded from the to-optimum aggregates
        assert float(summary["eval_mean"]) == pytest.approx(1000 + 44.5)

    def test_hand_checked_five_rows(self):
        rows = [
            RecordRow(seed=i, evaluations=e, elapsed_ms=t, best=1.0, success=True)
            for i, (e, t) in enumerate([(10, 1.0), (20, 2.0), (30, 3.0), (40, 4.0), (50, 5.0)])
        ]
        summary = dict(zip(SUMMARY_COLUMNS, summary_cells(rows)))
        assert summary["eval_mean"] == "30.0"
        assert float(summary["eval_std"]) == pytest.approx(math.sqrt(250))
        assert summary["time_mean"] == "3.0"
        assert float(summary["time_std"]) == pytest.approx(math.sqrt(2.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summary_cells([])
