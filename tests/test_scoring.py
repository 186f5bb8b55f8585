import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from refstream.errors import ConfigError, DegenerateGroupError
from refstream.scoring import (
    AnomalyScorer,
    UnifierState,
    ks_significance,
    ks_statistic,
    loo_p_values,
    p_value,
    unify,
)


def brute_ks(p_values, grid_size=10_000):
    """Sup of |ECDF - uniform| over a dense grid plus the jump points."""
    p = np.asarray(p_values, dtype=float)
    n = p.size
    candidates = np.concatenate([np.linspace(0, 1, grid_size), p])
    best = 0.0
    for c in candidates:
        ecdf = np.count_nonzero(p <= c) / n
        left = np.count_nonzero(p < c) / n
        best = max(best, abs(ecdf - c), abs(left - c))
    return best


class TestPValue:
    def test_midpoint(self):
        assert p_value(2.5, [1, 2, 3, 4]) == 0.5

    def test_zero_score_gets_one(self):
        assert p_value(0.0, [0.3, 1.2, 7.0]) == 1.0

    def test_above_all_gets_zero(self):
        assert p_value(9.0, [1, 2, 3]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(DegenerateGroupError):
            p_value(1.0, [])

    def test_ties_count(self):
        assert p_value(2.0, [1.0, 2.0, 3.0]) == pytest.approx(2 / 3)


class TestLooPValues:
    def test_three_distinct(self):
        np.testing.assert_allclose(loo_p_values([1, 2, 3]), [1.0, 0.5, 0.0])

    def test_all_equal(self):
        np.testing.assert_allclose(loo_p_values([4.0] * 5), 1.0)

    def test_pair(self):
        np.testing.assert_allclose(loo_p_values([1, 2]), [1.0, 0.0])

    def test_too_small(self):
        with pytest.raises(DegenerateGroupError):
            loo_p_values([1.0])

    def test_matches_direct_count(self):
        rng = np.random.default_rng(0)
        scores = rng.exponential(size=30).round(1)  # provoke ties
        got = loo_p_values(scores)
        for i, a_i in enumerate(scores):
            rest = np.delete(scores, i)
            assert got[i] == pytest.approx(np.count_nonzero(rest >= a_i) / len(rest))

    def test_continuous_scores_form_exact_grid(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=12)
        np.testing.assert_allclose(np.sort(loo_p_values(scores)), np.arange(12) / 11)


class TestKsStatistic:
    def test_evenly_spaced(self):
        assert ks_statistic(np.arange(1, 11) / 10) == pytest.approx(0.1)

    def test_point_mass(self):
        assert ks_statistic([0.5] * 7) == pytest.approx(0.5)

    def test_empty_window_rejected(self):
        with pytest.raises(DegenerateGroupError):
            ks_statistic([])

    def test_matches_grid_search(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            p = rng.random(n).round(2)
            assert ks_statistic(p) == pytest.approx(brute_ks(p), abs=1e-9)

    def test_sqrt_n_d_follows_kolmogorov_law(self):
        # Monte Carlo: sqrt(n)*D over uniform windows vs the asymptotic law
        rng = np.random.default_rng(3)
        n, trials = 100, 1000
        samples = np.array([math.sqrt(n) * ks_statistic(rng.random(n)) for _ in range(trials)])
        result = stats.kstest(samples, lambda x: 1.0 - special.kolmogorov(x))
        assert result.pvalue > 0.01


class TestKsSignificance:
    def test_perfect_uniformity(self):
        assert ks_significance(0.0, 50) == 1.0

    def test_degenerate_window(self):
        assert ks_significance(1.0, 20) < 1e-6

    def test_canonical_five_percent_neighborhood(self):
        # series evaluation at the ~5% critical value 1.358/sqrt(n)
        got = ks_significance(0.136, 100)
        lam = (10.0 + 0.12 + 0.011) * 0.136
        assert got == pytest.approx(special.kolmogorov(lam), abs=1e-9)
        assert got == pytest.approx(0.0448865, abs=1e-6)

    def test_matches_scipy_series_broadly(self):
        for n in (10, 50, 200, 1000):
            rn = math.sqrt(n)
            for d in (0.01, 0.05, 0.1, 0.3, 0.8):
                lam = (rn + 0.12 + 0.11 / rn) * d
                want = min(1.0, special.kolmogorov(lam)) if lam >= 0.1 else 1.0
                assert ks_significance(d, n) == pytest.approx(want, abs=1e-7)

    def test_clamped_to_unit_interval(self):
        for d in np.linspace(0, 1, 50):
            assert 0.0 <= ks_significance(float(d), 30) <= 1.0

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            ks_significance(0.5, 0)


class TestUnify:
    def test_full_significance_scores_zero(self):
        state = UnifierState()
        state.update(0.5)
        state.update(1.5)
        assert unify(1.0, state) == 0.0

    def test_constant_stream_scores_zero(self):
        state = UnifierState()
        for _ in range(50):
            assert unify(0.37, state) == 0.0

    def test_one_sigma_above_mean(self):
        state = UnifierState()
        for reg in (1.0, 2.0, 3.0, 2.0):
            state.update(reg)
        want = math.erf(1 / math.sqrt(2))
        assert state.scale(state.mean + state.std) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.6827, abs=1e-4)

    def test_tiny_significance_is_floored(self):
        state = UnifierState()
        state.update(1.0)
        state.update(2.0)
        out = unify(0.0, state)
        assert 0.0 <= out <= 1.0 and math.isfinite(out)

    @given(st.lists(st.floats(1e-12, 1.0), min_size=3, max_size=30), st.data())
    @settings(max_examples=200)
    def test_monotone_at_fixed_state(self, sigs, data):
        state = UnifierState()
        for s in sigs:
            state.update(-math.log(s))
        lo = data.draw(st.floats(1e-12, 1.0))
        hi = data.draw(st.floats(1e-12, 1.0))
        lo, hi = min(lo, hi), max(lo, hi)
        # lower significance -> higher regularised score -> no lower final
        assert state.scale(-math.log(lo)) >= state.scale(-math.log(hi))

    def test_welford_matches_batch_moments(self):
        rng = np.random.default_rng(4)
        regs = rng.exponential(size=500)
        state = UnifierState()
        for r in regs:
            state.update(r)
        assert state.mean == pytest.approx(regs.mean(), rel=1e-12)
        assert state.std == pytest.approx(regs.std(), rel=1e-10)


class TestAnomalyScorer:
    def _scorer(self, refs, ks_window=16, test_period=1):
        scorer = AnomalyScorer(ks_window, test_period)
        scorer.bootstrap(np.asarray(refs, dtype=float))
        return scorer

    def test_requires_bootstrap(self):
        scorer = AnomalyScorer(8)
        with pytest.raises(DegenerateGroupError):
            scorer.step(1.0)

    def test_non_finite_reference_rejected(self):
        scorer = self._scorer([1.0, 2.0, 3.0, 4.0])
        for bad in ([1.0, math.nan, 3.0], [1.0, math.inf], [-math.inf, 2.0]):
            with pytest.raises(DegenerateGroupError, match="not finite"):
                scorer.set_reference_scores(bad)
            with pytest.raises(DegenerateGroupError, match="not finite"):
                AnomalyScorer(8).bootstrap(bad)
        # a rejected set leaves the previous reference in force
        assert scorer.step(2.5)[0] == pytest.approx(0.5)

    def test_finite_reference_whose_sum_overflows_accepted(self):
        # the quick finite-sum test fails here, so the elementwise one decides
        big = [1e308, 1e308, 1.0]
        fresh = AnomalyScorer(8)
        scorer = self._scorer([1.0, 2.0, 3.0, 4.0])
        with np.errstate(over="ignore"):
            fresh.bootstrap(big)
            scorer.set_reference_scores(big)
        assert fresh.step(1e308)[0] == 2 / 3
        assert scorer.step(2.0)[0] == 2 / 3

    def test_bootstrap_seeds_window_with_loo_p_values(self):
        refs = [1.0, 2.0, 3.0, 4.0]
        scorer = self._scorer(refs)
        np.testing.assert_allclose(sorted(scorer.window), sorted(loo_p_values(refs)))

    def test_outputs_in_unit_interval(self):
        rng = np.random.default_rng(5)
        scorer = self._scorer(rng.normal(size=20) ** 2, ks_window=20)
        for _ in range(200):
            pv, sig, final = scorer.step(float(rng.normal() ** 2))
            assert 0.0 <= pv <= 1.0
            assert 0.0 <= sig <= 1.0
            assert 0.0 <= final <= 1.0

    def test_test_period_holds_significance_between_tests(self):
        rng = np.random.default_rng(6)
        refs = rng.random(12)
        stream = rng.random(40)
        sig_u1, sig_u5 = [], []
        for period, out in ((1, sig_u1), (5, sig_u5)):
            scorer = self._scorer(refs, ks_window=12, test_period=period)
            for a in stream:
                out.append(scorer.step(float(a))[1])
        # significances agree exactly at the u=5 test timestamps
        for i in range(0, 40, 5):
            assert sig_u5[i] == sig_u1[i]
        # and are held constant in between
        for i in range(40):
            assert sig_u5[i] == sig_u5[i - i % 5]

    def test_emitted_p_values_uniform_under_exchangeable_inputs(self):
        # Theorem-1 style check; uniformity is marginal over reference draws,
        # so each block scores against a freshly drawn reference set
        rng = np.random.default_rng(7)
        pvs = []
        for _ in range(300):
            refs = rng.normal(size=400) ** 2
            scorer = self._scorer(refs, ks_window=50)
            pvs.extend(scorer.step(float(a))[0] for a in rng.normal(size=20) ** 2)
        assert len(pvs) >= 5000
        assert stats.kstest(pvs, "uniform").pvalue > 0.01

    @given(
        ks_window=st.integers(1, 40),
        test_period=st.integers(1, 3),
        size_offset=st.integers(-39, 20),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_window_matches_resorting_every_step(
        self, ks_window, test_period, size_offset, data
    ):
        # a coarse grid of scores makes ties in the reference, the p-values and the window
        coarse = st.integers(0, 8).map(lambda i: i / 8)
        n_refs = max(2, ks_window + size_offset)  # below, equal to or above the window
        refs = np.array(data.draw(st.lists(coarse, min_size=n_refs, max_size=n_refs)))
        stream = data.draw(st.lists(coarse, min_size=1, max_size=100))

        scorer = self._scorer(refs, ks_window=ks_window, test_period=test_period)
        window = deque(loo_p_values(refs).tolist(), maxlen=ks_window)
        assert scorer._sorted_list == sorted(window)
        unifier = UnifierState()
        significance = 1.0
        for i, a in enumerate(stream):
            pv = p_value(a, refs)
            window.append(pv)
            if i % test_period == 0:
                significance = ks_significance(ks_statistic(list(window)), len(window))
            expected = (pv, significance, unify(significance, unifier))
            assert scorer.step(a) == expected
            # the slide keeps the buffer sorted, also with ties at the
            # evicted and the inserted value
            assert scorer._sorted[: len(window)].tolist() == sorted(window)
            # and so does the list mirror that the slide bisects
            assert scorer._sorted_list == sorted(window)

    @given(st.lists(st.one_of(
        st.tuples(st.just("step"), st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, math.nan])),
        st.tuples(st.just("set"), st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]),
                                           min_size=1, max_size=12))), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_p_values_count_the_reference_in_force(self, ops):
        # a reference kept for several steps is bisected, a fresh one is
        # counted; both must equal the count of scores at least a_t, with
        # ties, both zeros and NaN scores
        refs = [0.0, 0.25, 0.5, 0.5, 1.0]
        scorer = self._scorer(refs, ks_window=6)
        for op, arg in ops:
            if op == "set":
                scorer.set_reference_scores(arg)
                refs = arg
            else:
                assert scorer.step(arg)[0] == p_value(arg, refs)
