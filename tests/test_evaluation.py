import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from refstream.evaluation import (
    NAB_PROFILES,
    NabProfile,
    _average_ranks,
    clusteredness,
    delta_performance,
    difficulty,
    diversity,
    make_windows,
    nab_score,
    normalize_nab,
    relative_performance,
    roc_auc,
    scaled_sigmoid,
)


def pairwise_auc(anomaly_scores, nominal_scores):
    """Direct evaluation of the pairwise ordering definition."""
    total = 0.0
    for a in anomaly_scores:
        for n in nominal_scores:
            if a > n:
                total += 1.0
            elif a == n:
                total += 0.5
    return total / (len(anomaly_scores) * len(nominal_scores))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9], [0.1, 0.2]) == 1.0

    def test_tie_scores_half(self):
        assert roc_auc([0.5], [0.5]) == 0.5

    def test_hand_example(self):
        assert roc_auc([0.8, 0.3], [0.5, 0.1]) == 0.75

    def test_empty_class_is_absent(self):
        assert roc_auc([], [0.1]) is None
        assert roc_auc([0.1], []) is None

    def test_equals_pairwise_definition_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_a = int(rng.integers(1, 100))
            n_n = int(rng.integers(1, 100))
            a = rng.integers(0, 12, size=n_a) / 10.0  # coarse grid provokes ties
            n = rng.integers(0, 12, size=n_n) / 10.0
            assert roc_auc(a, n) == pairwise_auc(a.tolist(), n.tolist())

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        aucs = []
        for _ in range(100):
            scores = rng.random(500)
            labels = rng.random(500) < 0.1
            if labels.any() and not labels.all():
                aucs.append(roc_auc(scores[labels], scores[~labels]))
        assert abs(np.mean(aucs) - 0.5) < 0.05


class TestAverageRanks:
    @given(st.lists(st.sampled_from([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.inf]),
                    max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_rankdata_on_ties(self, values):
        x = np.array(values, dtype=float)
        assert np.array_equal(_average_ranks(x), stats.rankdata(x))

    def test_nan_input_gives_all_nan(self):
        x = np.array([0.5, np.nan, 0.5, 1.0])
        assert np.isnan(_average_ranks(x)).all()
        assert np.isnan(stats.rankdata(x)).all()
        assert math.isnan(roc_auc([0.5, np.nan], [0.1]))


class TestMakeWindows:
    def test_two_centered_windows(self):
        assert make_windows(1000, [300, 700]) == [(275, 325), (675, 725)]

    def test_clipping_at_stream_start(self):
        assert make_windows(100, [1]) == [(1, 6)]

    def test_overlapping_windows_merge(self):
        assert make_windows(1000, [500, 510]) == [(475, 535)]

    def test_no_anomalies_no_windows(self):
        assert make_windows(500, []) == []

    def test_minimum_width(self):
        windows = make_windows(30, [10, 20, 28])  # width floor(3/3) = 1
        assert all(hi >= lo for lo, hi in windows)

    @given(
        st.integers(100, 5000),
        st.lists(st.integers(1, 5000), min_size=1, max_size=12),
    )
    @settings(max_examples=200)
    def test_windows_sorted_disjoint_and_cover_anomalies(self, n, marks):
        marks = [m for m in marks if m <= n]
        if not marks:
            return
        windows = make_windows(n, marks)
        for (lo1, hi1), (lo2, hi2) in zip(windows, windows[1:]):
            assert hi1 < lo2
        for lo, hi in windows:
            assert 1 <= lo <= hi <= n
        for m in marks:
            assert any(lo <= m <= hi for lo, hi in windows)


class TestNabScore:
    def test_flag_at_window_start_earns_full_credit(self):
        assert nab_score([10], [(10, 20)], 100) == pytest.approx(1.0)

    def test_sigmoid_normalisation(self):
        assert scaled_sigmoid(-1.0) == pytest.approx(1.0)
        assert scaled_sigmoid(0.0) == 0.0
        assert scaled_sigmoid(1.0) == pytest.approx(-1.0)

    def test_all_windows_missed(self):
        assert nab_score([], [(1, 5), (10, 15), (20, 30)], 100) == pytest.approx(-3.0)

    def test_superfluous_detections_ignored(self):
        one = nab_score([12], [(10, 20)], 100)
        both = nab_score([12, 15, 19], [(10, 20)], 100)
        assert one == pytest.approx(both)

    def test_late_detection_worth_less(self):
        early = nab_score([11], [(10, 20)], 100)
        late = nab_score([19], [(10, 20)], 100)
        assert early > late > 0 - 1e-9

    def test_false_positive_decays_with_distance(self):
        near = nab_score([21], [(10, 20)], 100)
        far = nab_score([90], [(10, 20)], 100)
        profile = NAB_PROFILES["standard"]
        assert near > far  # both include the missed-window penalty of -1
        assert far == pytest.approx(-1.0 - profile.fp_weight, abs=1e-6)

    def test_fp_before_first_window_measures_from_start(self):
        at_start = nab_score([1], [(50, 60)], 100)
        nearer_window = nab_score([40], [(50, 60)], 100)
        assert nearer_window < at_start <= -1.0 + 1e-9  # window still missed

    def test_no_windows_full_fp_penalty(self):
        profile = NAB_PROFILES["standard"]
        assert nab_score([5, 50], [], 100) == pytest.approx(-2 * profile.fp_weight)

    @given(st.integers(10, 90), st.integers(0, 30))
    @settings(max_examples=100)
    def test_earlier_sole_flag_never_scores_less(self, start, shift):
        windows = [(30, 60)]
        t1 = max(30, min(60, start))
        t0 = max(30, t1 - shift)
        assert nab_score([t0], windows, 100) >= nab_score([t1], windows, 100) - 1e-12


class TestNormalizeNab:
    def test_perfect_detector(self):
        windows = [(10, 20), (50, 70)]
        raw = nab_score([10, 50], windows, 100)
        assert normalize_nab(raw, len(windows)) == pytest.approx(1.0)

    def test_null_detector(self):
        windows = [(10, 20), (50, 70)]
        raw = nab_score([], windows, 100)
        assert normalize_nab(raw, len(windows)) == pytest.approx(0.0)

    def test_half_caught(self):
        windows = [(10, 20), (50, 70)]
        raw = nab_score([10], windows, 100)
        assert normalize_nab(raw, len(windows)) == pytest.approx(0.5)

    def test_no_windows_metric_absent(self):
        assert normalize_nab(0.0, 0) is None

    def test_profile_scaling_invariance(self):
        windows = [(10, 20), (50, 70)]
        flags = [13, 90]
        base = NAB_PROFILES["standard"]
        doubled = NabProfile(2 * base.tp_weight, 2 * base.fp_weight, 2 * base.fn_weight)
        n1 = normalize_nab(nab_score(flags, windows, 100, base), 2, base)
        n2 = normalize_nab(nab_score(flags, windows, 100, doubled), 2, doubled)
        assert n1 == pytest.approx(n2, abs=1e-12)


class TestRelativePerformance:
    def test_single_method_example(self):
        assert relative_performance([1.0], [0.0, 0.5]) == pytest.approx(1.5)

    def test_identical_scores_zero(self):
        assert relative_performance([0.3, 0.3], [0.3, 0.3, 0.3]) == 0.0

    def test_swap_negates(self):
        a = relative_performance([0.9, 0.7], [0.2, 0.4])
        # negating differences: swap roles and rescale by count ratio
        b = relative_performance([0.2, 0.4], [0.9, 0.7])
        assert a > 0 > b

    def test_delta(self):
        assert delta_performance([0.2, 0.4], [0.1]) == pytest.approx(0.2)
        assert delta_performance([0.5], [0.5]) == 0.0
        d1 = delta_performance([0.2, 0.4], [0.6])
        d2 = delta_performance([0.6], [0.2, 0.4])
        assert d1 == pytest.approx(-d2)

    def test_delta_empty_group_absent(self):
        assert delta_performance([], [0.1]) is None


class TestClusteredness:
    def test_clustered(self):
        nc = clusteredness(4.0, 1.0)
        assert nc == pytest.approx(math.log(4.0))
        assert nc > 0

    def test_boundary_is_scattered(self):
        assert clusteredness(2.0, 2.0) == 0.0  # nc <= 0 reads as scattered

    def test_symmetry(self):
        assert clusteredness(1.0, 4.0) == pytest.approx(-math.log(4.0))

    def test_zero_variance_absent(self):
        assert clusteredness(0.0, 1.0) is None
        assert clusteredness(1.0, 0.0) is None


class TestDifficultyDiversity:
    def test_unanimous_perfect_scores(self):
        assert difficulty([[1.0, 1.0], [1.0]]) == 1.0
        assert diversity([1.0, 1.0]) == 0.0

    def test_population_std(self):
        assert diversity([0.2, 0.8]) == pytest.approx(0.3)

    def test_single_detector_diversity_absent(self):
        assert diversity([0.9]) is None

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        scores = [rng.random(5).tolist() for _ in range(20)]
        metrics = [float(rng.random()) for _ in range(20)]
        pooled = [s for ss in scores for s in ss]
        assert difficulty(iter(scores)) == pytest.approx(float(np.mean(pooled)), abs=1e-12)
        assert diversity(iter(metrics)) == pytest.approx(float(np.std(metrics)), abs=1e-12)
