import gc
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from refstream.learning import (
    AnomalyAwareReservoir,
    FixedReference,
    LandmarkWindow,
    SlidingWindow,
    UniformReservoir,
    ares_weight,
)


class StubRng:
    """Deterministic stand-in feeding scripted draws."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, *a, **kw):
        return self._integers.pop(0)


class TestNoFeatureKept:
    """Strategies report arrivals; the measure is the only feature store."""

    @pytest.mark.parametrize("make", [
        lambda: FixedReference(30),
        lambda: LandmarkWindow(0),
        lambda: SlidingWindow(3),
        lambda: UniformReservoir(3, np.random.default_rng(0)),
        lambda: AnomalyAwareReservoir(3, 0.96, np.random.default_rng(0)),
    ], ids=["fr", "lw", "sw", "ures", "ares"])
    def test_update_drops_the_feature(self, make):
        strategy = make()
        feature = np.array([1.0, 2.0])
        ref = weakref.ref(feature)
        added, removed = strategy.update(feature, 1)
        assert (added, removed) == (1, None)
        del feature
        gc.collect()
        assert ref() is None


class TestFixedReference:
    def test_grows_during_probation(self):
        fr = FixedReference(30)
        added, removed = fr.update(1.0, 5)
        assert added is not None and removed is None
        assert len(fr) == 1

    def test_frozen_after_probation(self):
        fr = FixedReference(30)
        fr.update(1.0, 30)
        assert fr.update(2.0, 31) == (None, None)
        assert len(fr) == 1

    def test_terminal_size_is_probation_length(self):
        fr = FixedReference(30)
        for t in range(1, 201):
            fr.update(float(t), t)
        assert len(fr) == 30


class TestLandmarkWindow:
    def test_appends_after_landmark(self):
        lw = LandmarkWindow(0)
        for t in range(1, 501):
            lw.update(float(t), t)
        assert len(lw) == 500

    def test_ignores_up_to_landmark(self):
        lw = LandmarkWindow(3)
        assert lw.update(1.0, 3) == (None, None)
        added, _ = lw.update(1.0, 4)
        assert added is not None


class TestSlidingWindow:
    def test_keeps_most_recent(self):
        sw = SlidingWindow(3)
        for t in range(1, 6):
            sw.update(float(t), t)
        assert list(sw.arrivals) == [3, 4, 5]

    def test_evicts_oldest(self):
        sw = SlidingWindow(2)
        sw.update(1.0, 1)
        sw.update(2.0, 2)
        added, removed = sw.update(3.0, 3)
        assert removed == 1 and added == 3

    def test_never_exceeds_capacity(self):
        sw = SlidingWindow(4)
        for t in range(1, 50):
            sw.update(float(t), t)
            assert len(sw) <= 4


class TestUniformReservoir:
    def test_fills_first_w(self):
        ures = UniformReservoir(5, np.random.default_rng(0))
        for t in range(1, 6):
            added, removed = ures.update(float(t), t)
            assert added is not None and removed is None
        assert len(ures) == 5

    def test_replacement_probability_is_w_over_t(self):
        # at t = 2w the acceptance draw is compared against exactly 1/2
        ures = UniformReservoir(5, StubRng(randoms=[0.499], integers=[2]))
        ures.seen = 9
        ures.arrivals = list(range(5))
        added, removed = ures.update("x", 10)
        assert added is not None and removed is not None

        ures2 = UniformReservoir(5, StubRng(randoms=[0.501]))
        ures2.arrivals = list(range(5))
        ures2.seen = 9
        assert ures2.update("x", 10) == (None, None)

    def test_terminal_inclusion_rate(self):
        # classic reservoir guarantee, Monte Carlo over seeded trials
        trials, length, w = 400, 2000, 40
        counts = np.zeros(length)
        for seed in range(trials):
            ures = UniformReservoir(w, np.random.default_rng(seed))
            for t in range(1, length + 1):
                ures.update(t, t)
            for arrival in ures.arrivals:
                counts[arrival - 1] += 1
        rates = counts / trials
        expect = w / length
        assert rates.mean() == pytest.approx(expect, abs=1e-12)
        # 6-sigma binomial envelope over all items
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert np.abs(rates - expect).max() < 6 * sigma

    def test_uniformity_chi_square(self):
        trials, length, w = 300, 1000, 25
        counts = np.zeros(length)
        for seed in range(trials):
            ures = UniformReservoir(w, np.random.default_rng(1000 + seed))
            for t in range(1, length + 1):
                ures.update(t, t)
            for arrival in ures.arrivals:
                counts[arrival - 1] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestAresWeight:
    def test_zero_score(self):
        assert ares_weight(0.0, 0.96) == 1.0

    def test_decay_examples(self):
        assert ares_weight(5.0, 0.96) == pytest.approx(0.0082297, abs=1e-7)
        assert ares_weight(10.0, 0.96) == pytest.approx(6.7729e-5, rel=1e-4)

    def test_monotone_decreasing(self):
        weights = [ares_weight(s, 0.96) for s in (0.0, 0.5, 1.0, 3.0, 8.0)]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError):
            ares_weight(-0.1, 0.96)


class TestAnomalyAwareReservoir:
    def test_zero_score_priority_is_uniform_draw(self):
        ares = AnomalyAwareReservoir(3, 0.96, StubRng(randoms=[0.42]))
        added, _ = ares.update("x", 1, score=0.0)
        assert added == 1
        assert ares._priorities[0] == pytest.approx(0.42)

    def test_eviction_picks_oldest_candidate(self):
        rng = StubRng(randoms=[0.2, 0.5, 0.9, 0.6])
        ares = AnomalyAwareReservoir(3, 0.96, rng)
        ares.update("a", 3, 0.0)  # priority 0.2
        ares.update("b", 7, 0.0)  # priority 0.5
        ares.update("c", 9, 0.0)  # priority 0.9
        added, removed = ares.update("d", 12, 0.0)  # priority 0.6 beats 0.2 and 0.5
        assert removed == 3
        assert added == 12

    def test_no_candidates_keeps_group(self):
        rng = StubRng(randoms=[0.8, 0.9, 0.1])
        ares = AnomalyAwareReservoir(2, 0.96, rng)
        ares.update("a", 1, 0.0)
        ares.update("b", 2, 0.0)
        assert ares.update("c", 3, 0.0) == (None, None)
        assert list(ares._arrivals[: len(ares)]) == [1, 2]

    def test_tie_keeps_incumbent(self):
        rng = StubRng(randoms=[0.5, 0.5])
        ares = AnomalyAwareReservoir(1, 0.96, rng)
        ares.update("a", 1, 0.0)
        assert ares.update("b", 2, 0.0) == (None, None)

    def test_capacity_never_exceeded(self):
        ares = AnomalyAwareReservoir(10, 0.96, np.random.default_rng(3))
        for t in range(1, 200):
            ares.update(t, t, score=float(t % 4))
            assert len(ares) <= 10

    def test_high_scores_suppressed(self):
        # points scored 5.0 almost never survive; weight exp(-4.8)
        trials, length, w = 60, 1500, 50
        marked_fraction = []
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            marked = set(rng.choice(length, size=length // 10, replace=False) + 1)
            ares = AnomalyAwareReservoir(w, 0.96, np.random.default_rng(10_000 + seed))
            for t in range(1, length + 1):
                ares.update(t, t, score=5.0 if t in marked else 0.0)
            marked_fraction.append(
                sum(int(a) in marked for a in ares._arrivals[: len(ares)]) / w
            )
        assert np.mean(marked_fraction) < 0.02

    def test_score_dominance_paired(self):
        # scoring a subset strictly higher can only reduce its survival
        trials, length, w = 40, 1200, 40
        low_counts, high_counts = [], []
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            marked = set(rng.choice(length, size=length // 5, replace=False) + 1)
            for scores, out in ((0.5, low_counts), (6.0, high_counts)):
                ares = AnomalyAwareReservoir(w, 0.96, np.random.default_rng(777 + seed))
                for t in range(1, length + 1):
                    ares.update(t, t, score=scores if t in marked else 0.0)
                out.append(sum(int(a) in marked for a in ares._arrivals[: len(ares)]))
        assert np.mean(high_counts) <= np.mean(low_counts) + 1e-9
