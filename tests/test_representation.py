import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from refstream.errors import ConfigError, DataError
from refstream.representation import (
    SAX_ALPHABET,
    FeatureReplay,
    MeanStdFeatures,
    SaxFeatures,
    _ndtri,
    _pairwise_sum,
    breakpoints,
    feature_tape,
    meanstd_transform,
    paa,
    sax_transform,
    symbolize,
)


class TestBreakpoints:
    def test_two_symbols_split_at_median(self):
        assert breakpoints(2).tolist() == [0.0]

    def test_three_symbols(self):
        np.testing.assert_allclose(breakpoints(3), [-0.4307272992954576, 0.4307272992954576], atol=1e-8)

    def test_four_symbols_are_quartiles(self):
        np.testing.assert_allclose(
            breakpoints(4), [-0.6744897501960817, 0.0, 0.6744897501960817], atol=1e-8
        )

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ConfigError):
            breakpoints(1)

    @pytest.mark.parametrize("alpha", [2, 3, 5, 8, 13])
    def test_strictly_increasing_and_symmetric(self, alpha):
        cuts = breakpoints(alpha)
        assert len(cuts) == alpha - 1
        assert (np.diff(cuts) > 0).all()
        np.testing.assert_allclose(cuts, -cuts[::-1], atol=1e-9)

    def test_bitwise_equal_to_scipy_for_every_alphabet(self):
        for alpha in range(2, 501):
            want = special.ndtri(np.arange(1, alpha) / alpha)
            assert np.array_equal(breakpoints(alpha), want), alpha


class TestNdtri:
    def test_bitwise_equal_to_scipy_on_random_probabilities(self):
        # each branch: the central region, the tails above and below
        # exp(-32), far tails down to 1e-300 and p within 1e-16 of 1
        rng = np.random.default_rng(0)
        p = np.concatenate([
            rng.random(20_000),
            10.0 ** -rng.uniform(0, 300, 20_000),
            1.0 - rng.uniform(0, 1e-16, 2_000),
            [5e-324, 1e-300, 0.5, 1.0 - 2.0**-53,
             0.13533528323661269189, 1.0 - 0.13533528323661269189],
        ])
        got = np.array([_ndtri(v) for v in p.tolist()])
        assert np.array_equal(got, special.ndtri(p))

    def test_edges_match_scipy(self):
        for p in (0.0, 1.0):
            assert _ndtri(p) == special.ndtri(p)
        for p in (-0.5, 1.5, float("nan")):
            assert np.isnan(_ndtri(p)) and np.isnan(special.ndtri(p))


class TestMeanStd:
    def test_small_window(self):
        mu, sigma = meanstd_transform([1, 2, 3])
        assert mu == pytest.approx(2.0)
        assert sigma == pytest.approx(0.81650, abs=1e-5)

    def test_constant_window(self):
        mu, sigma = meanstd_transform([5, 5, 5])
        assert (mu, sigma) == (5.0, 0.0)

    def test_four_values(self):
        mu, sigma = meanstd_transform([0, 0, 0, 4])
        assert mu == pytest.approx(1.0)
        assert sigma == pytest.approx(1.73205, abs=1e-5)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64),
    )
    def test_matches_two_pass_brute_force(self, values):
        mu, sigma = meanstd_transform(values)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert mu == pytest.approx(mean, abs=1e-12 * max(1, abs(mean)))
        assert sigma == pytest.approx(var**0.5, rel=1e-12, abs=1e-9)

    def test_streaming_is_fifo(self):
        feats = MeanStdFeatures(3)
        out = [feats.push(v) for v in [1, 2, 3, 4, 5]]
        assert out[0] is None and out[1] is None
        np.testing.assert_allclose(out[2], meanstd_transform([1, 2, 3]))
        np.testing.assert_allclose(out[3], meanstd_transform([2, 3, 4]))
        np.testing.assert_allclose(out[4], meanstd_transform([3, 4, 5]))


class TestSax:
    def test_step_window(self):
        assert sax_transform([0, 0, 10, 10], 2, 3) == "ac"

    def test_constant_window_maps_to_middle(self):
        assert sax_transform([7.0, 7.0, 7.0, 7.0], 2, 3) == "bb"

    def test_constant_window_inexact_mean(self):
        # identical values whose float mean is inexact still count as constant
        assert sax_transform([0.1, 0.1, 0.1, 0.1], 2, 3) == "bb"

    def test_even_alphabet_uses_lower_middle(self):
        assert sax_transform([1.0, 1.0], 2, 4) == "bb"

    def test_sign_window_two_symbols(self):
        assert sax_transform([-3, -1, 1, 3], 4, 2) == "aabb"

    def test_indivisible_window_rejected(self):
        # a constant window takes the middle-symbol shortcut, but not past the check
        for values in ([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]):
            with pytest.raises(ConfigError, match="not divisible"):
                sax_transform(values, 2, 3)

    @given(
        st.lists(st.integers(-50, 50), min_size=8, max_size=8),
        st.integers(1, 20),
        st.integers(-40, 40),
    )
    @settings(max_examples=200)
    def test_shift_scale_invariance(self, lattice, a4, b4):
        # coarse lattice inputs keep PAA values away from breakpoint ulp-edges
        x = np.asarray(lattice, dtype=float)
        a, b = a4 / 4.0, b4 / 4.0
        assert sax_transform(a * x + b, 4, 5) == sax_transform(x, 4, 5)

    def test_shift_scale_invariance_random_floats(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.normal(size=16)
            a = rng.uniform(0.1, 10)
            b = rng.uniform(-5, 5)
            assert sax_transform(a * x + b, 4, 6) == sax_transform(x, 4, 6)

    def test_equiprobable_symbols(self):
        # standard-normal PAA values must hit each symbol with frequency 1/alpha
        rng = np.random.default_rng(123)
        for alpha in (3, 5, 8):
            word = symbolize(rng.standard_normal(1_000_000), alpha)
            freqs = np.array([word.count(c) for c in sorted(set(word))]) / len(word)
            assert len(freqs) == alpha
            np.testing.assert_allclose(freqs, 1 / alpha, atol=0.01)

    def test_streaming_window_and_warmup(self):
        feats = SaxFeatures(4, 2, 3)
        out = [feats.push(v) for v in [0, 0, 10, 10, 0]]
        assert out[:3] == [None, None, None]
        assert out[3] == "ac"
        assert out[4] == sax_transform([0, 10, 10, 0], 2, 3)

    def test_streaming_config_validation(self):
        with pytest.raises(ConfigError):
            SaxFeatures(5, 2, 3)
        with pytest.raises(ConfigError):
            SaxFeatures(4, 2, 1)


# --- streaming features against numpy's own reductions --------------------------

# runs of repeated values give constant windows, including ones whose float
# mean is inexact, and windows of zeros of either sign
RUNS = st.lists(st.tuples(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
                          st.integers(1, 12)), min_size=1, max_size=12)


def last_windows(runs, window):
    """Each value of the runs, with the last `window` values up to it (None until it fills).

    The runs repeat, whole, until they give at least `window` + 8 values.
    """
    values = [v for v, repeat in runs for _ in range(repeat)]
    values *= -(-(window + 8) // len(values))
    for i in range(len(values)):
        yield values[i], (np.array(values[i + 1 - window : i + 1]) if i + 1 >= window else None)


def numpy_sax(x, segments, alphabet_size):
    sd = x.std()
    if np.all(x == x[0]) or sd == 0.0:
        return SAX_ALPHABET[(alphabet_size + 1) // 2 - 1] * segments
    z = (x - x.mean()) / sd
    return symbolize(z.reshape(segments, -1).mean(axis=1), alphabet_size)


# mixed magnitudes, and both zeros so that runs of them occur
SUMMANDS = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0]),
)


class TestPairwiseSum:
    """The window kernel against numpy's float64 ``add.reduce``, byte for byte."""

    @given(st.lists(st.tuples(SUMMANDS, st.integers(1, 40)), min_size=1, max_size=40),
           st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_numpy_add_reduce(self, runs, n):
        values = [v for v, repeat in runs for _ in range(repeat)]
        values = (values * -(-n // len(values)))[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.add.reduce(np.array(values))
        assert np.float64(_pairwise_sum(values, 0, n)).tobytes() == want.tobytes()

    def test_every_length_of_negative_zeros_and_of_normals(self):
        # numpy adds the sum to the identity +0.0, so all -0.0 sums to +0.0
        rng = np.random.default_rng(11)
        for n in range(1, 301):
            for x in (np.full(n, -0.0), rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)):
                got = _pairwise_sum(x.tolist(), 0, n)
                assert np.float64(got).tobytes() == np.add.reduce(x).tobytes(), n

    def test_offset_sums_the_slice(self):
        x = np.random.default_rng(12).normal(size=300)
        for lo, n in ((5, 17), (40, 129), (1, 257)):
            got = _pairwise_sum(x.tolist(), lo, n)
            assert np.float64(got).tobytes() == np.add.reduce(x[lo : lo + n]).tobytes()


class TestStreamingMatchesNumpy:
    # windows on both sides of numpy's 8-element pairwise-summation block and
    # of its 128-element split; features compare as bytes, so a -0.0 in
    # place of 0.0 fails
    @given(RUNS, st.sampled_from([1, 4, 7, 8, 9, 10, 16, 17, 127, 128, 129, 136, 257]))
    @settings(deadline=None)
    def test_meanstd_push_is_bitwise_numpy(self, runs, window):
        feats = MeanStdFeatures(window)
        for value, x in last_windows(runs, window):
            out = feats.push(value)
            if x is None:
                assert out is None
            else:
                assert out.tobytes() == np.array([x.mean(), x.std()]).tobytes()
                assert meanstd_transform(x).tobytes() == out.tobytes()

    @given(RUNS, st.sampled_from([(1, 1), (4, 2), (7, 7), (8, 4), (10, 5), (16, 4),
                                  (128, 4), (136, 8), (264, 8)]),
           st.integers(2, 8))
    @settings(deadline=None)
    def test_sax_push_is_bitwise_numpy(self, runs, shape, alphabet_size):
        window, segments = shape
        feats = SaxFeatures(window, segments, alphabet_size)
        for value, x in last_windows(runs, window):
            word = feats.push(value)
            if x is None:
                assert word is None
            else:
                assert paa(x, segments).tobytes() == x.reshape(segments, -1).mean(axis=1).tobytes()
                assert word == numpy_sax(x, segments, alphabet_size)
                assert sax_transform(x, segments, alphabet_size) == word


class TestFeatureReplay:
    VALUES = np.random.default_rng(5).normal(size=40).tolist()

    @pytest.mark.parametrize("make", [lambda: MeanStdFeatures(10), lambda: SaxFeatures(16, 4, 5)],
                             ids=["meanstd", "sax"])
    def test_replay_gives_the_computed_features(self, make):
        rep = make()
        computed = [rep.push(v) for v in self.VALUES]
        replay = FeatureReplay(self.VALUES, feature_tape(make(), self.VALUES))
        for v, expected in zip(self.VALUES, computed):
            got = replay.push(v)
            if expected is None:
                assert got is None
            elif isinstance(expected, str):
                assert got == expected
            else:
                assert got.tobytes() == expected.tobytes()

    def test_meanstd_tape_is_one_read_only_array(self):
        start, rows = feature_tape(MeanStdFeatures(10), self.VALUES)
        assert start == 9
        assert rows.shape == (31, 2) and rows.dtype == np.float64
        replay = FeatureReplay(self.VALUES, (start, rows))
        feature = [replay.push(v) for v in self.VALUES][-1]
        with pytest.raises(ValueError):
            feature[0] = 0.0
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    def test_value_that_differs_from_the_tape_raises(self):
        replay = FeatureReplay(self.VALUES, feature_tape(MeanStdFeatures(10), self.VALUES))
        for v in self.VALUES[:12]:
            replay.push(v)
        with pytest.raises(DataError, match="at position 12"):
            replay.push(self.VALUES[12] + 1e-12)

    def test_push_past_the_tape_raises(self):
        replay = FeatureReplay(self.VALUES, feature_tape(SaxFeatures(16, 4, 5), self.VALUES))
        for v in self.VALUES:
            replay.push(v)
        with pytest.raises(DataError, match="at position 40"):
            replay.push(self.VALUES[-1])

    def test_series_shorter_than_the_window_is_all_warm_up(self):
        start, rows = feature_tape(MeanStdFeatures(10), self.VALUES[:4])
        assert (start, rows.shape) == (4, (0, 2))
        replay = FeatureReplay(self.VALUES[:4], (start, rows))
        assert [replay.push(v) for v in self.VALUES[:4]] == [None] * 4

    def test_key_is_the_constructor_arguments(self):
        assert MeanStdFeatures(10).key == ("meanstd", 10)
        assert SaxFeatures(16, 4, 5).key == ("sax", 16, 4, 5)
