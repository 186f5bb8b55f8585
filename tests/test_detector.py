import math
import tracemalloc

import numpy as np
import pytest

from oracles import gaussian_stream, naive_records
from test_records import record_digest

from refstream.datasets import DatasetBundle
from refstream.detector import (
    DETECTOR_GRID,
    DetectorConfig,
    StreamPoint,
    build_detector,
    named_config,
)
from refstream.errors import ConfigError, DataError, DegenerateGroupError
from refstream.learning import AnomalyAwareReservoir, ares_weight
from refstream.nonconformity import FrequencyMeasure
from refstream.synthetic import benchmark_stream


def stream(values):
    return [StreamPoint(i + 1, float(v)) for i, v in enumerate(values)]


class TestConfig:
    def test_grid_has_twenty_detectors(self):
        assert len(DETECTOR_GRID) == 20
        assert len(set(DETECTOR_GRID)) == 20

    @pytest.mark.parametrize("name", DETECTOR_GRID)
    def test_every_grid_combination_builds(self, name):
        det = build_detector(named_config(name, k=3), n_points=400)
        assert det.probation_len == 60

    def test_rep_window_default_follows_the_measure(self):
        # 16 values for freq's SAX words, 10 for (mean, std), whatever else is set
        for name, overrides, rep_window in (("sw-freq", {"sax_segments": 4}, 16),
                                            ("sw-freq", {"sax_segments": 8}, 16),
                                            ("sw-freq", {"rep_window": 12, "sax_segments": 3}, 12),
                                            ("sw-nn", {"sax_segments": 3}, 10)):
            config = build_detector(named_config(name, **overrides), n_points=400).config
            assert config.rep_window == rep_window, (name, overrides)
        assert named_config("sw-freq").resolve(400).rep_window == 16
        with pytest.raises(ConfigError, match="rep_window 16 must be divisible by sax_segments 5"):
            named_config("sw-freq", sax_segments=5).validate()

    def test_invalid_parameter_names_field(self):
        with pytest.raises(ConfigError, match="threshold"):
            build_detector(DetectorConfig(threshold=1.5), n_points=100)
        with pytest.raises(ConfigError, match="decay"):
            build_detector(DetectorConfig(decay=0.0), n_points=100)
        with pytest.raises(ConfigError, match="probationary_fraction"):
            build_detector(DetectorConfig(probationary_fraction=1.0), n_points=100)
        with pytest.raises(ConfigError, match="landmark"):
            build_detector(named_config("lw-nn", landmark=-5), n_points=100)
        # SaxFeatures has one letter per symbol; the config says so before a run
        for alphabet in (1, 27, 30):
            with pytest.raises(ConfigError, match=r"sax_alphabet must be in \[2, 26\]"):
                named_config("sw-freq", sax_alphabet=alphabet).validate()
        named_config("sw-freq", sax_alphabet=26).validate()
        # resolved p = 60: the lw group would be empty at the boundary
        for landmark in (60, 100):
            with pytest.raises(ConfigError, match=f"landmark {landmark} .*probation_len 60"):
                build_detector(named_config("lw-nn", k=3, landmark=landmark), n_points=400)
        assert build_detector(named_config("lw-nn", k=3, landmark=59), n_points=400).probation_len == 60

    @pytest.mark.parametrize("config, field", [
        (named_config("sw-nn", window=0), "window"),
        (named_config("sw-nn", k=0), "k"),
        (named_config("sw-cc", n_clusters=0), "n_clusters"),
        (named_config("sw-cc", recompute_factor=0.0), "recompute_factor"),
        (named_config("sw-nn", rep_window=0), "rep_window"),
        (named_config("sw-nn", ks_window=0), "ks_window"),
        (named_config("sw-nn", test_period=0), "test_period"),
        # window and ks_window default to p, so p is checked first
        (named_config("sw-nn", probation_len=0), "probation_len"),
        (DetectorConfig(strategy="tumbling"), "strategy"),
        (DetectorConfig(measure="iforest"), "measure"),
        (named_config("sw-nn", refresh="lazy"), "refresh"),
        (named_config("sw-freq", sax_segments=0), "sax_segments"),
        (named_config("sw-freq", sax_segments=3), "sax_segments"),
        # not a number, so resolving cannot derive p from it
        (named_config("sw-nn", probationary_fraction=math.nan), "probationary_fraction"),
        (named_config("sw-nn", probationary_fraction=math.inf), "probationary_fraction"),
    ])
    def test_each_rule_names_its_field(self, config, field):
        # the components check nothing: the config is the one place
        with pytest.raises(ConfigError, match=rf"(?<![a-z_]){field}\b"):
            build_detector(config, n_points=100)

    def test_build_detector_validates_once(self, monkeypatch):
        calls = []
        validate = DetectorConfig.validate
        monkeypatch.setattr(DetectorConfig, "validate",
                            lambda self: calls.append(self) or validate(self))
        det = build_detector(named_config("sw-nn", k=3), n_points=400)
        assert calls == [det.config]  # the resolved config, which knows p

    def test_unresolved_length_rejected(self):
        with pytest.raises(ConfigError, match="probation"):
            build_detector(DetectorConfig())

    def test_window_defaults_to_probation_length(self):
        det = build_detector(DetectorConfig(rep_window=1, k=2), n_points=200)
        assert det.config.window == 30
        assert det.config.ks_window == 30


class TestProbationaryContract:
    def test_no_records_during_probation(self):
        det = build_detector(named_config("sw-nn", rep_window=1, k=3), n_points=200)
        values = gaussian_stream(200, seed=0)
        emitted = [det.process(p) for p in stream(values)]
        assert all(r is None for r in emitted[:30])
        assert all(r is not None for r in emitted[30:])

    def test_record_count_and_timestamps(self):
        # 200 points, p = 30: exactly 170 records at t = 31..200
        det = build_detector(named_config("sw-nn", rep_window=1, k=3), n_points=200)
        recs = det.run(stream(gaussian_stream(200, seed=1)))
        assert len(recs) == 170
        assert [r.timestamp for r in recs] == list(range(31, 201))

    def test_short_stream_emits_nothing(self):
        det = build_detector(named_config("sw-nn", rep_window=1, k=3), n_points=200)
        assert det.run(stream(gaussian_stream(25, seed=2))) == []

    def test_warmup_points_are_buffered_silently(self):
        det = build_detector(named_config("sw-nn", rep_window=10, k=3), n_points=200)
        recs = det.run(stream(gaussian_stream(200, seed=3)))
        assert len(recs) == 170  # warm-up eats features, not records

    def test_constant_stream_never_flags(self):
        det = build_detector(named_config("sw-nn", rep_window=4, k=3), n_points=1000)
        recs = det.run(stream(np.full(1000, 42.0)))
        assert len(recs) == 850
        assert all(not r.flagged for r in recs)
        assert all(r.final_score <= det.config.threshold for r in recs)

    def test_constant_stream_settles_quiet_freq(self):
        # tie p-values are 0 for the frequency measure (query scores against
        # the full group, members leave-one-out), so the seeded window flushes
        # through a turbulent stretch; the steady state must stay quiet
        det = build_detector(named_config("sw-freq"), n_points=500)
        recs = det.run(stream(np.full(500, 7.0)))
        settle = det.probation_len + 2 * det.config.ks_window
        tail = [r for r in recs if r.timestamp > settle]
        assert tail and all(not r.flagged for r in tail)


class TestDegenerateGroup:
    """The bootstrap alone rejects a group too small to seed the scorer, naming the cause."""

    def _error(self, name, refresh="incremental", **overrides):
        # p = 15 and a representation window of 8 let 8 features reach the group
        config = named_config(name, **{"probation_len": 15, "rep_window": 8, "refresh": refresh,
                                       **overrides})
        with pytest.raises(DegenerateGroupError) as exc:
            build_detector(config).run(stream(gaussian_stream(40, seed=5)))
        return str(exc.value)

    @pytest.mark.parametrize("measure", ["nn", "den"])
    def test_group_of_at_most_k_names_k_in_both_refresh_modes(self, measure):
        errors = {self._error(f"sw-{measure}", refresh) for refresh in ("incremental", "exact")}
        assert errors == {f"at t=15: reference group of size 8 cannot seed the scorer: "
                          f"{measure} needs more than k=10 members; lengthen the probation "
                          "or shrink k"}

    def test_group_kept_below_two_names_the_strategy(self):
        assert self._error("sw-cc", window=1) == (
            "at t=15: reference group of size 1 cannot seed the scorer: the sw strategy "
            "kept 1 of 8 features; the scorer needs 2")

    def test_representation_window_past_probation_names_rep_window(self):
        # the first feature arrives at t = 16, after the boundary: a late seed
        for name in ("sw-nn", "sw-cc", "sw-freq"):
            assert self._error(name, rep_window=16) == (
                "at t=16: reference group of size 0 cannot seed the scorer: only 0 features "
                "reached it in probation_len=15 points, as the first takes rep_window=16 "
                "values; lengthen the probation or shrink rep_window")


class TestGroupAgreement:
    """The strategy and the measure hold the same group after every point."""

    @pytest.mark.parametrize("name", DETECTOR_GRID)
    def test_strategy_and_measure_agree_after_late_seed(self, name):
        # t = p is missing, so the scorer is seeded at the first t > p
        det = build_detector(named_config(name, k=3, seed=4, probation_len=50))
        points = [StreamPoint(t, float(v))
                  for t, v in enumerate(gaussian_stream(200, seed=12), start=1) if t != 50]
        records = []
        for p in points:
            record = det.process(p)
            if record is not None:
                records.append(record)
            assert len(det.strategy) == len(det.measure)
            if det.config.strategy in ("sw", "ures", "ares"):
                if isinstance(det.strategy, AnomalyAwareReservoir):
                    arrivals = det.strategy._arrivals[: len(det.strategy)].tolist()
                else:
                    arrivals = det.strategy.arrivals
                members = (det.measure._words if isinstance(det.measure, FrequencyMeasure)
                           else det.measure._slot_of)
                assert set(arrivals) == set(members)
        assert records[0].timestamp == 51
        assert [r.timestamp for r in records] == list(range(51, 201))


class TestStreamContracts:
    def test_non_monotone_timestamp_rejected(self):
        det = build_detector(named_config("sw-nn", rep_window=1, k=3), n_points=100)
        det.process(StreamPoint(1, 0.0))
        with pytest.raises(DataError, match="non-monotone"):
            det.process(StreamPoint(1, 0.0))

    def test_non_finite_value_rejected(self):
        det = build_detector(named_config("sw-nn", rep_window=1, k=3), n_points=100)
        with pytest.raises(DataError, match="non-finite"):
            det.process(StreamPoint(1, math.nan))

    def test_overflowed_window_scores_nan_in_small_and_large_stores(self):
        # finite values whose window statistics overflow: at t=306 the
        # query's distances to the group are NaN, so its LOF is NaN and
        # its p-value 0 whether the group is a small store (w=60) or a
        # large one (w=100), not LOF 0 and p 1 in the large store
        values, _ = benchmark_stream(400, seed=3, kind="drift")
        values[300:304] = (1.7e308, 1.7e308, -1.7e308, -1.7e308)
        for w in (60, 100):
            config = named_config("fr-den", window=w, probation_len=w, ks_window=w)
            with np.errstate(all="ignore"):
                records = build_detector(config, n_points=400).run(stream(values))
            record = next(r for r in records if r.timestamp == 306)
            assert math.isnan(record.nonconformity) and record.p_value == 0.0, w

    def test_run_adds_timestamp_context(self):
        det = build_detector(named_config("sw-nn", rep_window=1, k=3), n_points=100)
        bad = [StreamPoint(1, 0.0), StreamPoint(1, 1.0)]
        with pytest.raises(DataError, match="at t=1"):
            det.run(bad)

    def test_run_equals_fold_of_process(self):
        values = gaussian_stream(300, seed=4)
        det_a = build_detector(named_config("ures-nn", rep_window=1, k=3, seed=9), n_points=300)
        recs_a = det_a.run(stream(values))
        det_b = build_detector(named_config("ures-nn", rep_window=1, k=3, seed=9), n_points=300)
        recs_b = [r for p in stream(values) if (r := det_b.process(p)) is not None]
        assert recs_a == recs_b


class TestDeterminism:
    @pytest.mark.parametrize("name", ["sw-nn", "ures-den", "ares-cc", "lw-freq"])
    def test_identical_runs_are_bit_identical(self, name):
        values = gaussian_stream(260, seed=5)
        recs = []
        for _ in range(2):
            det = build_detector(named_config(name, k=3, seed=13), n_points=260)
            recs.append(det.run(stream(values)))
        assert recs[0] == recs[1]

    def test_seed_changes_reservoir_path(self):
        values = gaussian_stream(400, seed=6)
        outs = []
        for seed in (1, 2):
            det = build_detector(named_config("ures-nn", rep_window=1, k=3, seed=seed), n_points=400)
            outs.append(det.run(stream(values)))
        assert outs[0] != outs[1]


class TestRefreshEquivalence:
    """Gate: incremental reference-score maintenance equals full recomputation."""

    @pytest.mark.parametrize("name", [
        "sw-nn", "sw-den", "ures-nn", "ares-den", "lw-nn", "fr-den",
        "fr-cc", "fr-freq", "ures-cc", "ares-freq",
    ])
    def test_modes_agree_bitwise_on_records(self, name):
        values = gaussian_stream(240, seed=7)
        # freq keeps its SAX default window, which must divide into segments
        rep = {} if name.endswith("freq") else {"rep_window": 1}
        runs = {}
        for refresh in ("incremental", "exact"):
            det = build_detector(
                named_config(name, k=3, seed=21, refresh=refresh, **rep), n_points=240
            )
            runs[refresh] = det.run(stream(values))
        inc, exact = runs["incremental"], runs["exact"]
        assert len(inc) == len(exact)
        for a, b in zip(inc, exact):
            assert a == b

    def test_stored_reference_scores_match_recomputation_each_step(self):
        det = build_detector(named_config("sw-den", rep_window=1, k=3, seed=3), n_points=200)
        for p in stream(gaussian_stream(200, seed=8)):
            det.process(p)
            if p.timestamp > det.probation_len:
                np.testing.assert_array_equal(
                    det.measure.member_scores(), det.measure.recompute_member_scores()
                )


class TestRefreshSkip:
    """After probation the reference scores are refreshed only when the group changed."""

    @pytest.mark.parametrize("name", ["fr-nn", "fr-den", "fr-cc", "fr-freq", "sw-nn", "ures-nn"])
    def test_member_scores_follow_group_changes(self, name):
        det = build_detector(named_config(name, k=3, seed=5), n_points=400)
        points = stream(gaussian_stream(400, seed=11))
        for p in points[: det.probation_len]:
            det.process(p)
        assert det.scorer.bootstrapped

        counts = {"member_scores": 0, "admits": 0, "scored": 0}
        member_scores, update = det.measure.member_scores, det.strategy.update

        def counted_member_scores():
            counts["member_scores"] += 1
            return member_scores()

        def counted_update(feature, t, score=0.0):
            added, removed = update(feature, t, score)
            counts["admits"] += added is not None
            return added, removed

        det.measure.member_scores = counted_member_scores
        det.strategy.update = counted_update
        for p in points[det.probation_len :]:
            counts["scored"] += det.process(p) is not None

        # none of these strategies evicts without admitting
        assert counts["member_scores"] == counts["admits"]
        if name.startswith("fr-"):
            assert counts["member_scores"] == 0
        elif name == "sw-nn":
            assert counts["member_scores"] == counts["scored"] == len(points) - det.probation_len
        else:  # ures admits a shrinking share of arrivals, each replacing one member
            assert 0 < counts["member_scores"] < counts["scored"]


class TestAresFeedback:
    def test_update_weight_uses_emitted_score(self):
        cfg = named_config("ares-nn", rep_window=1, k=3, seed=17)
        det = build_detector(cfg, n_points=300)
        values = gaussian_stream(300, seed=9)
        seen = []
        original = det.strategy._draw_priority

        def spy(score):
            seen.append(score)
            return original(score)

        det.strategy._draw_priority = spy
        recs = det.run(stream(values))
        # probationary samples carry score 0 (weight 1)
        assert seen[: det.probation_len] == [0.0] * det.probation_len
        # afterwards the strategy sees exactly the emitted final scores
        np.testing.assert_array_equal(seen[det.probation_len :], [r.final_score for r in recs])
        assert all(0 < ares_weight(s, cfg.decay) <= 1 for s in seen)


class TestMemoryBound:
    def test_single_pass_state_is_bounded(self):
        cfg = named_config("sw-freq", window=150, ks_window=150, probation_len=400)
        det = build_detector(cfg)
        n = 0

        def generated():
            rng = np.random.default_rng(10)
            for i in range(1, 22_696):
                yield StreamPoint(i, float(rng.normal()))

        for p in generated():
            det.process(p)
            n += 1
        assert n == 22_695
        assert len(det.strategy) <= 150
        assert len(det.scorer.window) <= 150
        assert len(det.representation._buf) <= det.config.rep_window == 16

    def test_memory_highwater_independent_of_stream_length(self):
        def peak(n_points):
            cfg = named_config("sw-freq", window=100, ks_window=100, probation_len=300, seed=1)
            det = build_detector(cfg)
            rng = np.random.default_rng(11)
            tracemalloc.start()
            for i in range(1, n_points + 1):
                det.process(StreamPoint(i, float(rng.normal())))
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return high

        small, large = peak(3_000), peak(12_000)
        assert large < small * 1.5 + 200_000


# 200 points: probation, window and K-S window all 30 at the defaults
NAIVE_N = 200
DRIFT = stream(benchmark_stream(NAIVE_N, seed=201, kind="drift")[0])
PERIODIC = stream(benchmark_stream(NAIVE_N, seed=202, kind="periodic")[0])
# runs of four repeats of a few levels, then a constant stretch: duplicate
# features, distance ties, zero-variance windows and one-word SAX groups
REPEATED = np.repeat(np.random.default_rng(203).integers(0, 4, NAIVE_N // 4) / 2, 4)
REPEATED[100:140] = 1.0
# case -> (config overrides, points, whether the features come from a replayed
# tape, as a grid job reads them)
NAIVE_CASES = {
    "drift": ({}, DRIFT, False),
    "periodic, replayed features": ({}, PERIODIC, True),
    "repeated values": ({}, stream(REPEATED), False),
    "test_period 3": ({"test_period": 3}, DRIFT, False),
    "late bootstrap, t = p missing": ({}, [p for p in DRIFT if p.timestamp != 30], False),
}


class TestNaivePipeline:
    """Each detector's records equal, bit for bit, those of the naive pipeline in tests/oracles.py."""

    @pytest.mark.parametrize("name", DETECTOR_GRID)
    def test_records_equal_the_naive_pipeline(self, name):
        moved = []
        for case, (overrides, points, replay) in NAIVE_CASES.items():
            config = named_config(name, **overrides).resolve(NAIVE_N)
            det = build_detector(config)
            if replay:
                bundle = DatasetBundle(case, np.array([v for _, v in points]), [], set())
                det.representation = bundle.replay(det.representation)
            got, want = det.run(points), naive_records(config, points)
            pack = record_digest.RECORD.pack
            differ = [a.timestamp for a, b in zip(got, want) if pack(*a) != pack(*b)]
            if differ or len(got) != len(want):
                moved.append(f"{case}: {len(got)} records against {len(want)}, {len(differ)} "
                             f"differ, the first at t = {differ[0] if differ else None}")
        assert not moved, f"{name}: {len(moved)} runs moved:\n" + "\n".join(moved)
