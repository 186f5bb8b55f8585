"""Plain oracles for every stage of a detector, and a naive pipeline that chains them.

Each oracle computes one stage the direct way, with none of the package's
caches, incremental updates or fast paths:

- representation: numpy's ``mean`` and ``std`` (``meanstd``); SAX by
  reshaped segment means and scipy's ``ndtri`` breakpoints (``numpy_sax``);
- distances: columns subtracted, squared and added in column order, then
  ``np.sqrt``, the package's arithmetic (``math.dist`` rounds otherwise);
- kNN: a query's k smallest distances summed in ``np.partition``'s order
  (``knn_query``), a member's summed ascending (``knn_members``), over k;
- LOF by its standard definition over the full distance matrix, with
  ``REACH_FLOOR``, neighbours the first k by (distance, arrival) and sums
  in neighbour order (``lof_caches``, ``lof_query``);
- cc: ``ArrayClusterModel``, the model's state in numpy arrays, which
  reclusters with ``loop_lloyd_kmeans``; freq: a ``Counter`` of the words;
- p-values by counting (``p_value``, ``loo_p_values``); K-S by sorting the
  window (``ks_statistic``), its significance from ``ks_significance``;
  unification by a plain Welford loop (``Unifier``);
- ``grid_ks``, the K-S statistic by a grid search over [0, 1], and
  ``pairwise_auc``, ROC-AUC by its pairwise definition.

``naive_records(config, points)`` chains them with the package's own
strategies, which criteria 01 and 02 test. After every step it recomputes
every member score from scratch: no refresh skip, incremental rows,
distance matrix, sorted window, bisected p-value or drift bound (the
cluster model checks its drift exactly at every change). Its records
equal ``Detector.run``'s bit for bit. Every comparison with an oracle is
bitwise except criterion 09's with ``grid_ks`` (absolute 1e-9).
"""

import math
from collections import Counter

import numpy as np
from scipy import special

from refstream.detector import ScoreRecord
from refstream.learning import (
    AnomalyAwareReservoir,
    FixedReference,
    LandmarkWindow,
    SlidingWindow,
    UniformReservoir,
)
from refstream.nonconformity import REACH_FLOOR, ClusterModel, _SlotStore, lloyd_kmeans
from refstream.representation import SAX_ALPHABET
from refstream.scoring import SIGNIFICANCE_FLOOR, ks_significance


def gaussian_stream(n, seed, loc=0.0, scale=1.0):
    """n i.i.d. normal values."""
    return np.random.default_rng(seed).normal(loc, scale, size=n)


def level_shift_stream(n, shift_at, magnitude, seed, scale=1.0):
    """I.i.d. noise with a persistent level shift starting at ``shift_at``."""
    values = np.random.default_rng(seed).normal(0.0, scale, size=n)
    values[shift_at - 1 :] += magnitude
    return values


def meanstd(x):
    """Mean and population standard deviation of a window."""
    x = np.asarray(x, dtype=float)
    return np.array([x.mean(), x.std()])


def numpy_sax(x, segments, alphabet_size):
    """SAX word of a window; a constant or zero-variance one maps to the middle symbol."""
    x = np.asarray(x, dtype=float)
    sd = x.std()
    if np.all(x == x[0]) or sd == 0.0:
        return SAX_ALPHABET[(alphabet_size + 1) // 2 - 1] * segments
    means = ((x - x.mean()) / sd).reshape(segments, -1).mean(axis=1)
    cuts = special.ndtri(np.arange(1, alphabet_size) / alphabet_size)
    return "".join(SAX_ALPHABET[i] for i in np.searchsorted(cuts, means, side="right"))


def distances(features, x):
    """Euclidean distances over the last axis (broadcasting), columns added in order."""
    features, x = np.asarray(features, dtype=float), np.asarray(x, dtype=float)
    d = features[..., 0] - x[..., 0]
    sq = d * d
    for j in range(1, features.shape[-1]):
        d = features[..., j] - x[..., j]
        sq = sq + d * d
    return np.sqrt(sq)


def knn_query(x, feats, k):
    """Mean distance from x to its k nearest members, summed in np.partition's order."""
    return float(np.add.reduce(np.partition(distances(feats, x), k - 1)[:k]) / k)


def _matrix(feats):
    """Distances between every two members, inf from a member to itself."""
    feats = np.asarray(feats, dtype=float)
    dist = distances(feats[:, None, :], feats[None, :, :])
    np.fill_diagonal(dist, np.inf)
    return dist


def knn_members(feats, k):
    """Each member's mean distance to its k nearest other members, summed ascending."""
    return np.add.reduce(np.sort(_matrix(feats), axis=1)[:, :k], axis=1) / k


def lof_caches(feats, k):
    """Each member's k-distance, LRD and LOF (standard LOF; ties go to the earlier member)."""
    dist = _matrix(feats)
    nbr = np.argsort(dist, axis=1, kind="stable")[:, :k]
    near = np.take_along_axis(dist, nbr, axis=1)
    kdist = near[:, -1]
    lrd = 1.0 / (np.add.reduce(np.maximum(np.maximum(kdist[nbr], near), REACH_FLOOR), axis=1) / k)
    return kdist, lrd, np.add.reduce(lrd[nbr], axis=1) / k / lrd


def lof_query(x, feats, k, caches=None):
    """LOF of a query point (not a member) against the group, given its ``lof_caches`` or not."""
    kdist, lrd, _ = lof_caches(feats, k) if caches is None else caches
    d = distances(feats, x)
    nbr = np.argsort(d, kind="stable")[:k]
    lrd_x = 1.0 / (np.add.reduce(np.maximum(np.maximum(kdist[nbr], d[nbr]), REACH_FLOOR)) / k)
    return float(np.add.reduce(lrd[nbr]) / k / lrd_x)


def loop_lloyd_kmeans(features, n_clusters, rng, max_iter=100):
    """Lloyd's k-means by a per-cluster update loop, seeded from ``np.unique``'s rows.

    Returns (centroids, assignment); an emptied cluster keeps its centroid.
    """
    feats = np.asarray(features, dtype=float)
    uniq = np.unique(feats, axis=0)
    kk = min(n_clusters, len(uniq))
    centroids = uniq[rng.choice(len(uniq), size=kk, replace=False)].copy()
    assign = None
    for _ in range(max_iter):
        d2 = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(kk):
            members = feats[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids, assign


class ArrayClusterModel(_SlotStore):
    """``ClusterModel`` with its per-cluster state in numpy arrays.

    The update formulas are those the list state replaced: the nearest
    centroid by numpy's argmin, running sums and counts updated in place,
    and each centroid their quotient. The drift check is the model's own;
    a recluster runs ``kmeans`` and sums each cluster's members in arrival
    order.
    """

    _WHAT = "cluster model"
    _SLOT_FILLS = {"_assign": -1}

    def __init__(self, n_clusters, recompute_factor, rng, kmeans=lloyd_kmeans):
        super().__init__()
        self.n_clusters, self.recompute_factor, self.rng = n_clusters, recompute_factor, rng
        self.kmeans = kmeans
        self.centroids = self._sums = np.empty((0, 0))
        self._counts = np.empty(0, dtype=np.int64)
        self._baseline, self._bound, self.recompute_count = None, 0.0, 0
        self._assign = np.empty(0, dtype=np.int64)

    _check_drift = ClusterModel._check_drift
    _SLACK = ClusterModel._SLACK

    def insert(self, ident, feature):
        x = np.asarray(feature, dtype=float)
        slot = self._claim(ident, x)
        if self.centroids.shape[1] != x.size:
            self.centroids, self._sums = np.empty((0, x.size)), np.empty((0, x.size))
        if len(self.centroids) < self.n_clusters and self._baseline is None:
            self.centroids = np.vstack([self.centroids, x])
            self._sums = np.vstack([self._sums, x])
            self._counts = np.append(self._counts, 1)
            self._assign[slot] = len(self.centroids) - 1
        else:
            c = distances(self.centroids, x).argmin()
            self._assign[slot] = c
            n_old = int(self._counts[c])
            self._sums[c] += x
            self._counts[c] += 1
            new = self._sums[c] / self._counts[c]
            shift = math.dist(new, self.centroids[c])
            self.centroids[c] = new
            self._bound += (math.dist(x, new) + n_old * shift) * (1.0 + self._SLACK)
        self._check_drift()

    def remove(self, ident):
        slot = self._release(ident)
        c = self._assign[slot]
        x = self._X[slot]
        gone = math.dist(x, self.centroids[c])
        self._sums[c] -= x
        self._counts[c] -= 1
        n_left = int(self._counts[c])
        shift = 0.0
        if n_left > 0:
            new = self._sums[c] / self._counts[c]
            shift = math.dist(new, self.centroids[c])
            self.centroids[c] = new
        self._bound += n_left * shift * (1.0 + self._SLACK) - gone * (1.0 - self._SLACK)
        self._check_drift()

    def _mean_distance(self):
        if not self._order_slots:
            self._bound = 0.0
            return 0.0
        rows = self._rows()
        assigned = self.centroids[self._assign[rows]]
        mean = float(distances(self.member_features(), assigned).mean())
        self._bound = mean * rows.size * (1.0 + self._SLACK)
        return mean

    def recluster(self):
        feats = self.member_features()
        self.centroids, assign = self.kmeans(feats, self.n_clusters, self.rng)[:2]
        self._sums = np.zeros_like(self.centroids)
        np.add.at(self._sums, assign, feats)
        self._counts = np.bincount(assign, minlength=len(self.centroids))
        self._assign[self._rows()] = assign
        self.recompute_count += 1
        self._baseline = self._mean_distance()

    def score(self, feature):
        return float(distances(self.centroids, feature).min())

    def member_scores(self):
        """Each member's distance to its nearest centroid."""
        return distances(self.member_features()[:, None, :], self.centroids).min(axis=1)


def p_value(a_t, reference_scores):
    """Share of the reference scores at least a_t."""
    return sum(s >= a_t for s in reference_scores) / len(reference_scores)


def loo_p_values(scores):
    """Each score's p-value against the others."""
    return [p_value(a, scores[:i] + scores[i + 1 :]) for i, a in enumerate(scores)]


def ks_statistic(p_values):
    """Sup distance between the empirical CDF of the sorted window and the uniform CDF."""
    n = len(p_values)
    return max(0.0, *(max(i / n - v, v - (i - 1) / n)
                      for i, v in enumerate(sorted(p_values), start=1)))


def grid_ks(p, grid=np.linspace(0.0, 1.0, 10_000)):
    """The K-S statistic of sorted p-values as the largest ECDF gap on a grid and at the jumps."""
    cand = np.concatenate([grid, p])
    ecdf = np.searchsorted(p, cand, side="right") / p.size
    left = np.searchsorted(p, cand, side="left") / p.size
    return max(np.abs(ecdf - cand).max(), np.abs(left - cand).max())


class Unifier:
    """Final scores from significances: log-inversion, Welford moments, Gaussian scaling."""

    def __init__(self):
        self.count, self.mean, self.m2 = 0, 0.0, 0.0

    def __call__(self, significance):
        reg = -math.log(max(significance, SIGNIFICANCE_FLOOR))
        self.count += 1
        delta = reg - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (reg - self.mean)
        std = math.sqrt(self.m2 / self.count)
        return 0.0 if std == 0.0 else max(0.0, math.erf((reg - self.mean) / (std * math.sqrt(2.0))))


def pairwise_auc(anomaly_scores, nominal_scores):
    """ROC-AUC by its pairwise definition: a win counts 1, a tie 1/2."""
    total = sum(1.0 if a > n else 0.5 if a == n else 0.0
                for a in anomaly_scores for n in nominal_scores)
    return total / (len(anomaly_scores) * len(nominal_scores))


def naive_records(config, points):
    """The records a detector with the resolved ``config`` emits over ``points``.

    The strategy is the package's, seeded as the detector seeds it; every
    other stage is an oracle above.
    """
    strategy_rng, measure_rng = (np.random.default_rng(s)
                                 for s in np.random.SeedSequence(config.seed).spawn(2))
    strategy = {
        "fr": lambda: FixedReference(config.probation_len),
        "lw": lambda: LandmarkWindow(config.landmark),
        "sw": lambda: SlidingWindow(config.window),
        "ures": lambda: UniformReservoir(config.window, strategy_rng),
        "ares": lambda: AnomalyAwareReservoir(config.window, config.decay, strategy_rng),
    }[config.strategy]()
    measure, k = config.measure, config.k
    model = ArrayClusterModel(config.n_clusters, config.recompute_factor, measure_rng,
                              kmeans=loop_lloyd_kmeans)
    group = {}  # arrival -> feature, in arrival order
    caches = None  # the group's lof_caches, for a den query

    def represent(window):
        if measure == "freq":
            return numpy_sax(window, config.sax_segments, config.sax_alphabet)
        return meanstd(window)

    def score(feature):
        feats = list(group.values())
        if measure == "nn":
            return knn_query(feature, feats, k)
        if measure == "den":
            return lof_query(feature, feats, k, caches)
        if measure == "cc":
            return model.score(feature)
        return len(feats) / (Counter(feats)[feature] + 1)

    def member_scores():
        nonlocal caches
        feats = list(group.values())
        if measure == "nn":
            return knn_members(feats, k).tolist()
        if measure == "den":
            caches = lof_caches(feats, k)
            return caches[2].tolist()
        if measure == "cc":
            return model.member_scores().tolist()
        counts = Counter(feats)
        return [(len(feats) - 1) / counts[word] for word in feats]

    def learn(feature, t, final):
        added, removed = strategy.update(feature, t, final)
        if removed is not None:
            del group[removed]
        if added is not None:
            group[added] = feature
        if measure == "cc":
            # each change under a bound of inf, which proves nothing, so
            # every change checks the drift exactly
            if removed is not None:
                model._bound = math.inf
                model.remove(removed)
            if added is not None:
                model._bound = math.inf
                model.insert(added, feature)

    def bootstrap():
        reference = member_scores()
        return reference, loo_p_values(reference)[-config.ks_window :]

    values, records, unify = [], [], Unifier()
    reference, window, significance, steps = None, None, 1.0, 0
    for t, value in points:
        values.append(float(value))
        if len(values) < config.rep_window:
            continue
        feature = represent(values[-config.rep_window :])
        if t <= config.probation_len:
            learn(feature, t, 0.0)
            if t == config.probation_len:
                reference, window = bootstrap()
            continue
        if reference is None:  # warmed up after p, or t = p is missing
            reference, window = bootstrap()
        a_t = score(feature)
        pv = p_value(a_t, reference)
        window = (window + [pv])[-config.ks_window :]
        if steps % config.test_period == 0:
            significance = ks_significance(ks_statistic(window), len(window))
        steps += 1
        final = unify(significance)
        records.append(ScoreRecord(t, a_t, pv, significance, final, final >= config.threshold))
        learn(feature, t, final)
        reference = member_scores()
    return records
