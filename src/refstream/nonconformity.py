"""Strangeness measures over the reference group.

Four measures are provided: average k-NN distance, local outlier factor
with incremental maintenance, distance to the nearest centroid of an
incrementally maintained k-means model, and SAX-word frequency. Each
streaming structure mirrors the reference group exactly and keeps cached
per-member leave-one-out scores that must match a from-scratch
recomputation.

Neighbour ordering is deterministic everywhere: ties in distance are
broken by arrival time. Reachability distances are floored at a small
constant so coincident duplicates keep densities finite (a fully
coincident group scores LOF 1).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateGroupError

REACH_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# batch / pure evaluations (also the reference semantics for exact refresh)


def _distances(features: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.sqrt(((features - x) ** 2).sum(axis=1))


def _pairwise(features: np.ndarray) -> np.ndarray:
    diff = features[:, None, :] - features[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def knn_score(x, features, k: int) -> float:
    """Mean distance from x to its k nearest entries of the group."""
    feats = np.asarray(features, dtype=float)
    if len(feats) < k:
        raise DegenerateGroupError(f"need at least k={k} entries, have {len(feats)}")
    d = _distances(feats, np.asarray(x, dtype=float))
    return float(np.partition(d, k - 1)[:k].mean())


def batch_knn_scores(features, k: int) -> np.ndarray:
    """Leave-one-out average k-NN distance of every member, in given order."""
    feats = np.asarray(features, dtype=float)
    m = len(feats)
    if m < k + 1:
        raise DegenerateGroupError(f"need at least k+1={k + 1} entries, have {m}")
    dist = _pairwise(feats)
    np.fill_diagonal(dist, np.inf)
    return np.partition(dist, k - 1, axis=1)[:, :k].mean(axis=1)


def _member_lrds(features, k: int):
    """Members, their k nearest neighbours, k-distances and LRDs (standard LOF).

    Reachability to a neighbour is capped below by the neighbour's
    k-distance. Rows are in arrival order, so a stable sort breaks
    distance ties by age.
    """
    feats = np.asarray(features, dtype=float)
    m = len(feats)
    if m < k + 1:
        raise DegenerateGroupError(f"need at least k+1={k + 1} entries, have {m}")
    dist = _pairwise(feats)
    np.fill_diagonal(dist, np.inf)
    nbr = np.argsort(dist, axis=1, kind="stable")[:, :k]
    nd = np.take_along_axis(dist, nbr, axis=1)
    kdist = nd[:, -1]
    reach = np.maximum(np.maximum(kdist[nbr], nd), REACH_FLOOR)
    return feats, nbr, kdist, 1.0 / reach.mean(axis=1)


def batch_lof_scores(features, k: int) -> np.ndarray:
    """Local outlier factor of every member, in given order."""
    _, nbr, _, lrd = _member_lrds(features, k)
    return lrd[nbr].mean(axis=1) / lrd


def lof_score(x, features, k: int) -> float:
    """LOF of a query point (not a member) against the group."""
    feats, _, kdist, lrd = _member_lrds(features, k)
    d = _distances(feats, np.asarray(x, dtype=float))
    order = np.argsort(d, kind="stable")[:k]
    reach_q = np.maximum(np.maximum(kdist[order], d[order]), REACH_FLOOR)
    lrd_q = 1.0 / reach_q.mean()
    return float(lrd[order].mean() / lrd_q)


def cc_score(x, centroids) -> float:
    """Distance from x to the nearest cluster centroid."""
    cents = np.asarray(centroids, dtype=float)
    if cents.size == 0:
        raise DegenerateGroupError("cluster model has no centroids")
    return float(_distances(cents, np.asarray(x, dtype=float)).min())


def lloyd_kmeans(features, n_clusters: int, rng: np.random.Generator, max_iter: int = 100):
    """Full k-means, seeded with distinct members drawn via the given RNG.

    Returns (centroids, assignment). Runs to convergence or ``max_iter``
    sweeps; an emptied cluster keeps its previous centroid.
    """
    feats = np.asarray(features, dtype=float)
    if len(feats) == 0:
        raise DegenerateGroupError("cannot cluster an empty group")
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


# ---------------------------------------------------------------------------
# incremental structures


class NeighborIndex:
    """Exact k-NN bookkeeping over the group with slot-stable storage.

    mode="distance" caches each member's leave-one-out average k-NN
    distance; mode="density" additionally maintains k-distances, LRDs and
    LOFs, repairing only the entries a change can reach (the reverse
    neighbourhood and everything that references it).
    """

    def __init__(self, k: int, mode: str = "distance"):
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if mode not in ("distance", "density"):
            raise ConfigError(f"unknown NeighborIndex mode {mode!r}")
        self.k = k
        self.mode = mode
        self._dim: int | None = None
        self._cap = 0
        self._X: np.ndarray | None = None
        self._ids = np.empty(0, dtype=np.int64)
        self._alive = np.empty(0, dtype=bool)
        self._nbr: np.ndarray | None = None  # (cap, k) slot numbers, -1 padded
        self._nbrd: np.ndarray | None = None
        self._nvalid = np.empty(0, dtype=np.int32)
        self._kdist = np.empty(0, dtype=float)
        self._lrd = np.empty(0, dtype=float)
        self._score = np.empty(0, dtype=float)
        self._slot_of: dict[int, int] = {}
        self._order: list[int] = []
        self._order_slots: list[int] = []
        self._free: list[int] = []
        self._act_cache: np.ndarray | None = None

    def __len__(self):
        return len(self._slot_of)

    def _grow(self):
        new_cap = max(64, self._cap * 2)
        pad = new_cap - self._cap
        self._X = np.vstack([self._X, np.zeros((pad, self._dim))]) if self._cap else np.zeros((new_cap, self._dim))
        self._ids = np.concatenate([self._ids, np.zeros(pad, dtype=np.int64)])
        self._alive = np.concatenate([self._alive, np.zeros(pad, dtype=bool)])
        nbr_pad = np.full((pad, self.k), -1, dtype=np.int64)
        nbrd_pad = np.full((pad, self.k), np.inf)
        self._nbr = np.vstack([self._nbr, nbr_pad]) if self._cap else nbr_pad
        self._nbrd = np.vstack([self._nbrd, nbrd_pad]) if self._cap else nbrd_pad
        self._nvalid = np.concatenate([self._nvalid, np.zeros(pad, dtype=np.int32)])
        self._kdist = np.concatenate([self._kdist, np.full(pad, np.inf)])
        self._lrd = np.concatenate([self._lrd, np.full(pad, np.nan)])
        self._score = np.concatenate([self._score, np.full(pad, np.nan)])
        self._free.extend(range(new_cap - 1, self._cap - 1, -1))
        self._cap = new_cap

    def _active(self) -> np.ndarray:
        if self._act_cache is None:
            self._act_cache = np.flatnonzero(self._alive)
        return self._act_cache

    def _set_row(self, slot: int, nbr_slots: np.ndarray, nbr_dists: np.ndarray):
        n = len(nbr_slots)
        self._nbr[slot, :n] = nbr_slots
        self._nbrd[slot, :n] = nbr_dists
        self._nbr[slot, n:] = -1
        self._nbrd[slot, n:] = np.inf
        self._nvalid[slot] = n
        self._kdist[slot] = nbr_dists[-1] if n == self.k else np.inf

    def _rebuild_rows(self, slots: np.ndarray):
        act = self._active()
        block = self._X[slots][:, None, :] - self._X[act][None, :, :]
        dist = np.sqrt((block**2).sum(axis=-1))
        self_pos = np.searchsorted(act, slots)
        dist[np.arange(len(slots)), self_pos] = np.inf
        order = np.lexsort((np.broadcast_to(self._ids[act], dist.shape), dist), axis=-1)
        take = min(self.k, act.size - 1)
        for i, slot in enumerate(slots):
            picked = order[i, :take]
            self._set_row(int(slot), act[picked], dist[i, picked])

    def _admit(self, slot: int, dist: float, new_slot: int):
        # new arrivals carry the largest id, so distance ties keep incumbents
        n = self._nvalid[slot]
        pos = int(np.searchsorted(self._nbrd[slot, :n], dist, side="right"))
        stop = n if n < self.k else self.k - 1
        self._nbr[slot, pos + 1 : stop + 1] = self._nbr[slot, pos:stop].copy()
        self._nbrd[slot, pos + 1 : stop + 1] = self._nbrd[slot, pos:stop].copy()
        self._nbr[slot, pos] = new_slot
        self._nbrd[slot, pos] = dist
        if n < self.k:
            self._nvalid[slot] = n + 1
        self._kdist[slot] = (
            self._nbrd[slot, self.k - 1] if self._nvalid[slot] == self.k else np.inf
        )

    def _update_knn_scores(self, slots):
        rows = np.fromiter(slots, dtype=np.int64, count=len(slots))
        full = self._nvalid[rows] == self.k
        self._score[rows] = np.where(
            full, self._nbrd[rows, : self.k].mean(axis=1), np.nan
        )

    def _lrd_of(self, slot: int) -> float:
        if self._nvalid[slot] < self.k:
            return np.nan
        nbr = self._nbr[slot, : self.k]
        reach = np.maximum(self._kdist[nbr], self._nbrd[slot, : self.k])
        reach = np.maximum(reach, REACH_FLOOR)
        return 1.0 / reach.mean()

    def _density_cascade(self, changed: set[int]):
        # k-distance changes propagate to LRDs of reverse neighbours, and
        # LRD changes propagate to LOFs of their reverse neighbours
        act = self._active()
        if act.size == 0:
            return
        ch = np.fromiter(changed, dtype=np.int64)
        rows = self._nbr[act, : self.k]
        s_lrd = np.union1d(ch, act[np.isin(rows, ch).any(axis=1)])
        for s in s_lrd:
            self._lrd[s] = self._lrd_of(int(s))
        s_lof = np.union1d(s_lrd, act[np.isin(rows, s_lrd).any(axis=1)])
        for s in s_lof:
            s = int(s)
            if self._nvalid[s] < self.k:
                self._score[s] = np.nan
                continue
            nbr = self._nbr[s, : self.k]
            self._score[s] = self._lrd[nbr].mean() / self._lrd[s]

    def insert(self, ident: int, feature):
        x = np.asarray(feature, dtype=float)
        if self._dim is None:
            self._dim = x.size
        if ident in self._slot_of:
            raise DegenerateGroupError(f"entry {ident} already in index")
        act = self._active()
        d = _distances(self._X[act], x) if act.size else np.empty(0)
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._X[slot] = x
        self._ids[slot] = ident
        self._alive[slot] = True
        self._act_cache = None
        self._slot_of[ident] = slot
        self._order.append(ident)
        self._order_slots.append(slot)

        if act.size:
            order = np.lexsort((self._ids[act], d))[: self.k]
            self._set_row(slot, act[order], d[order])
        else:
            self._set_row(slot, np.empty(0, dtype=np.int64), np.empty(0))
        changed = {slot}
        if act.size:
            admit = (self._nvalid[act] < self.k) | (d < self._kdist[act])
            for pos in np.flatnonzero(admit):
                j = int(act[pos])
                self._admit(j, float(d[pos]), slot)
                changed.add(j)
        if self.mode == "distance":
            self._update_knn_scores(changed)
        else:
            self._density_cascade(changed)

    def remove(self, ident: int, feature=None):
        if ident not in self._slot_of:
            raise DegenerateGroupError(f"entry {ident} not in index")
        slot = self._slot_of.pop(ident)
        pos = self._order.index(ident)
        del self._order[pos]
        del self._order_slots[pos]
        self._alive[slot] = False
        self._act_cache = None
        self._free.append(slot)
        self._score[slot] = np.nan
        self._lrd[slot] = np.nan
        act = self._active()
        changed: set[int] = set()
        if act.size:
            hit = act[(self._nbr[act, : self.k] == slot).any(axis=1)]
            if hit.size:
                self._rebuild_rows(hit)
                changed.update(int(j) for j in hit)
        if self.mode == "distance":
            if changed:
                self._update_knn_scores(changed)
        else:
            self._density_cascade(changed)

    def score(self, feature) -> float:
        """Nonconformity of a query point against the current group."""
        x = np.asarray(feature, dtype=float)
        act = self._active()
        if self.mode == "distance":
            if act.size < self.k:
                raise DegenerateGroupError(
                    f"need at least k={self.k} entries, have {act.size}"
                )
            d = _distances(self._X[act], x)
            return float(np.partition(d, self.k - 1)[: self.k].mean())
        if act.size < self.k + 1:
            raise DegenerateGroupError(
                f"need at least k+1={self.k + 1} entries, have {act.size}"
            )
        d = _distances(self._X[act], x)
        order = np.lexsort((self._ids[act], d))[: self.k]
        nn = act[order]
        dq = d[order]
        reach = np.maximum(np.maximum(self._kdist[nn], dq), REACH_FLOOR)
        lrd_q = 1.0 / reach.mean()
        return float(self._lrd[nn].mean() / lrd_q)

    def member_scores(self) -> np.ndarray:
        """Cached leave-one-out scores in arrival order."""
        rows = np.fromiter(self._order_slots, dtype=np.int64, count=len(self._order_slots))
        return self._score[rows]

    def member_features(self) -> np.ndarray:
        return self._X[self._order_slots].copy()

    def recompute_member_scores(self) -> np.ndarray:
        feats = self.member_features()
        if self.mode == "distance":
            return batch_knn_scores(feats, self.k)
        return batch_lof_scores(feats, self.k)

    # cache views used by the equivalence tests
    def cached_kdistances(self) -> np.ndarray:
        return self._kdist[self._order_slots].copy()

    def cached_lrds(self) -> np.ndarray:
        return self._lrd[self._order_slots].copy()


class ClusterModel:
    """Incremental k-means summary of the group.

    New members join the cluster with the nearest centroid (running sums
    keep centroids exact for the current assignment); removals are
    subtracted symmetrically. When the mean member-to-centroid distance
    grows past its post-recompute baseline by more than the configured
    factor, a full seeded k-means pass reassigns everything. Between
    recomputations assignments are order-dependent by construction.
    """

    def __init__(self, n_clusters: int, recompute_factor: float, rng: np.random.Generator):
        if n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {n_clusters}")
        if recompute_factor <= 0:
            raise ConfigError(f"recompute_factor must be > 0, got {recompute_factor}")
        self.n_clusters = n_clusters
        self.recompute_factor = recompute_factor
        self.rng = rng
        self.centroids = np.empty((0, 0))
        self._sums = np.empty((0, 0))
        self._counts = np.empty(0, dtype=np.int64)
        self._baseline: float | None = None
        self.recompute_count = 0
        self._features: dict[int, np.ndarray] = {}
        self._assign: dict[int, int] = {}
        self._order: list[int] = []

    def __len__(self):
        return len(self._features)

    def _ensure_dim(self, dim: int):
        if self.centroids.shape[1] != dim:
            self.centroids = np.empty((0, dim))
            self._sums = np.empty((0, dim))

    def _open_cluster(self, x: np.ndarray) -> int:
        self.centroids = np.vstack([self.centroids, x])
        self._sums = np.vstack([self._sums, x])
        self._counts = np.append(self._counts, 1)
        return len(self.centroids) - 1

    def insert(self, ident: int, feature):
        x = np.asarray(feature, dtype=float)
        self._ensure_dim(x.size)
        self._features[ident] = x
        self._order.append(ident)
        if len(self.centroids) < self.n_clusters and self._baseline is None:
            self._assign[ident] = self._open_cluster(x)
        else:
            c = int(_distances(self.centroids, x).argmin())
            self._assign[ident] = c
            self._sums[c] += x
            self._counts[c] += 1
            self.centroids[c] = self._sums[c] / self._counts[c]
        self._check_drift()

    def remove(self, ident: int, feature=None):
        if ident not in self._features:
            raise DegenerateGroupError(f"entry {ident} not in cluster model")
        x = self._features.pop(ident)
        self._order.remove(ident)
        c = self._assign.pop(ident)
        self._sums[c] -= x
        self._counts[c] -= 1
        if self._counts[c] > 0:
            self.centroids[c] = self._sums[c] / self._counts[c]
        self._check_drift()

    def _mean_distance(self) -> float:
        if not self._order:
            return 0.0
        feats = np.array([self._features[i] for i in self._order])
        cents = self.centroids[[self._assign[i] for i in self._order]]
        return float(np.sqrt(((feats - cents) ** 2).sum(axis=1)).mean())

    def _check_drift(self):
        if len(self._features) < self.n_clusters:
            return
        current = self._mean_distance()
        if self._baseline is None:
            self._baseline = current
            return
        if current > self._baseline * (1.0 + self.recompute_factor):
            self.recluster()

    def recluster(self):
        """Full k-means over the current members; resets the drift baseline."""
        feats = np.array([self._features[i] for i in self._order])
        centroids, assign = lloyd_kmeans(feats, self.n_clusters, self.rng)
        self.centroids = centroids
        dim = centroids.shape[1]
        self._sums = np.zeros((len(centroids), dim))
        self._counts = np.zeros(len(centroids), dtype=np.int64)
        for ident, c in zip(self._order, assign):
            self._assign[ident] = int(c)
            self._sums[c] += self._features[ident]
            self._counts[c] += 1
        self.recompute_count += 1
        self._baseline = self._mean_distance()

    def score(self, feature) -> float:
        return cc_score(feature, self.centroids)

    def member_scores(self) -> np.ndarray:
        feats = np.array([self._features[i] for i in self._order])
        diff = feats[:, None, :] - self.centroids[None, :, :]
        return np.sqrt((diff**2).sum(axis=-1)).min(axis=1)

    # the model itself is the state, so the exact refresh coincides with it
    recompute_member_scores = member_scores


class FrequencyTable:
    """Hash table of SAX-word occurrence counts in the group."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.total = 0

    def insert(self, word: str):
        self.counts[word] = self.counts.get(word, 0) + 1
        self.total += 1

    def remove(self, word: str):
        n = self.counts.get(word, 0)
        if n == 0:
            raise DegenerateGroupError(f"word {word!r} not in table")
        if n == 1:
            del self.counts[word]
        else:
            self.counts[word] = n - 1
        self.total -= 1

    def frequency(self, word: str) -> int:
        return self.counts.get(word, 0)

    def score(self, word: str) -> float:
        if self.total == 0:
            raise DegenerateGroupError("frequency table is empty")
        return self.total / (self.frequency(word) + 1)


class FrequencyMeasure:
    """Pipeline adapter pairing a FrequencyTable with the member word list."""

    def __init__(self):
        self.table = FrequencyTable()
        self._words: dict[int, str] = {}
        self._order: list[int] = []

    def __len__(self):
        return len(self._words)

    def insert(self, ident: int, word: str):
        self.table.insert(word)
        self._words[ident] = word
        self._order.append(ident)

    def remove(self, ident: int, word: str | None = None):
        if ident not in self._words:
            raise DegenerateGroupError(f"entry {ident} not in frequency measure")
        self.table.remove(self._words.pop(ident))
        self._order.remove(ident)

    def score(self, word: str) -> float:
        return self.table.score(word)

    def member_scores(self) -> np.ndarray:
        # leave-one-out: dropping x_i shrinks the group and its own count by one
        m = self.table.total
        return np.array(
            [(m - 1) / self.table.frequency(self._words[i]) for i in self._order]
        )

    def recompute_member_scores(self) -> np.ndarray:
        fresh = FrequencyTable()
        for i in self._order:
            fresh.insert(self._words[i])
        m = fresh.total
        return np.array(
            [(m - 1) / fresh.frequency(self._words[i]) for i in self._order]
        )
