"""Strangeness measures over the reference group.

Four measures are provided: average k-NN distance, local outlier factor
with incremental maintenance, distance to the nearest centroid of an
incrementally maintained k-means model, and SAX-word frequency. Each
streaming structure is the reference group's only feature store: members
are inserted with their feature and removed by id alone. Each keeps
cached per-member leave-one-out scores that must match a from-scratch
recomputation. The k-NN index has two regimes, chosen by the size of its
slot store alone. A store of at most ``NeighborIndex._MATRIX_SLOTS``
slots keeps the distance between every two members and no neighbour
rows: each read after a change gathers the group's distances from that
matrix and derives the average k-NN distances, or the k-distances, LRDs
and LOFs, in one batch. A larger store keeps rows instead: it builds them
in one batch at its first read, then repairs them on every insert and
every removal. Inserting the point just scored reuses the distances the
score computed. The small store's reads and the exact refresh turn a
distance block into scores by one rule, NaN for a group of at most k
members. The k-means model keeps an upper bound on its drift between
exact checks and skips every check the bound shows cannot fire.

Groups hold tens to a few hundred members, so numpy's per-call cost, not
arithmetic, sets the cost of most operations here. Hot gathers are
therefore written ``a.take(idx, axis=0)`` rather than ``a[idx]``, and a
row-wise gather as one flat ``take``: the same values at a quarter to a
half of the cost for 30 to 110 members. Scatters stay as assignments.

Every Euclidean distance in this module, batch or incremental, has the
arithmetic of one kernel, ``_squared_distances`` (``_distances`` takes its
square root; k-means assigns by the squares). It rejects a query whose
width differs from the features', then subtracts, squares and adds column
by column; a single query's coordinates enter as Python floats, which
spares a numpy scalar per column. For the two-column (mean, std) features
the pipeline makes this is the same sum numpy's reduction over that axis
computes, without the cost of broadcasting over a length-2 inner axis or
of the reduction itself. The k-means model's per-point work leaves
numpy: over a handful of centroids, numpy's per-call cost exceeds the
arithmetic. ``ClusterModel`` keeps each cluster's centroid, sum and count
as Python numbers, and ``_nearest``, the centroid nearest to one point
(``ClusterModel.score`` and ``insert``), reads them as they are. Both
make the subtractions, squares, column-order sums, quotients and square
roots numpy would, each one IEEE operation, and ``_nearest`` picks the
minimum as ``min`` and ``argmin`` do, bit for bit. Work over the whole
group (member scores, the exact drift mean, k-means) stays in numpy.

Neighbour ordering is deterministic everywhere, by one rule: every
structure sees its members in arrival order, whatever ids the caller
uses, and every selection takes the first members by (distance,
arrival), NaN distances last, the order a stable sort gives. A large
store's rows select without sorting whole rows (``_first_by_distance``):
a partition finds each row's k-th distance, and one stable sort orders
only the entries not above it. On a block of 64 rows of 450 members
(k = 10) that took 100 us against 925 us for a stable argsort of the
block. The newcomer's single row in ``insert`` and the small store's
square blocks (``_block_lof``) keep the full stable sort, which is the
faster one at their sizes: one row took 1.3 us against 3.5 us at 65
members and 2.6 against 3.8 us at 191, and lost only near 450 members
(5.5 against 4.2 us); a 30 x 30 block took 4.8 us against 16.6 us, and
partition-first won only from about 48 columns, near the top of the
small regime (timeit minima, random distances, one 2-core Xeon VM,
numpy 2.4.6). Reachability distances are floored at a small constant so
coincident duplicates keep densities finite (a fully coincident group
scores LOF 1).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter

import numpy as np

from .errors import DegenerateGroupError

REACH_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# batch / pure evaluations (also the reference semantics for exact refresh)


def _squared_distances(features: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between features and x over the last axis.

    Both must have the same number of columns; the other axes broadcast.
    """
    width = features.shape[-1]
    if x.shape[-1] != width:
        raise ValueError(f"query has {x.shape[-1]} columns, features have {width}")
    xs = x.tolist() if x.ndim == 1 else [x[..., j] for j in range(width)]
    d = features[..., 0] - xs[0]
    sq = d * d
    for j in range(1, width):
        d = features[..., j] - xs[j]
        sq += d * d
    return sq


def _distances(features: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distances between features and x over the last axis (broadcasting)."""
    return np.sqrt(_squared_distances(features, x))


def _pairwise(features: np.ndarray) -> np.ndarray:
    """Distances between every two rows of features, with an inf diagonal."""
    dist = _distances(features[:, None, :], features[None, :, :])
    np.fill_diagonal(dist, np.inf)
    return dist


def _block_knn(dist: np.ndarray, k: int):
    """k-distances and average k-NN distances of a group from its distance block.

    The block is square with an inf diagonal and has at least k + 1 rows.
    The k smallest entries of each row, sorted, are the values of that
    member's neighbour row in the order the row sums them, so the averages
    are bitwise those the incremental index keeps.
    """
    near = np.sort(np.partition(dist, k - 1, axis=1)[:, :k], axis=1)
    return near[:, -1], np.add.reduce(near, axis=1) / k


def _rowwise_take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[i, idx[i, j]]`` for every i and j, as one take over the flat array."""
    return a.take(idx + np.arange(0, a.size, a.shape[1])[:, None])


def _first_by_distance(dist: np.ndarray, take: int) -> np.ndarray:
    """Flat indices of each row's first ``take`` entries by (value, column), NaN last.

    The entries ``np.argsort(dist, axis=1, kind="stable")[:, :take]``
    picks, in its order, without sorting whole rows: a partition finds
    each row's ``take``-th value, and one stable sort orders only the
    entries not above it. "Not above" rather than "at or below" keeps a
    row's NaN entries when fewer than ``take`` of them are numbers (its
    ``take``-th value is then NaN), so every row keeps at least ``take``
    candidates. The candidates come out of ``nonzero`` in row-major
    order, so a stable sort by (row, value) leaves ties in column order.
    """
    rows, width = dist.shape
    kth = np.partition(dist, take - 1, axis=1)[:, take - 1 : take]
    flat = (~(dist > kth)).ravel().nonzero()[0]
    row = flat // width
    order = flat.take(np.lexsort((dist.take(flat), row)))
    counts = np.bincount(row, minlength=rows)
    starts = np.cumsum(counts) - counts
    return order.take(starts[:, None] + np.arange(take))


def _block_lof(dist: np.ndarray, k: int):
    """k-distances, LRDs and LOFs of a group from its distance block (standard LOF).

    The block is square with an inf diagonal and has at least k + 1 rows.
    Its columns are in arrival order, so a stable sort breaks distance
    ties by age. Reachability to a neighbour is capped below by the
    neighbour's k-distance. Row means are ``sum / k``: numpy's ``mean``
    divides the same sum by the count, so this is bitwise ``mean(axis=1)``
    without the per-call cost of its Python wrapper.
    """
    nbr = dist.argsort(axis=1, kind="stable")[:, :k]
    nd = _rowwise_take(dist, nbr)
    kdist = nd[:, -1]
    reach = np.maximum(np.maximum(kdist.take(nbr), nd), REACH_FLOOR)
    lrd = 1.0 / (np.add.reduce(reach, axis=1) / k)
    return kdist, lrd, np.add.reduce(lrd.take(nbr), axis=1) / k / lrd


def _query_lof(d: np.ndarray, kdist: np.ndarray, lrd: np.ndarray, k: int) -> float:
    """LOF of a query from its k nearest members, nearest first.

    Takes their distances to the query, their k-distances and their LRDs.
    """
    reach = np.maximum(np.maximum(kdist, d), REACH_FLOOR)
    return float(np.add.reduce(lrd) / k / (1.0 / (np.add.reduce(reach) / k)))


def _nearest(centroids: list, x: list) -> tuple[int, float]:
    """Index and distance of the centroid nearest to the query x.

    The centroids are a list of rows and x one row, all lists of Python
    floats. Bitwise ``_distances(np.array(centroids), np.array(x))``'s
    ``argmin()`` and ``min()``: the same width check, subtractions,
    squares and column-order sums, the first minimal index, and, as numpy
    does, the first NaN if one occurs.
    """
    width = len(centroids[0])
    if len(x) != width:
        raise ValueError(f"query has {len(x)} columns, features have {width}")
    x0, rest = x[0], range(1, width)
    best, dist = 0, math.inf
    for i, c in enumerate(centroids):
        d = c[0] - x0
        sq = d * d
        for j in rest:
            d = c[j] - x[j]
            sq += d * d
        dc = math.sqrt(sq)
        if dc != dc:
            return i, dc
        if dc < dist:
            best, dist = i, dc
    return best, dist


def _distinct_rows(feats: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in ascending lexicographic order.

    The rows and order of ``np.unique(feats, axis=0)`` at a fraction of
    its cost: a stable sort over the columns (``lexsort`` takes its
    primary key last) and a mask of the rows that differ from their
    predecessor. Rows equal under ``==`` but not in bits (signed zeros)
    are one row; this keeps the first to arrive, where ``np.unique`` may
    keep either. Every read of a centroid is a difference that gets
    squared or whose magnitude is taken, so the sign of a zero reaches no
    result.
    """
    srt = feats.take(np.lexsort(feats.T[::-1]), axis=0)
    first = np.empty(len(srt), dtype=bool)
    first[:1] = True
    np.not_equal(srt[1:], srt[:-1]).any(axis=1, out=first[1:])
    return srt[first]


def lloyd_kmeans(features, n_clusters: int, rng: np.random.Generator, max_iter: int = 100):
    """Full k-means, seeded with distinct members drawn via the given RNG.

    Returns (centroids, assignment, sums, counts), the last two per
    cluster for the final assignment. Runs to convergence or ``max_iter``
    sweeps; an emptied cluster keeps its previous centroid. A centroid is
    its members' sum, taken in arrival order, over their count: for
    features of two or more columns, the arithmetic of
    ``members.mean(axis=0)`` (numpy sums a single column pairwise).
    """
    feats = np.asarray(features, dtype=float)
    if len(feats) == 0:
        raise DegenerateGroupError("cannot cluster an empty group")
    uniq = _distinct_rows(feats)
    kk = min(n_clusters, len(uniq))
    centroids = uniq.take(rng.choice(len(uniq), size=kk, replace=False), axis=0)
    rows = feats[:, None, :]
    assign = None
    for _ in range(max_iter):
        new_assign = _squared_distances(rows, centroids[None, :, :]).argmin(axis=1)
        if assign is not None and np.logical_and.reduce(new_assign == assign):
            break
        assign = new_assign
        # unbuffered, so each cluster sums its members in arrival order
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, feats)
        counts = np.bincount(assign, minlength=kk)
        if np.logical_and.reduce(counts):
            centroids = sums / counts[:, None]
        else:  # an emptied cluster keeps its previous centroid
            filled = counts > 0
            centroids[filled] = sums[filled] / counts[filled, None]
    return centroids, assign, sums, counts


# ---------------------------------------------------------------------------
# incremental structures


class _SlotStore:
    """Member features in slot-stable rows, read in arrival order.

    A removed member's slot goes on a free list for a later insert to
    reuse, so per-slot arrays never move; ``_order_slots`` lists the
    occupied slots in arrival order. ``_rows()``, those slots as an array,
    and ``member_features()``, their features in that order, are gathered
    at the first read after a change of the group and kept until the next
    one; both are read-only, so a caller that writes into one fails
    instead of corrupting the store. A subclass names its own per-slot
    arrays and their fill values in ``_SLOT_FILLS``.
    """

    _WHAT: str  # names the structure in errors
    _SLOT_FILLS: dict[str, float]

    def __init__(self):
        self._cap = 0
        self._X = np.empty((0, 0))
        self._arrivals = 0
        self._slot_of: dict[int, int] = {}
        self._order_slots = array("q")  # int64, so _rows() is one buffer copy
        self._free: list[int] = []
        self._rows_cache: np.ndarray | None = None
        self._feats_cache: np.ndarray | None = None

    def __len__(self):
        return len(self._slot_of)

    def _grow(self):
        new_cap = max(64, self._cap * 2)
        for name, fill in {"_X": 0.0, **self._SLOT_FILLS}.items():
            old = getattr(self, name)
            new = np.full((new_cap,) + old.shape[1:], fill, dtype=old.dtype)
            new[: self._cap] = old
            setattr(self, name, new)
        self._free.extend(range(new_cap - 1, self._cap - 1, -1))
        self._cap = new_cap

    def _claim(self, ident: int, x: np.ndarray) -> int:
        if ident in self._slot_of:
            raise DegenerateGroupError(f"entry {ident} already in {self._WHAT}")
        width = self._X.shape[1]
        if self._cap and x.size != width:
            raise ValueError(f"feature has {x.size} columns, the {self._WHAT} holds {width}")
        if not self._cap:
            self._X = np.empty((0, x.size))
        if not self._free:
            self._grow()
        self._rows_cache = self._feats_cache = None
        slot = self._free.pop()
        self._X[slot] = x
        self._arrivals += 1
        self._slot_of[ident] = slot
        self._order_slots.append(slot)
        return slot

    def _release(self, ident: int) -> int:
        if ident not in self._slot_of:
            raise DegenerateGroupError(f"entry {ident} not in {self._WHAT}")
        self._rows_cache = self._feats_cache = None
        slot = self._slot_of.pop(ident)
        self._order_slots.remove(slot)
        self._free.append(slot)
        return slot

    def _rows(self) -> np.ndarray:
        """Occupied slots in arrival order (cached, read-only)."""
        if self._rows_cache is None:
            rows = np.array(self._order_slots)
            rows.setflags(write=False)
            self._rows_cache = rows
        return self._rows_cache

    def member_features(self) -> np.ndarray:
        """Member features in arrival order (cached, read-only)."""
        if self._feats_cache is None:
            feats = self._X.take(self._rows(), axis=0)
            feats.setflags(write=False)
            self._feats_cache = feats
        return self._feats_cache


class NeighborIndex(_SlotStore):
    """Exact k-NN bookkeeping over the group with slot-stable storage.

    mode="distance" caches each member's leave-one-out average k-NN
    distance; mode="density" additionally keeps k-distances, LRDs and
    LOFs. One test, ``_small``, picks how the group is kept: whether the
    store has at most ``_MATRIX_SLOTS`` slots, its first block. A store
    never shrinks, so it changes regime at most once, when it claims its
    first slot past that block. Every read sees the members in the store's
    arrival order (``_rows()``, ``member_features()``), gathered once per
    change of the group, so a group that stops changing scores queries
    without gathering; every neighbour selection orders members by
    (distance, arrival) with NaN distances last, so distance ties go to
    the older member.

    A small store keeps ``_D``, the distance between every two occupied
    slots with an inf diagonal, and no neighbour rows. The first read
    makes the matrix, sized to the highest slot in use rounded up to a
    power of two (a 30-member group holds 32 x 32); each insert writes its
    row and column; removals leave stale entries that no read reaches.
    Every read (``member_scores``, a density ``score``) comes from
    ``_batch``: the group's block gathered from the matrix in arrival
    order, and from it every k-distance and average k-NN distance
    (``_block_knn``) or every k-distance, LRD and LOF (``_block_lof``),
    in one batch kept until the group changes. These are bitwise the
    values rows would hold. ``_group_scores`` makes that batch, and the
    exact refresh feeds it a fresh block, so both refresh modes score a
    group of at most k members by its one rule. At these sizes the batch costs
    less than repairing rows: a sliding step (``score``, remove, insert,
    ``member_scores``; k = 10; drift features) at 30, 49 and 60 members
    took 30, 41 and 45 us from the matrix against 92, 146 and 103 us with
    repaired rows in distance mode, and 74, 107 and 144 us against 162,
    181 and 203 us in density mode (medians, one 2-core VM).

    A large store keeps no matrix. Its first read that needs rows (any
    read but a distance ``score``) builds every row in blocks of
    ``_BUILD_ROWS`` (bounding the temporary distance block) and derives
    the cached scores once; rows are ordered by (distance, arrival) either
    way, so the result is bitwise what incremental repair would have left.
    A build block, and a removal's repair, selects each row's neighbours
    by partition first (``_first_by_distance``), not by sorting the row.
    From then on every insert and every removal repairs, in place, only
    the entries the change can reach (the reverse neighbourhood and
    everything that references it), and the rows are never dropped. Every
    repair is a fixed number of array operations: boolean slot masks find
    the rows a change reaches, and gathers over the (slot, k) neighbour
    table update them together. Every row holds the ``min(k, m - 1)``
    nearest other members of an m-member group, so a group of at most k
    members has no full row and scores NaN, and in a larger one every row
    is full.

    ``score`` keeps the query's bytes, the arrival count and the distances
    it computed. An insert of the same bytes with no arrival since reuses
    those distances, dropping the members removed in between, so a
    detector step computes each newcomer's distances once.

    Gathers of rows, of a column and row-wise gathers use ``take``, for
    the per-call cost given in the module docstring.
    """

    _WHAT = "index"
    _SLOT_FILLS = {"_alive": False, "_nbr": -1, "_nbrd": np.inf, "_lrd": np.nan, "_score": np.nan}
    _BUILD_ROWS = 64
    _MATRIX_SLOTS = 64

    def __init__(self, k: int, mode: str = "distance"):
        super().__init__()
        self.k = k
        self.mode = mode
        self._alive = np.empty(0, dtype=bool)
        self._nbr = np.empty((0, k), dtype=np.int64)  # slot numbers, -1 padded
        self._nbrd = np.empty((0, k))  # their distances, inf padded
        self._lrd = np.empty(0)
        self._score = np.empty(0)
        self._batch_cache: tuple | None = None  # what _batch returns
        self._col = np.arange(k)
        self._prev = np.maximum(self._col - 1, 0)  # source column of a shift right
        self._built = False
        self._D: np.ndarray | None = None  # slot-indexed pairwise distances, inf diagonal
        # (feature bytes, arrivals, member slots, distances) of the last score
        self._query: tuple | None = None

    def _small(self) -> bool:
        """Whether the store keeps the distance matrix rather than neighbour rows."""
        return self._cap <= self._MATRIX_SLOTS

    def _ensure_built(self):
        """Build every row and cached score of a large store, once, before its first read."""
        if self._built:
            return
        self._built = True
        rows = self._rows()
        if rows.size:
            for i in range(0, rows.size, self._BUILD_ROWS):
                self._rebuild_rows(rows[i : i + self._BUILD_ROWS])
            self._refresh(rows)

    def _query_distances(self, x: np.ndarray) -> np.ndarray:
        """Distances from x to the members, in arrival order.

        Reuses those of the last ``score`` when it was given the same bytes
        and no member has arrived since; members removed in between are
        dropped from them, which leaves the rest in arrival order. The
        kernel is elementwise, so this is bitwise a fresh computation.
        """
        q = self._query
        if q is not None and q[1] == self._arrivals and q[0] == x.tobytes():
            rows, d = q[2], q[3]
            return d if rows.size == len(self) else d[self._alive.take(rows)]
        return _distances(self.member_features(), x)

    def _matrix(self) -> np.ndarray:
        """The pairwise distance matrix of a small store, made at its first read.

        Rows and columns are slots, up to the highest one in use rounded up
        to a power of two; entries of free slots are stale and never read.
        """
        if self._D is None:
            rows = self._rows()
            self._D = self._grown(np.empty((0, 0)), rows.max())
            self._D[rows[:, None], rows] = _pairwise(self.member_features())
        return self._D

    @staticmethod
    def _grown(D: np.ndarray, slot: int) -> np.ndarray:
        """D padded with inf to the smallest power of two (at least 16) above slot."""
        size = max(16, len(D))
        while size <= slot:
            size *= 2
        if size == len(D):
            return D
        new = np.full((size, size), np.inf)
        new[: len(D), : len(D)] = D
        return new

    def _group_scores(self, block) -> tuple:
        """k-distances, LRDs and scores in arrival order from ``block()``, the group's distances.

        A group of at most k members needs no block: inf k-distances and NaN
        LRDs and scores, as rows would hold. Distance mode has no LRDs (None).
        """
        m, k = len(self), self.k
        if m <= k:
            nan = np.full(m, np.nan)
            return np.full(m, np.inf), nan, nan
        if self.mode == "density":
            return _block_lof(block(), k)
        kdist, scores = _block_knn(block(), k)
        return kdist, None, scores

    def _batch(self) -> tuple:
        """``_group_scores`` of a small store over its matrix, kept until the group changes."""
        if self._batch_cache is None:
            rows = self._rows()
            self._batch_cache = self._group_scores(
                lambda: self._matrix().take(rows, 0).take(rows, 1))
        return self._batch_cache

    def _rebuild_rows(self, slots: np.ndarray):
        # columns in arrival order, so the selection breaks ties by arrival
        cols, X = self._rows(), self._X
        dist = _distances(X.take(slots, axis=0)[:, None, :], X.take(cols, axis=0)[None, :, :])
        dist[slots[:, None] == cols] = np.inf
        take = min(self.k, cols.size - 1)
        if take:
            near = _first_by_distance(dist, take)
            self._nbr[slots, :take] = cols.take(near % cols.size)
            self._nbrd[slots, :take] = dist.take(near)
        self._nbr[slots, take:] = -1
        self._nbrd[slots, take:] = np.inf

    def _refresh(self, changed: np.ndarray):
        # every change to a group of at most k members reaches all rows,
        # none of them full; row means are sum / k, the arithmetic of
        # .mean() without the per-call cost of its Python wrapper
        if len(self) <= self.k:
            self._lrd[changed] = self._score[changed] = np.nan
        elif self.mode == "distance":
            self._score[changed] = np.add.reduce(self._nbrd.take(changed, axis=0), axis=1) / self.k
        else:
            self._density_cascade(changed)

    def _density_cascade(self, changed: np.ndarray):
        # k-distance changes propagate to LRDs of reverse neighbours, and
        # LRD changes propagate to LOFs of their reverse neighbours; every
        # row is full, so no entry is -1 padding
        members = self._rows()
        if changed.size == members.size:  # a full build reaches every row
            s_lrd = s_lof = members
        else:
            rows = self._nbr.take(members, axis=0)
            reach = np.zeros(self._cap, dtype=bool)
            reach[changed] = True
            reach[members[np.logical_or.reduce(reach.take(rows), axis=1)]] = True
            s_lrd = reach.nonzero()[0]
            reach[members[np.logical_or.reduce(reach.take(rows), axis=1)]] = True
            s_lof = reach.nonzero()[0]
        nbr = self._nbr.take(s_lrd, axis=0)
        reach_d = np.maximum(np.maximum(self._nbrd[:, -1].take(nbr),
                                        self._nbrd.take(s_lrd, axis=0)), REACH_FLOOR)
        self._lrd[s_lrd] = 1.0 / (np.add.reduce(reach_d, axis=1) / self.k)
        lrd = self._lrd
        self._score[s_lof] = (np.add.reduce(lrd.take(self._nbr.take(s_lof, axis=0)), axis=1)
                              / self.k / lrd.take(s_lof))

    def insert(self, ident: int, feature):
        x = np.asarray(feature, dtype=float)
        # only a store that keeps rows or a matrix reads the incumbents
        members = self._rows() if self._built or self._D is not None else None
        d = self._query_distances(x) if members is not None and members.size else np.empty(0)
        slot = self._claim(ident, x)
        self._alive[slot] = True
        self._batch_cache = None
        if self._D is not None:
            if not self._small():  # the store outgrew its first block
                self._D = None
            else:
                if slot >= len(self._D):
                    self._D = self._grown(self._D, slot)
                self._D[slot, members] = d
                # the row's other entries are inf (its diagonal) or stale
                self._D[:, slot] = self._D[slot]
        if not self._built:
            return

        order = d.argsort(kind="stable")[: self.k]
        self._nbr[slot] = -1
        self._nbrd[slot] = np.inf
        self._nbr[slot, : order.size] = members.take(order)
        self._nbrd[slot, : order.size] = d.take(order)

        # incumbents that admit the newcomer: all of them while their rows
        # hold every other member, else those it is nearer than the last
        # neighbour; it arrived last, so it goes after every neighbour at
        # an equal distance (and an inf distance after the valid entries)
        nvalid = min(self.k, members.size - 1)  # neighbours in every row
        hit = ((d < self._nbrd[:, -1].take(members)) | (nvalid < self.k)).nonzero()[0]
        rows, dr = members.take(hit), d.take(hit)[:, None]
        nbr, nbrd = self._nbr.take(rows, axis=0), self._nbrd.take(rows, axis=0)
        pos = np.minimum(np.add.reduce(nbrd <= dr, axis=1), nvalid)[:, None]
        before, at = self._col < pos, self._col == pos
        self._nbr[rows] = np.where(before, nbr, np.where(at, slot, nbr.take(self._prev, axis=1)))
        self._nbrd[rows] = np.where(before, nbrd, np.where(at, dr, nbrd.take(self._prev, axis=1)))
        self._refresh(np.concatenate((rows, [slot])))

    def remove(self, ident: int):
        slot = self._release(ident)
        self._alive[slot] = False
        self._batch_cache = None
        if not self._built:
            return
        rows = self._rows()
        hit = rows[np.logical_or.reduce(self._nbr.take(rows, axis=0) == slot, axis=1)]
        if hit.size:
            self._rebuild_rows(hit)
            self._refresh(hit)

    def score(self, feature) -> float:
        """Nonconformity of a query point against the current group."""
        x = np.asarray(feature, dtype=float)
        k = self.k
        rows = self._rows()
        need, name = (k, "k") if self.mode == "distance" else (k + 1, "k+1")
        if rows.size < need:
            raise DegenerateGroupError(f"need at least {name}={need} entries, have {rows.size}")
        # in arrival order, so a stable sort breaks ties by age
        d = _distances(self.member_features(), x)
        self._query = (x.tobytes(), self._arrivals, rows, d)  # for an insert of x
        if self.mode == "distance":
            return float(np.add.reduce(np.partition(d, k - 1)[:k]) / k)
        if self._small():
            kdist, lrd, _ = self._batch()
            nn = d.argsort(kind="stable")[:k]
            return _query_lof(d.take(nn), kdist.take(nn), lrd.take(nn), k)
        self._ensure_built()
        # the first k by (distance, arrival) all lie at or below the k-th
        # smallest distance, so only those entries need sorting; "not
        # above" keeps NaN distances, which sort last, when fewer than k
        # are numbers
        near = (~(d > np.partition(d, k - 1)[k - 1])).nonzero()[0]
        order = near.take(d.take(near).argsort(kind="stable")[:k])
        nn = rows.take(order)
        return _query_lof(d.take(order), self._nbrd[:, -1].take(nn), self._lrd.take(nn), k)

    def member_scores(self) -> np.ndarray:
        """Cached leave-one-out scores in arrival order."""
        if self._small():
            return self._batch()[2]
        self._ensure_built()
        return self._score.take(self._rows())

    def recompute_member_scores(self) -> np.ndarray:
        """Leave-one-out scores from a fresh distance block, in arrival order."""
        return self._group_scores(lambda: _pairwise(self.member_features()))[2]


class ClusterModel(_SlotStore):
    """Incremental k-means summary of the group.

    New members join the cluster with the nearest centroid (running sums
    keep centroids exact for the current assignment); removals are
    subtracted symmetrically. When the mean member-to-centroid distance
    grows past its post-recompute baseline by more than the configured
    factor, a full seeded k-means pass reassigns everything. Between
    recomputations assignments are order-dependent by construction.

    Each cluster's centroid and sum are lists of Python floats and its
    count an int (``_cents``, ``_sums``, ``_counts``), so an insert, a
    removal or a score is a few float operations instead of numpy calls
    on short vectors. Each float operation is the IEEE operation numpy's
    elementwise update made (a sum, then a quotient by the count), so the
    values are bitwise those of an array model. ``centroids`` reads them
    as one (clusters, dim) array, built at the first read after a change
    and read-only, for the batch reads (``member_scores``, the exact
    mean); a recluster hands over k-means' own array.

    The exact mean costs a pass over the group, so the model also keeps
    ``_bound``, an upper bound on the summed distance, and skips a check
    whose bound lies below the limit. By the triangle inequality an
    insert of x into a cluster of n members adds at most
    ``|x - c_new| + n |c_new - c_old|``, and a removal leaving n members
    adds at most ``n |c_new - c_old| - |x - c_old|`` (an emptied cluster
    keeps its centroid, so its shift is 0). Each term carries a relative
    margin of ``_SLACK`` in the safe direction, far above rounding, so the
    model reclusters exactly when checking every time would; every exact
    mean resets the bound. A zero baseline leaves no room below the limit,
    so it is checked exactly every time.
    """

    _WHAT = "cluster model"
    _SLOT_FILLS = {"_assign": -1}
    # relative margin on every update of the drift bound, far above the
    # rounding error of the distances and of the exact mean
    _SLACK = 1e-9

    def __init__(self, n_clusters: int, recompute_factor: float, rng: np.random.Generator):
        super().__init__()
        self.n_clusters = n_clusters
        self.recompute_factor = recompute_factor
        self.rng = rng
        self._cents: list[list[float]] = []  # each cluster's centroid
        self._sums: list[list[float]] = []  # the sum of its members
        self._counts: list[int] = []  # and their number
        self._cents_array: np.ndarray | None = None  # what ``centroids`` returns
        self._baseline: float | None = None
        self._bound = 0.0  # upper bound on the summed member-to-centroid distance
        self.recompute_count = 0
        self._assign = np.empty(0, dtype=np.int64)  # cluster of each slot

    @property
    def centroids(self) -> np.ndarray:
        """The centroids as one (clusters, dim) array (cached, read-only)."""
        if self._cents_array is None:
            cents = np.array(self._cents) if self._cents else np.empty((0, self._X.shape[1]))
            cents.setflags(write=False)
            self._cents_array = cents
        return self._cents_array

    def insert(self, ident: int, feature):
        x = np.asarray(feature, dtype=float)
        slot = self._claim(ident, x)
        xs = x.tolist()
        self._cents_array = None
        if len(self._cents) < self.n_clusters and self._baseline is None:
            # a cluster of its own, at its centroid: the bound holds
            self._assign[slot] = len(self._cents)
            self._cents.append(xs)
            self._sums.append(xs)  # replaced, never written, on a change
            self._counts.append(1)
        else:
            c = _nearest(self._cents, xs)[0]
            self._assign[slot] = c
            n_old = self._counts[c]
            n = self._counts[c] = n_old + 1
            s = self._sums[c] = [a + b for a, b in zip(self._sums[c], xs)]
            new = [v / n for v in s]
            # each old member moves at most as far as the centroid does
            shift = math.dist(new, self._cents[c])
            self._cents[c] = new
            self._bound += (math.dist(xs, new) + n_old * shift) * (1.0 + self._SLACK)
        self._check_drift()

    def remove(self, ident: int):
        slot = self._release(ident)
        c = int(self._assign[slot])
        xs = self._X[slot].tolist()
        gone = math.dist(xs, self._cents[c])
        n_left = self._counts[c] = self._counts[c] - 1
        s = self._sums[c] = [a - b for a, b in zip(self._sums[c], xs)]
        shift = 0.0  # an emptied cluster keeps its centroid
        if n_left > 0:
            new = [v / n_left for v in s]
            shift = math.dist(new, self._cents[c])
            self._cents[c] = new
            self._cents_array = None
        self._bound += n_left * shift * (1.0 + self._SLACK) - gone * (1.0 - self._SLACK)
        self._check_drift()

    def _mean_distance(self) -> float:
        """Exact mean member-to-centroid distance; resets the drift bound to it."""
        if not self._order_slots:
            self._bound = 0.0
            return 0.0
        rows = self._rows()
        assigned = self.centroids.take(self._assign.take(rows), axis=0)
        # sum / count, the arithmetic of .mean() without its Python wrapper
        mean = float(np.add.reduce(_distances(self.member_features(), assigned)) / rows.size)
        self._bound = mean * rows.size * (1.0 + self._SLACK)
        return mean

    def _check_drift(self):
        if len(self) < self.n_clusters:
            return
        limit = None if self._baseline is None else self._baseline * (1.0 + self.recompute_factor)
        # the bound proves the exact mean is below the limit; a zero
        # baseline gives a zero limit, which no bound is below
        if limit is not None and self._bound / len(self) < limit * (1.0 - self._SLACK):
            return
        current = self._mean_distance()
        if limit is None:
            self._baseline = current
        elif current > limit:
            self.recluster()

    def recluster(self):
        """Full k-means over the current members; resets the drift baseline."""
        cents, assign, sums, counts = lloyd_kmeans(
            self.member_features(), self.n_clusters, self.rng)
        self._cents, self._sums, self._counts = cents.tolist(), sums.tolist(), counts.tolist()
        cents.setflags(write=False)
        self._cents_array = cents
        self._assign[self._rows()] = assign
        self.recompute_count += 1
        self._baseline = self._mean_distance()

    def score(self, feature) -> float:
        if not self._cents:
            raise DegenerateGroupError("cluster model has no centroids")
        return _nearest(self._cents, np.asarray(feature, dtype=float).tolist())[1]

    def member_scores(self) -> np.ndarray:
        # transposed (centroid, member): each difference is negated, which
        # leaves its square as it was, and the columns are summed in the
        # same order, so this is bitwise the (member, centroid) form; the
        # minimum then runs along the long contiguous axis, which at these
        # sizes costs a fraction of the per-row reduction; a model that
        # never held a member has no width, so it gives no scores
        if not self._cents:
            return np.empty(0)
        return _distances(self.centroids[:, None, :], self.member_features()).min(axis=0)

    # the model itself is the state, so the exact refresh coincides with it
    recompute_member_scores = member_scores


class FrequencyMeasure:
    """SAX-word occurrence counts in the group, with each member's word."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self._words: dict[int, str] = {}  # insertion order is arrival order

    def __len__(self):
        return len(self._words)

    def insert(self, ident: int, word: str):
        if ident in self._words:
            raise DegenerateGroupError(f"entry {ident} already in frequency measure")
        self.counts[word] = self.counts.get(word, 0) + 1
        self._words[ident] = word

    def remove(self, ident: int):
        if ident not in self._words:
            raise DegenerateGroupError(f"entry {ident} not in frequency measure")
        word = self._words.pop(ident)
        n = self.counts[word]
        if n == 1:
            del self.counts[word]
        else:
            self.counts[word] = n - 1

    def score(self, word: str) -> float:
        if not self._words:
            raise DegenerateGroupError("frequency measure is empty")
        return len(self._words) / (self.counts.get(word, 0) + 1)

    def _loo_scores(self, counts) -> np.ndarray:
        # leave-one-out: dropping x_i shrinks the group and its own count by one
        mine = np.array([counts[w] for w in self._words.values()], dtype=np.int64)
        return (len(self._words) - 1) / mine

    def member_scores(self) -> np.ndarray:
        return self._loo_scores(self.counts)

    def recompute_member_scores(self) -> np.ndarray:
        return self._loo_scores(Counter(self._words.values()))
