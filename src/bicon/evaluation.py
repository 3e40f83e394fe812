"""Representation-quality metrics.

hungarian_accuracy matches predicted clusters to true classes with an
exact maximum-weight assignment; knn_accuracy and linear_probe measure
how well labels can be read back out of an embedding; silhouette scores
cluster geometry without labels. metric scores a model's features under
one of METRICS by name, the one rule that training snapshots and
`bicon eval` share. kmeans_labels is a small Lloyd's-loop baseline kept
around as a sanity reference for the clustering engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, NumericalError
from .kernels import _BLOCK_FLOATS, _finite, _knn, squared_distances
from .model import Adam, ClusterHead, features

METRICS = ("hungarian", "knn", "probe", "silhouette")


@dataclass(frozen=True)
class Assignment:
    """A row -> column bijection and the total weight it collects."""

    col_for_row: np.ndarray
    matched: float


def confusion_matrix(pred, truth):
    """Count matrix over (predicted cluster, true class) pairs.

    Returns (counts, pred_values, true_values); label values may be any
    integers, rows/columns follow their sorted unique order.
    """
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.ndim != 1 or t.ndim != 1 or p.shape[0] != t.shape[0]:
        raise DimensionError(f"label vectors must be 1-D and equal length, got {p.shape} and {t.shape}")
    if p.shape[0] == 0:
        raise DimensionError("label vectors are empty")
    pv, pi = np.unique(p, return_inverse=True)
    tv, ti = np.unique(t, return_inverse=True)
    counts = np.bincount(pi * len(tv) + ti, minlength=len(pv) * len(tv)).reshape(len(pv), len(tv))
    return counts, pv, tv


def _min_cost_assignment(cost):
    # potentials + shortest augmenting column, O(n^3); exact for any floats.
    # The loops run on Python floats and lists: indexing a numpy array one
    # element at a time costs more than the arithmetic, which is the same
    n = cost.shape[0]
    rows = cost.tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j, 1-based
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row, ui = rows[i0 - 1], u[i0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    col_for_row = np.zeros(n, dtype=int)
    for j in range(1, n + 1):
        col_for_row[match[j] - 1] = j - 1
    return col_for_row


def max_assignment(weights):
    """Exact maximum-weight assignment on a square weight matrix."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] == 0:
        raise DimensionError(f"expected a non-empty square weight matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DomainError("assignment weights must be finite")
    cols = _min_cost_assignment(w.max() - w)
    matched = float(w[np.arange(w.shape[0]), cols].sum())
    return Assignment(cols, matched)


def hungarian_accuracy(pred, truth):
    """Clustering accuracy under the best cluster -> class matching.

    The confusion matrix is padded with zeros to square, so cluster and
    class counts may differ.
    """
    counts, _, _ = confusion_matrix(pred, truth)
    k = max(counts.shape)
    padded = np.zeros((k, k))
    padded[: counts.shape[0], : counts.shape[1]] = counts
    best = max_assignment(padded)
    return best.matched / np.asarray(pred).shape[0]


def _labelled_split(train_z, train_y, test_z, test_y):
    """The four arrays as float features and int64 labels; DimensionError
    for mismatched shapes or an empty set, DomainError for negative class
    ids or features whose squared row norms are not finite."""
    train_z = np.asarray(train_z, dtype=float)
    test_z = np.asarray(test_z, dtype=float)
    train_y = np.asarray(train_y, dtype=np.int64)
    test_y = np.asarray(test_y, dtype=np.int64)
    if train_z.ndim != 2 or test_z.ndim != 2 or train_z.shape[1] != test_z.shape[1]:
        raise DimensionError(f"feature matrices disagree: {train_z.shape} vs {test_z.shape}")
    if train_y.shape != (train_z.shape[0],) or test_y.shape != (test_z.shape[0],):
        raise DimensionError("label vectors do not match feature matrices")
    if train_z.shape[0] == 0 or test_z.shape[0] == 0:
        raise DimensionError(f"train and test sets must be non-empty, got {len(train_z)} and {len(test_z)} rows")
    if np.any(train_y < 0) or np.any(test_y < 0):
        raise DomainError("class ids must be non-negative")
    for z in (train_z, test_z):
        # overflow is legal here; _finite rejects it
        with np.errstate(over="ignore"):
            _finite(np.einsum("ij,ij->i", z, z))
    return train_z, train_y, test_z, test_y


def knn_accuracy(train_z, train_y, test_z, test_y, k=7):
    """Majority-vote k-nearest-neighbor accuracy under euclidean distance.

    Distance ties are broken toward the smaller training index, vote ties
    toward the smallest class id. The neighbors are those of the exact
    squared_distances matrix, found by kernels._knn's certified
    prefilter without building that matrix. Features whose squared norms
    or distances are not finite raise DomainError.
    """
    train_z, train_y, test_z, test_y = _labelled_split(train_z, train_y, test_z, test_y)
    if not (1 <= k <= train_z.shape[0]):
        raise DomainError(f"k must lie in [1, {train_z.shape[0]}], got {k!r}")
    votes = train_y[_knn(test_z, train_z, k)]
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    counts = np.zeros((test_z.shape[0], n_classes), dtype=np.int64)
    np.add.at(counts, (np.arange(test_z.shape[0])[:, None], votes), 1)
    pred = counts.argmax(axis=1)  # argmax takes the smallest class id on ties
    return float(np.mean(pred == test_y))


def linear_probe(train_z, train_y, test_z, test_y, epochs=200, lr=1e-2, seed=0):
    """Top-1 accuracy of a softmax linear classifier on frozen features.

    Full-batch Adam on the cross-entropy; deterministic for a given seed.
    Features whose squared row norms are not finite raise DomainError.
    """
    train_z, train_y, test_z, test_y = _labelled_split(train_z, train_y, test_z, test_y)
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    if n_classes < 2:
        raise DomainError("need at least 2 classes to probe")
    rng = np.random.default_rng([seed, 3])
    head = ClusterHead.init(train_z.shape[1], n_classes, rng)
    opt = Adam(head.params(), lr=lr)
    n = train_z.shape[0]
    onehot = np.eye(n_classes)[train_y]
    for _ in range(int(epochs)):
        probs = features(head, train_z)
        loss = -float(np.mean(np.log(np.maximum(probs[np.arange(n), train_y], 1e-300))))
        if not np.isfinite(loss):
            raise NumericalError("non-finite probe loss")
        dlogits = (probs - onehot) / n
        opt.step({"W": train_z.T @ dlogits, "b": dlogits.sum(axis=0)})
    pred = features(head, test_z).argmax(axis=1)
    return float(np.mean(pred == test_y))


def silhouette(z, labels):
    """Mean silhouette score (Rousseeuw, J. Comput. Appl. Math. 20, 1987);
    singleton-cluster points score 0, as do points whose within- and
    between-cluster distances are both zero. Features with inf or NaN
    entries, or whose distances overflow, raise DomainError.

    Distance sums to each cluster are taken over the upper triangle, one
    stripe of about 2**15 distances at a time: rows start:stop against
    points start:, added to the stripe's own rows and, transposed, to
    rows stop:. So each pair's distance is computed once, and memory
    beyond O(N (d + k)) is the stripe and squared_distances' scratch of
    the stripe's shape (about 2 * 2**15 floats), never N x N. The mirror
    is exact, since squared_distances adds each pair's squares left to
    right and (a - b)**2 equals (b - a)**2 bit for bit; only the order of
    the sums differs from one dense product.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(labels)
    if z.ndim != 2 or z.shape[0] < 3:
        raise DimensionError(f"expected an N x d matrix with N >= 3, got shape {z.shape}")
    if y.shape != (z.shape[0],):
        raise DimensionError("labels do not match feature matrix")
    uniq, inv = np.unique(y, return_inverse=True)
    k = uniq.shape[0]
    if k < 2:
        raise DomainError("silhouette needs at least 2 distinct clusters")
    n = z.shape[0]
    onehot = np.eye(k)[inv]
    sums = np.zeros((n, k))
    stripe = max(1, _BLOCK_FLOATS // n)
    for start in range(0, n, stripe):
        stop = min(start + stripe, n)
        dist = _finite(squared_distances(z[start:stop], z[start:]))
        np.sqrt(dist, out=dist)
        sums[start:stop] += dist @ onehot[start:]
        sums[stop:] += dist[:, stop - start:].T @ onehot[start:stop]
    counts = onehot.sum(axis=0)
    own_count = counts[inv]
    a = sums[np.arange(n), inv] / np.maximum(own_count - 1, 1)
    mean_other = sums / counts[None, :]
    mean_other[np.arange(n), inv] = np.inf
    b = mean_other.min(axis=1)
    s = np.zeros(n)
    denom = np.maximum(a, b)
    ok = (own_count > 1) & (denom > 0.0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(s.mean())


def holdout_split(n, test_fraction=0.25, seed=0):
    """Deterministic train/test index split from the seed."""
    if n < 2:
        raise DimensionError(f"cannot split {n} points")
    if not (0.0 < test_fraction < 1.0):
        raise DomainError(f"test_fraction must lie in (0, 1), got {test_fraction!r}")
    rng = np.random.default_rng([seed, 17])
    perm = rng.permutation(n)
    n_test = min(max(1, int(round(test_fraction * n))), n - 1)
    return perm[n_test:], perm[:n_test]


def metric(name, z, labels, seed=0):
    """Metric `name` of features z (model.features) against labels.

    hungarian scores z's argmax as cluster assignments; knn (k = 7) and
    probe (seeded by seed) train on holdout_split(N, seed=seed), which
    holds out a quarter of the points, and score that quarter;
    silhouette scores all of z. run_supcon trains on the same split.
    """
    if name not in METRICS:
        raise ConfigError(f"unknown metric {name!r}; valid names: {', '.join(METRICS)}")
    if name == "hungarian":
        return hungarian_accuracy(z.argmax(axis=1), labels)
    if name == "silhouette":
        return silhouette(z, labels)
    train, test = holdout_split(z.shape[0], seed=seed)
    if name == "knn":
        return knn_accuracy(z[train], labels[train], z[test], labels[test], k=7)
    return linear_probe(z[train], labels[train], z[test], labels[test], seed=seed)


def kmeans_labels(x, clusters, seed=0, iters=100):
    """Plain Lloyd's k-means labels; a sanity baseline, not a trainer.
    Non-finite distances to the centers, or centers that overflow, raise
    DomainError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < clusters:
        raise DimensionError(f"cannot place {clusters} centers over shape {x.shape}")
    if clusters < 1:
        raise DomainError(f"clusters must be >= 1, got {clusters!r}")
    rng = np.random.default_rng([seed, 11])
    centers = x[rng.choice(x.shape[0], size=clusters, replace=False)].copy()
    labels = np.full(x.shape[0], -1)
    for _ in range(int(iters)):
        d2 = _finite(squared_distances(x, centers))
        new_labels = d2.argmin(axis=1)
        for c in range(clusters):
            mask = new_labels == c
            if mask.any():
                # a mean of finite features can overflow; checked below
                with np.errstate(over="ignore"):
                    centers[c] = x[mask].mean(axis=0)
            else:
                # re-seed an empty cluster on the point farthest from its center
                worst = int(np.argmax(d2[np.arange(x.shape[0]), new_labels]))
                centers[c] = x[worst]
                new_labels[worst] = c
        _finite(centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels
