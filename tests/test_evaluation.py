"""Evaluation metrics: assignment accuracy, kNN, probe, silhouette, k-means."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicon import evaluation
from bicon.errors import ConfigError, DimensionError, DomainError
from bicon.evaluation import (
    confusion_matrix,
    holdout_split,
    hungarian_accuracy,
    kmeans_labels,
    knn_accuracy,
    linear_probe,
    max_assignment,
    metric,
    silhouette,
)
from bicon.kernels import squared_distances


def indexed_min_cost_assignment(cost):
    """_min_cost_assignment as it was written before its loops moved to
    Python lists: the same float operations in the same order, on numpy
    arrays indexed one element at a time. The reference for its result."""
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    match, way = np.zeros(n + 1, dtype=int), np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        match[0], j0 = i, 0
        minv, used = np.full(n + 1, np.inf), np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0, delta, j1 = match[j0], np.inf, 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j], way[j] = cur, j0
                if minv[j] < delta:
                    delta, j1 = minv[j], j
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
    col_for_row[match[1:] - 1] = np.arange(n)
    return col_for_row


def brute_force_assignment(weights):
    n = weights.shape[0]
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        total = sum(weights[i, perm[i]] for i in range(n))
        best = max(best, total)
    return best


def dense_silhouette(z, labels):
    """silhouette from one N x N distance matrix, as it was computed before
    the row stripes; the reference the striped form is held to."""
    z = np.asarray(z, dtype=float)
    uniq, inv = np.unique(labels, return_inverse=True)
    k = uniq.shape[0]
    n = z.shape[0]
    D = squared_distances(z)
    np.sqrt(np.maximum(D, 0.0, out=D), out=D)
    onehot = inv[:, None] == np.arange(k)[None, :]
    sums = D @ onehot
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


@st.composite
def silhouette_instances(draw):
    """3 to 40 points drawn from a pool of distinct rows (so a small pool
    repeats points), labelled with 2 to 5 arbitrary integers (so some
    clusters are singletons)."""
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(1, 6))
    pool = rng.normal(size=(draw(st.integers(1, n)), d)) * 10.0 ** rng.uniform(-3, 3, size=d)
    z = pool[rng.integers(0, len(pool), size=n)]
    values = draw(st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=2, max_size=5, unique=True))
    pick = rng.integers(0, len(values), size=n)
    pick[:2] = 0, 1
    return z, np.array(values)[rng.permutation(pick)]


class TestAssignment:
    def test_identity_prediction(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert hungarian_accuracy(y, y) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        # cluster ids are nameless; any relabeling scores 1
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert hungarian_accuracy(pred, truth) == pytest.approx(1.0)

    def test_half_right(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        assert hungarian_accuracy(pred, truth) == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            w = rng.normal(size=(n, n))
            got = max_assignment(w).matched
            want = brute_force_assignment(w)
            assert got == pytest.approx(want, abs=1e-9)

    def test_assignment_is_a_permutation(self):
        rng = np.random.default_rng(103)
        w = rng.normal(size=(6, 6))
        a = max_assignment(w)
        assert sorted(a.col_for_row.tolist()) == list(range(6))

    def test_rectangular_prediction_space(self):
        # more predicted clusters than true classes
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 2, 3])
        assert hungarian_accuracy(pred, truth) == pytest.approx(0.5)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), levels=st.integers(1, 5), exponent=st.integers(-5, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force_with_ties(self, n, levels, exponent, seed):
        # few distinct weights, so that many assignments tie for the best
        rng = np.random.default_rng(seed)
        w = rng.integers(0, levels, (n, n)) * 10.0 ** exponent
        got = max_assignment(w)
        assert sorted(got.col_for_row.tolist()) == list(range(n))
        assert got.matched == pytest.approx(brute_force_assignment(w), rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 17), levels=st.sampled_from([2, 3, 5, 0]), exponent=st.integers(-5, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_same_assignment_as_indexed_loops(self, n, levels, exponent, seed):
        # levels 0: continuous weights; otherwise few distinct ones, with ties
        rng = np.random.default_rng(seed)
        w = (rng.integers(0, levels, (n, n)) if levels else rng.normal(size=(n, n))) * 10.0 ** exponent
        cost = w.max() - w
        assert np.array_equal(evaluation._min_cost_assignment(cost), indexed_min_cost_assignment(cost))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 5), st.integers(0, 8)), min_size=1, max_size=60))
    def test_confusion_matrix_counts_every_pair(self, pairs):
        pred, truth = (np.array(column) for column in zip(*pairs))
        m, pred_ids, true_ids = confusion_matrix(pred, truth)
        assert m.dtype == np.int64
        assert m.shape == (len(set(pred.tolist())), len(set(truth.tolist())))
        for (i, p), (j, t) in itertools.product(enumerate(pred_ids), enumerate(true_ids)):
            assert m[i, j] == pairs.count((p, t))

    def test_confusion_matrix_counts(self):
        truth = np.array([0, 0, 1, 1, 1])
        pred = np.array([1, 1, 0, 0, 1])
        m, pred_ids, true_ids = confusion_matrix(pred, truth)
        assert m.sum() == 5
        assert m[list(pred_ids).index(1), list(true_ids).index(0)] == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hungarian_accuracy(np.array([0, 1]), np.array([0, 1, 2]))


class TestKnn:
    def test_single_vote(self):
        train_z = np.array([[0.0], [10.0]])
        train_y = np.array([0, 1])
        test_z = np.array([[1.0], [9.0]])
        test_y = np.array([0, 1])
        assert knn_accuracy(train_z, train_y, test_z, test_y, k=1) == pytest.approx(1.0)

    def test_matches_rescan(self):
        rng = np.random.default_rng(107)
        train_z = rng.normal(size=(30, 3))
        train_y = rng.integers(0, 3, size=30)
        test_z = rng.normal(size=(12, 3))
        test_y = rng.integers(0, 3, size=12)
        k = 5
        got = knn_accuracy(train_z, train_y, test_z, test_y, k=k)
        hits = 0
        for i in range(12):
            d = ((train_z - test_z[i]) ** 2).sum(axis=1)
            order = sorted(range(30), key=lambda j: (d[j], j))[:k]
            votes = np.bincount(train_y[order], minlength=3)
            winner = int(np.argmax(votes))  # argmax takes the smallest label on ties
            hits += winner == test_y[i]
        assert got == pytest.approx(hits / 12.0)

    def test_k_capped_by_train_size(self):
        with pytest.raises(DomainError):
            knn_accuracy(np.zeros((3, 1)), np.zeros(3, dtype=int),
                         np.zeros((1, 1)), np.zeros(1, dtype=int), k=4)

    def test_empty_test_set(self):
        with pytest.raises(DimensionError, match="empty"):
            knn_accuracy(np.zeros((3, 2)), np.zeros(3, dtype=int),
                         np.zeros((0, 2)), np.zeros(0, dtype=int), k=1)


class TestLinearProbe:
    def test_separable_data(self):
        rng = np.random.default_rng(109)
        n = 100
        y = np.repeat([0, 1], n // 2)
        z = rng.normal(size=(n, 2)) + y[:, None] * 8.0
        acc = linear_probe(z[: n - 20], y[: n - 20], z[n - 20:], y[n - 20:])
        assert acc >= 0.99

    def test_pure_noise_near_chance(self):
        rng = np.random.default_rng(113)
        z_train = rng.normal(size=(200, 4))
        y_train = rng.integers(0, 2, size=200)
        z_test = rng.normal(size=(200, 4))
        y_test = rng.integers(0, 2, size=200)
        acc = linear_probe(z_train, y_train, z_test, y_test)
        # 3 sigma binomial band around 0.5
        assert abs(acc - 0.5) < 3.0 * 0.5 / np.sqrt(200)

    @pytest.mark.parametrize("n_train_y, n_test_y", [(9, 4), (10, 5)])
    def test_label_length_mismatch(self, n_train_y, n_test_y):
        y = np.arange(10) % 2
        with pytest.raises(DimensionError):
            linear_probe(np.zeros((10, 2)), y[:n_train_y], np.zeros((4, 2)), y[:n_test_y])

    @pytest.mark.parametrize("n_train, n_test", [(0, 4), (10, 0)])
    def test_empty_set(self, n_train, n_test):
        y = np.arange(10) % 2
        with pytest.raises(DimensionError, match="empty"):
            linear_probe(np.zeros((n_train, 2)), y[:n_train], np.zeros((n_test, 2)), y[:n_test])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_non_finite_features_rejected(self, bad, side):
        z = np.random.default_rng(157).normal(size=(14, 3))
        z[3 if side == "train" else 12, 1] = bad
        y = np.arange(14) % 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="squared norms and distances are finite"):
                linear_probe(z[:10], y[:10], z[10:], y[10:])


class TestSilhouette:
    def test_hand_value_two_pairs(self):
        # two tight pairs far apart: a = 1, b = 10 for every point
        z = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([0, 0, 1, 1])
        # outer points: a=1, b=(10+11)/2; inner points: a=1, b=(9+10)/2
        want = 0.5 * ((10.5 - 1.0) / 10.5 + (9.5 - 1.0) / 9.5)
        assert silhouette(z, labels) == pytest.approx(want, abs=1e-9)

    def test_far_separated_blobs_close_to_one(self):
        rng = np.random.default_rng(127)
        a = rng.normal(size=(40, 2)) * 0.1
        b = rng.normal(size=(40, 2)) * 0.1 + 100.0
        z = np.vstack([a, b])
        labels = np.repeat([0, 1], 40)
        assert silhouette(z, labels) > 0.9

    def test_translation_invariant(self):
        rng = np.random.default_rng(131)
        z = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        s1 = silhouette(z, labels)
        s2 = silhouette(z + 17.0, labels)
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_scale_invariant(self):
        rng = np.random.default_rng(137)
        z = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30)
        assert silhouette(z, labels) == pytest.approx(silhouette(z * 3.0, labels), abs=1e-9)

    def test_single_cluster_rejected(self):
        with pytest.raises(DomainError):
            silhouette(np.zeros((4, 2)), np.zeros(4, dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(silhouette_instances(), st.integers(1, 1600))
    def test_matches_dense_form_over_uneven_stripes(self, instance, budget):
        z, labels = instance
        want = dense_silhouette(z, labels)
        with pytest.MonkeyPatch.context() as mp:
            # stripes of budget // N rows, the last one usually shorter
            mp.setattr(evaluation, "_BLOCK_FLOATS", budget)
            assert silhouette(z, labels) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("rows_per_stripe", [50, 49])
    def test_one_stripe_and_one_row_more(self, monkeypatch, rows_per_stripe):
        rng = np.random.default_rng(151)
        z = rng.normal(size=(50, 3))
        labels = rng.integers(0, 4, size=50)
        monkeypatch.setattr(evaluation, "_BLOCK_FLOATS", 50 * rows_per_stripe)
        assert silhouette(z, labels) == pytest.approx(dense_silhouette(z, labels), abs=1e-12)

    def test_duplicate_points_and_singletons_score_zero(self):
        # within- and between-cluster distances all zero, and one singleton
        z = np.ones((5, 2))
        assert silhouette(z, np.array([7, 7, -3, -3, 2 ** 40])) == 0.0

    def test_no_n_by_n_temporary(self):
        n = 2000
        rng = np.random.default_rng(157)
        z = rng.normal(size=(n, 16))
        labels = rng.integers(0, 4, size=n)
        tracemalloc.start()
        try:
            silhouette(z, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a quarter of one N x N float64 array
        assert peak < 8 * n * n / 4

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_distances_rejected(self, bad):
        rng = np.random.default_rng(163)
        z = rng.normal(size=(12, 3))
        z[5, 1] = bad
        with pytest.raises(DomainError, match="squared norms and distances are finite"):
            silhouette(z, np.arange(12) % 3)


class TestHoldout:
    def test_sizes_and_disjointness(self):
        train, test = holdout_split(100, 0.25, seed=0)
        assert len(test) == 25
        assert len(train) == 75
        assert set(train).isdisjoint(test)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(100))

    def test_deterministic_per_seed(self):
        a = holdout_split(50, 0.25, seed=3)
        b = holdout_split(50, 0.25, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = holdout_split(50, 0.25, seed=4)
        assert not np.array_equal(a[1], c[1])


class TestMetric:
    def test_each_name_is_its_metric_on_the_quarter_holdout(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(3), 12)
        z = rng.normal(size=(36, 3)) + 2.0 * np.eye(3)[labels]
        train, test = holdout_split(36, 0.25, seed=4)
        assert metric("knn", z, labels, 4) == knn_accuracy(z[train], labels[train], z[test], labels[test], k=7)
        assert metric("probe", z, labels, 4) == linear_probe(
            z[train], labels[train], z[test], labels[test], seed=4
        )
        assert metric("silhouette", z, labels, 4) == silhouette(z, labels)
        assert metric("hungarian", z, labels, 4) == hungarian_accuracy(z.argmax(axis=1), labels)

    def test_unknown_name_lists_the_valid_ones(self):
        with pytest.raises(ConfigError, match="hungarian, knn, probe, silhouette"):
            metric("sharpness", np.zeros((4, 2)), np.zeros(4, dtype=int))


class TestKmeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(139)
        centers = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        x = np.vstack([rng.normal(size=(30, 2)) + c for c in centers])
        truth = np.repeat([0, 1, 2], 30)
        pred = kmeans_labels(x, 3, seed=0)
        assert hungarian_accuracy(pred, truth) == pytest.approx(1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(149)
        x = rng.normal(size=(60, 4))
        np.testing.assert_array_equal(kmeans_labels(x, 4, seed=7), kmeans_labels(x, 4, seed=7))

    def test_zero_clusters_rejected(self):
        with pytest.raises(DomainError):
            kmeans_labels(np.zeros((5, 2)), 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_distances_rejected(self, bad):
        x = np.random.default_rng(151).normal(size=(12, 3))
        x[5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="squared norms and distances are finite"):
                kmeans_labels(x, 3)

    def test_overflowing_centers_rejected(self):
        # all distances are 0 and finite, but the mean of 1e308s overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="squared norms and distances are finite"):
                kmeans_labels(np.full((4, 2), 1e308), 2)
