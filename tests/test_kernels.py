"""Softmax similarity kernels, supervisory constructions and their gradients."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bicon import (
    KernelSpec,
    cluster_transition,
    kernel_rows,
    kernel_rows_grad,
    similarity_matrix,
    supervisory_knn,
    supervisory_labels,
    supervisory_sne,
)
from bicon import kernels
from bicon.errors import DegenerateRowError, DimensionError, DomainError, NumericalError
from bicon.evaluation import knn_accuracy
from bicon.kernels import (
    _BLOCK_FLOATS,
    _PERPLEXITY_TOL,
    _cluster_transition,
    _knn,
    _nearest,
    cluster_transition_grad,
    learned_rows,
    normalize_rows,
    squared_distances,
    validate_distribution,
)


def row_entropy(P):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -P * np.log(P)
    terms[P <= 0.0] = 0.0
    return terms.sum(axis=1)


class TestSimilarityMatrix:
    def test_distance_symmetric_placement(self):
        z = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        s = similarity_matrix(z, KernelSpec("distance", 1.0))
        np.testing.assert_allclose([s[0, 1], s[0, 2]], [-1.0, -1.0], atol=1e-12)

    def test_angular_identical_unit_vectors(self):
        v = np.array([3.0, 4.0]) / 5.0
        s = similarity_matrix(np.stack([v, v]), KernelSpec("angular", 1.0))
        assert s[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_distance_matches_double_loop(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 3))
        spec = KernelSpec("distance", 1.0)
        s = similarity_matrix(z, spec)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                want = -np.sum((z[i] - z[j]) ** 2)
                assert s[i, j] == pytest.approx(want, rel=1e-12)

    def test_scale_constant(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 2))
        s1 = similarity_matrix(z, KernelSpec("distance", 1.0))
        s3 = similarity_matrix(z, KernelSpec("distance", 3.0))
        np.testing.assert_allclose(s3, 3.0 * s1, atol=1e-12)

    def test_non_finite_rejected(self):
        z = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(DomainError):
            similarity_matrix(z, KernelSpec("distance", 1.0))

    def test_angular_requires_unit_rows(self):
        z = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            similarity_matrix(z, KernelSpec("angular", 1.0))

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            KernelSpec("distance", 0.0)
        with pytest.raises(DomainError):
            KernelSpec("euclid", 1.0)


class TestKernelRows:
    def test_equal_scores(self):
        scores = np.array([[0.0, -1.0, -1.0], [-1.0, 0.0, -1.0], [-1.0, -1.0, 0.0]])
        q = kernel_rows(scores)
        np.testing.assert_allclose(q[0], [0.0, 0.5, 0.5], atol=1e-12)

    def test_analytic_softmax(self):
        scores = np.array([[0.0, math.log(3.0), 0.0]] * 3)
        q = kernel_rows(scores)
        np.testing.assert_allclose(q[0, 1:], [0.75, 0.25], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        q = kernel_rows(rng.normal(size=(6, 6)))
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diagonal(q) == 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=(5, 5))
        shifted = scores + rng.normal(size=(5, 1))
        np.testing.assert_allclose(kernel_rows(scores), kernel_rows(shifted), atol=1e-12)

    def test_overflow_safety(self):
        scores = np.full((3, 3), 0.0)
        scores[0, 1] = 800.0
        scores[0, 2] = 100.0
        q = kernel_rows(scores)
        assert np.all(np.isfinite(q))
        assert q[0, 1] == pytest.approx(1.0)

    def test_too_small(self):
        with pytest.raises(DimensionError):
            kernel_rows(np.zeros((1, 1)))

    def test_non_finite_scores(self):
        scores = np.zeros((3, 3))
        scores[1, 2] = np.nan
        with pytest.raises(DomainError):
            kernel_rows(scores)


class TestKernelGradients:
    def test_zero_cograd_gives_zero(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(4, 3))
        g = kernel_rows_grad(z, KernelSpec("distance", 1.0), np.zeros((4, 4)))
        np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("family", ["distance", "angular"])
    def test_matches_finite_differences(self, family):
        # scalar probe loss sum(A * q); perturbations hit the raw embedding,
        # before any normalization
        rng = np.random.default_rng(13)
        spec = KernelSpec(family, 1.25)
        for _ in range(20):
            z = rng.normal(size=(5, 3))
            A = rng.normal(size=(5, 5))
            np.fill_diagonal(A, 0.0)
            analytic = kernel_rows_grad(z, spec, A)
            h = 1e-6
            numeric = np.zeros_like(z)
            for idx in np.ndindex(z.shape):
                stepped = z.copy()
                stepped[idx] += h
                hi = float(np.sum(A * learned_rows(stepped, spec)))
                stepped[idx] -= 2.0 * h
                lo = float(np.sum(A * learned_rows(stepped, spec)))
                numeric[idx] = (hi - lo) / (2.0 * h)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_diagonal_cograd_rejected(self):
        z = np.zeros((3, 2))
        g = np.eye(3)
        with pytest.raises(DomainError):
            kernel_rows_grad(z, KernelSpec("distance", 1.0), g)

    def test_shape_mismatch(self):
        z = np.zeros((3, 2))
        with pytest.raises(DimensionError):
            kernel_rows_grad(z, KernelSpec("distance", 1.0), np.zeros((4, 4)))


class TestSupervisorySne:
    def test_equidistant_rows_uniform(self):
        # vertices of a regular simplex are mutually equidistant
        z = np.eye(4)
        P = supervisory_sne(z, 2.5)
        np.testing.assert_allclose(P[P > 0], 1.0 / 3.0, atol=1e-9)

    def test_collinear_entropy_calibration(self):
        x = np.linspace(0.0, 9.0, 10).reshape(-1, 1)
        P = supervisory_sne(x, 5.0)
        np.testing.assert_allclose(row_entropy(P), math.log(5.0), atol=1e-4)

    def test_entropy_calibration_random(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(40, 6))
        for perplexity in (5.0, 15.0, 30.0):
            P = supervisory_sne(x, perplexity)
            np.testing.assert_allclose(np.exp(row_entropy(P)), perplexity, atol=1e-3)

    def test_distribution_invariants(self):
        rng = np.random.default_rng(22)
        P = supervisory_sne(rng.normal(size=(12, 3)), 4.0)
        validate_distribution(P)

    def test_perplexity_out_of_range(self):
        x = np.zeros((5, 2))
        with pytest.raises(DomainError):
            supervisory_sne(x, 1.0)
        with pytest.raises(DomainError):
            supervisory_sne(x, 5.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_distances_rejected(self, bad):
        x = np.random.default_rng(23).normal(size=(12, 3))
        x[5, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="squared norms and distances are finite"):
                supervisory_sne(x, 4.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 40), st.integers(1, 5),
           st.floats(0.0, 1.0), st.integers(-40, 40))
    def test_power_of_two_scaling_is_exact(self, seed, n, d, frac, k):
        # each row's distances are scaled by a power of two before the
        # search, which takes out the 2**(2k) that x * 2**k puts on them
        x = np.random.default_rng(seed).normal(size=(n, d))
        perplexity = 2.0 + frac * (n - 3)
        assert np.array_equal(supervisory_sne(x * 2.0 ** k, perplexity), supervisory_sne(x, perplexity))

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_far_from_unit_scale_converges(self, scale):
        x = np.random.default_rng(24).normal(size=(40, 3)) * scale
        P = supervisory_sne(x, 5.0)
        validate_distribution(P)
        # 1% slack: row_entropy rounds otherwise than the search's own entropy
        assert np.max(np.abs(np.exp(row_entropy(P)) - 5.0)) <= 1.01 * _PERPLEXITY_TOL

    @pytest.mark.parametrize("x, perplexity", [
        (np.eye(4) * 1e150, 2.5),
        # squared distances near 1e-320 are subnormal
        (np.random.default_rng(25).normal(size=(40, 3)) * 1e-160, 5.0),
    ])
    def test_extreme_distances_without_warnings(self, x, perplexity):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                P = supervisory_sne(x, perplexity)
            except DomainError:
                return
        validate_distribution(P)
        n = len(x)
        uniform = np.all((P == 1.0 / (n - 1)) | np.eye(n, dtype=bool), axis=1)
        assert np.all(uniform | (np.abs(np.exp(row_entropy(P)) - perplexity) <= 1.01 * _PERPLEXITY_TOL))

    def test_unreachable_row_in_a_later_block_named(self):
        n = 200
        assert _BLOCK_FLOATS // n < 170
        x = np.random.default_rng(26).uniform(-100.0, 100.0, size=(n, 2))
        # point 170 has four nearest neighbors at one distance, so its
        # exp(entropy) never falls below 4; it is not equidistant from all
        x[170:175] = 500.0 + np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(NumericalError) as info:
            supervisory_sne(x, 2.0)
        assert info.value.row == 170


class TestSupervisoryLabels:
    def test_one_positive_partner(self):
        P = supervisory_labels([0, 0, 1, 1])
        np.testing.assert_allclose(P[0], [0.0, 1.0, 0.0, 0.0], atol=0)
        np.testing.assert_allclose(P[2], [0.0, 0.0, 0.0, 1.0], atol=0)

    def test_all_same_label(self):
        P = supervisory_labels([7, 7, 7, 7])
        np.testing.assert_allclose(P + np.eye(4) / 3.0, 1.0 / 3.0, atol=1e-12)

    def test_support_matches_classes(self):
        rng = np.random.default_rng(31)
        labels = np.repeat([0, 1, 2], 4)
        rng.shuffle(labels)
        P = supervisory_labels(labels)
        validate_distribution(P)
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        assert np.array_equal(P > 0, same)

    def test_singleton_class_named(self):
        with pytest.raises(DomainError, match="2"):
            supervisory_labels([0, 0, 1, 2, 2])


class TestSupervisoryKnn:
    def test_full_neighborhood_uniform(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(6, 2))
        P = supervisory_knn(x, 5)
        np.testing.assert_allclose(P + np.eye(6) / 5.0, 0.2, atol=1e-12)

    def test_identical_clusters(self):
        base = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.repeat(base, 4, axis=0)
        P = supervisory_knn(x, 3)
        group = np.repeat(np.arange(3), 4)
        same = group[:, None] == group[None, :]
        np.fill_diagonal(same, False)
        assert np.array_equal(P > 0, same)
        np.testing.assert_allclose(P[P > 0], 1.0 / 3.0, atol=0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(20, 5))
        k = 4
        P = supervisory_knn(x, k)
        d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        for i in range(20):
            others = [j for j in range(20) if j != i]
            others.sort(key=lambda j: (d[i, j], j))
            want = set(others[:k])
            got = set(np.flatnonzero(P[i] > 0).tolist())
            assert got == want

    def test_tie_breaks_toward_smaller_index(self):
        x = np.array([[0.0], [1.0], [-1.0], [5.0]])
        P = supervisory_knn(x, 1)
        assert np.flatnonzero(P[0])[0] == 1

    def test_k_out_of_range(self):
        x = np.zeros((4, 2))
        with pytest.raises(DomainError):
            supervisory_knn(x, 0)
        with pytest.raises(DomainError):
            supervisory_knn(x, 4)


class TestClusterTransition:
    def test_identical_rows_uniform(self):
        phi = np.tile([0.2, 0.5, 0.3], (5, 1))
        q = cluster_transition(phi)
        np.testing.assert_allclose(q + np.eye(5) * 0.25, 0.25, atol=1e-12)

    def test_one_hot_blocks(self):
        phi = np.zeros((6, 2))
        phi[:3, 0] = 1.0
        phi[3:, 1] = 1.0
        q = cluster_transition(phi)
        want = np.zeros((6, 6))
        want[:3, :3] = 0.5
        want[3:, 3:] = 0.5
        np.fill_diagonal(want, 0.0)
        np.testing.assert_allclose(q, want, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(53)
        phi = rng.dirichlet(np.ones(4), size=6)
        q = cluster_transition(phi)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)
        validate_distribution(q)

    def test_degenerate_row(self):
        phi = np.zeros((3, 3))
        phi[0, 0] = 1.0
        phi[1, 1] = 1.0
        phi[2, 2] = 1.0
        with pytest.raises(DegenerateRowError) as err:
            cluster_transition(phi)
        assert err.value.row == 0

    @pytest.mark.parametrize("phi", [1.0, [0.2, 0.8], [[[1.0]]]])
    def test_grad_rejects_assignments_not_2d(self, phi):
        # the same DimensionError as cluster_transition, whatever dL_dq's shape
        with pytest.raises(DimensionError):
            cluster_transition(phi)
        with pytest.raises(DimensionError):
            cluster_transition_grad(phi, [[0.0]])

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        phi = rng.dirichlet(np.ones(4), size=6)
        A = rng.normal(size=(6, 6))
        np.fill_diagonal(A, 0.0)
        analytic = cluster_transition_grad(phi, A)
        h = 1e-7
        numeric = np.zeros_like(phi)
        for idx in np.ndindex(phi.shape):
            stepped = phi.copy()
            stepped[idx] += h
            hi = float(np.sum(A * _transition_no_validate(stepped)))
            stepped[idx] -= 2.0 * h
            lo = float(np.sum(A * _transition_no_validate(stepped)))
            numeric[idx] = (hi - lo) / (2.0 * h)
        scale = max(np.max(np.abs(numeric)), 1e-12)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5


def _transition_no_validate(phi):
    # FD probes step off the simplex; recompute the map without validation
    G = phi @ phi.T
    np.fill_diagonal(G, 0.0)
    return G / G.sum(axis=1, keepdims=True)


class TestGeometricInvariances:
    def test_distance_rows_translation_invariant(self):
        rng = np.random.default_rng(61)
        z = rng.normal(size=(7, 3))
        spec = KernelSpec("distance", 1.5)
        shifted = learned_rows(z + np.array([5.0, -3.0, 2.0]), spec)
        np.testing.assert_allclose(learned_rows(z, spec), shifted, atol=1e-9)

    def test_angular_rows_rotation_invariant(self):
        rng = np.random.default_rng(67)
        z = rng.normal(size=(7, 3))
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        spec = KernelSpec("angular", 2.0)
        np.testing.assert_allclose(
            learned_rows(z, spec), learned_rows(z @ R.T, spec), atol=1e-9
        )

    def test_distribution_invariants_many_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            x = rng.normal(size=(n, 3))
            validate_distribution(learned_rows(x, KernelSpec("distance", 1.0)))
            validate_distribution(learned_rows(x, KernelSpec("angular", 1.0)))
            validate_distribution(supervisory_knn(x, min(3, n - 1)))

    def test_normalize_rows(self):
        rng = np.random.default_rng(73)
        z = rng.normal(size=(5, 4))
        u = normalize_rows(z)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
        with pytest.raises(DomainError):
            normalize_rows(np.zeros((2, 2)))

    def test_squared_distances_blocked_matches_direct(self):
        rng = np.random.default_rng(79)
        x = rng.normal(size=(150, 4))
        d2 = squared_distances(x, block=64)
        direct = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(d2, direct, atol=1e-9)


@st.composite
def point_sets(draw, min_n=2):
    """Normal points, 2 to 30 of width 1 to 6; some draws round them to
    integers, which makes duplicate points and distance ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(draw(st.integers(min_n, 30)), draw(st.integers(1, 6))))
    return np.round(x) if draw(st.booleans()) else x


class TestBuildersGiveTransitionRows:
    """Every row builder's output passes validate_distribution, so the
    training steps need not check it again."""

    @pytest.mark.parametrize("family", ["distance", "angular"])
    @settings(max_examples=100, deadline=None)
    @given(point_sets(), st.floats(0.1, 20.0))
    def test_learned_rows(self, family, x, scale):
        if family == "angular":
            x = x + (np.linalg.norm(x, axis=1, keepdims=True) == 0.0)
        validate_distribution(learned_rows(x, KernelSpec(family, scale)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 6), st.floats(0.1, 10.0))
    def test_cluster_transition(self, seed, n, c, temperature):
        logits = np.random.default_rng(seed).normal(size=(n, c)) / temperature
        phi = np.exp(logits - logits.max(axis=1, keepdims=True))
        phi /= phi.sum(axis=1, keepdims=True)
        validate_distribution(_cluster_transition(phi)[0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 20))
    def test_supervisory_labels(self, seed, classes, extra):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(classes)] * 2 + [rng.integers(0, classes, extra)])
        validate_distribution(supervisory_labels(rng.permutation(labels)))

    @settings(max_examples=100, deadline=None)
    @given(point_sets(min_n=3), st.floats(0.0, 1.0))
    def test_supervisory_sne(self, x, frac):
        perplexity = 2.0 + frac * (x.shape[0] - 3)
        try:
            P = supervisory_sne(x, perplexity)
        except NumericalError:
            # rounded points can have more tied nearest neighbors than the
            # perplexity: no bandwidth reaches it
            return
        validate_distribution(P)

    @settings(max_examples=100, deadline=None)
    @given(point_sets(), st.floats(0.0, 1.0))
    def test_supervisory_knn(self, x, frac):
        validate_distribution(supervisory_knn(x, 1 + int(frac * (x.shape[0] - 2))))


@st.composite
def narrow_row_matrix_pairs(draw):
    """Two row matrices of one random width in 1..12, with up to 9 rows
    each, entries within +-1e6."""
    d = draw(st.integers(1, 12))
    elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (draw(st.integers(1, 9)), d), elements=elements))
    b = draw(arrays(np.float64, (draw(st.integers(1, 9)), d), elements=elements))
    return a, b


@st.composite
def row_matrix_pairs(draw):
    """Two row matrices of one random width in 1..300, with up to 40 rows.
    Entries span twelve decades, so that any change in the order of the
    additions changes the rounding; some draws also zero a share of
    them."""
    d = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.5]))

    def rows():
        n = draw(st.integers(1, 40))
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, d))
        x[rng.random((n, d)) < zeros] = 0.0
        return x

    return rows(), rows()


def per_pair_sums(a, b):
    """Each pair's squared differences added left to right, as the
    reference. The squares are taken on whole arrays (x * x): a scalar
    np.float64 ** 2 goes through libm's pow, which can round otherwise."""
    return np.array([[np.cumsum((a[i] - b[j]) ** 2)[-1] for j in range(b.shape[0])]
                     for i in range(a.shape[0])])


class TestSquaredDistancesProperties:
    @settings(max_examples=300, deadline=None)
    @given(narrow_row_matrix_pairs(), st.integers(1, 4))
    def test_matches_per_pair_sum_bit_for_bit(self, pair, block):
        a, b = pair
        assert np.array_equal(squared_distances(a, b, block=block), per_pair_sums(a, b))
        assert np.array_equal(squared_distances(a, block=block), per_pair_sums(a, a))

    @settings(max_examples=300, deadline=None)
    @given(row_matrix_pairs(), st.none() | st.integers(1, 16))
    def test_wide_matches_per_pair_sum_bit_for_bit(self, pair, block):
        a, b = pair
        assert np.array_equal(squared_distances(a, b, block=block), per_pair_sums(a, b))
        assert np.array_equal(squared_distances(a, block=block), per_pair_sums(a, a))

    @settings(max_examples=200, deadline=None)
    @given(row_matrix_pairs())
    def test_mirror_is_exact(self, pair):
        # silhouette adds each upper-triangle distance to both points' sums
        a, b = pair
        assert np.array_equal(squared_distances(a, b), squared_distances(b, a).T)
        d2 = squared_distances(a)
        assert np.array_equal(d2, d2.T)
        assert not np.diagonal(d2).any()

    @pytest.mark.parametrize("d", [7, 8, 15, 128, 129, 136, 256, 257, 264, 520])
    def test_every_summation_shape(self, d):
        # widths on both sides of np.sum's regrouping points (8 terms, 128,
        # and 2 and 3 levels of splits): a left-to-right sum has none of them
        rng = np.random.default_rng(d)
        a = rng.normal(size=(5, d)) * 10.0 ** rng.uniform(-6, 6, size=(5, d))
        b = rng.normal(size=(3, d)) * 10.0 ** rng.uniform(-6, 6, size=(3, d))
        for block in (None, 2):
            assert np.array_equal(squared_distances(a, b, block=block), per_pair_sums(a, b))

    @pytest.mark.parametrize("d", [0, 1, 2, 5])
    @pytest.mark.parametrize("m", [1, 6])
    def test_special_values_match_per_pair_sums(self, d, m):
        # each difference is a K = 2 product [a, 1] . [1; -b]: it must round
        # as the subtraction does on signed zeros, infinities, NaN,
        # subnormals and entries near the overflow and underflow limits,
        # also for a one-row b (kNN's exact recompute) and width 0
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-320, 2.2e-308,
                            1e-300, -1e-300, 1e300, -1e300, 1e200, 1.5, -2.0])
        rng = np.random.default_rng(d * 10 + m)
        for _ in range(20):
            a = rng.choice(special, size=(7, d))
            b = rng.choice(special, size=(m, d))
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                want = per_pair_sums(a, b) if d else np.zeros((7, m))
                np.testing.assert_array_equal(squared_distances(a, b), want)
                np.testing.assert_array_equal(squared_distances(a, block=3), per_pair_sums(a, a) if d else 0.0)

    def test_zero_width_is_zero(self):
        assert np.array_equal(squared_distances(np.zeros((3, 0)), np.zeros((2, 0))), np.zeros((3, 2)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 299), st.floats(1e155, 1e300))
    def test_overflow_gives_inf(self, d, col, big):
        col %= d
        a = np.zeros((2, d))
        a[0, col] = big
        d2 = squared_distances(a, np.zeros((3, d)))
        assert np.all(d2[0] == np.inf)
        assert np.all(d2[1] == 0.0)


@st.composite
def tied_distance_rows(draw):
    """Small-integer distance matrices, heavy with ties and inf, and a k
    from 1 to the row length."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
    return draw(arrays(np.float64, (n, m), elements=values)), draw(st.integers(1, m))


def argsort_knn(x, k):
    """supervisory_knn with a full stable argsort, as the reference."""
    d2 = squared_distances(x)
    np.fill_diagonal(d2, np.inf)
    P = np.zeros((x.shape[0], x.shape[0]))
    np.put_along_axis(P, np.argsort(d2, axis=1, kind="stable")[:, :k], 1.0 / k, axis=1)
    return P


def argsort_knn_accuracy(train_z, train_y, test_z, test_y, k):
    """knn_accuracy with a full stable argsort, as the reference."""
    order = np.argsort(squared_distances(test_z, train_z), axis=1, kind="stable")[:, :k]
    counts = np.zeros((test_z.shape[0], int(max(train_y.max(), test_y.max())) + 1), dtype=np.int64)
    np.add.at(counts, (np.arange(test_z.shape[0])[:, None], train_y[order]), 1)
    return float(np.mean(counts.argmax(axis=1) == test_y))


# coordinates on a coarse grid, so that many distances tie
grid_rows = st.integers(2, 30).flatmap(
    lambda n: arrays(np.float64, (n, 2), elements=st.integers(-2, 2).map(float))
)


class TestNearest:
    @settings(max_examples=500, deadline=None)
    @given(tied_distance_rows())
    def test_same_index_set_as_stable_argsort(self, rows):
        d2, k = rows
        want = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
        assert np.array_equal(_nearest(d2, k), want)

    @settings(max_examples=100, deadline=None)
    @given(grid_rows, st.integers(1, 29))
    def test_supervisory_knn_matches_argsort(self, x, k):
        k = min(k, x.shape[0] - 1)
        assert np.array_equal(supervisory_knn(x, k), argsort_knn(x, k))

    @settings(max_examples=100, deadline=None)
    @given(grid_rows, grid_rows, st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
    def test_knn_accuracy_matches_argsort(self, train_z, test_z, seed, k):
        rng = np.random.default_rng(seed)
        train_y = rng.integers(0, 3, size=train_z.shape[0])
        test_y = rng.integers(0, 3, size=test_z.shape[0])
        k = min(k, train_z.shape[0])
        assert knn_accuracy(train_z, train_y, test_z, test_y, k=k) == argsort_knn_accuracy(
            train_z, train_y, test_z, test_y, k
        )


@st.composite
def knn_instances(draw):
    """Query rows a and reference rows b of one width in 1..300, up to 40
    of each, and a k from 1 to len(b). The rows come from one regime:

    - entries spanning twelve decades;
    - a large common offset (1e4 to 1e8) with unit spread, where
      |b_j|^2 - 2 a_i . b_j cancels worst;
    - entries near 1e-160, whose squares and distances are subnormal.

    Some draws copy reference rows onto others and query rows into b, so
    that distances tie exactly, a query point has a duplicate in b, and
    a point of b has a duplicate other than itself. Others scatter inf,
    NaN or 1e200 entries, or make every entry of b about 1e200, so that
    every distance from b overflows."""
    d = draw(st.integers(1, 300))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    regime = draw(st.sampled_from(["decades", "offset", "subnormal"]))
    if regime == "decades":
        x = rng.normal(size=(n + m, d)) * 10.0 ** rng.uniform(-6, 6, size=(n + m, d))
    elif regime == "offset":
        offset = rng.choice([-1.0, 1.0], size=d) * 10.0 ** rng.uniform(4, 8)
        x = offset + rng.normal(size=(n + m, d))
    else:
        x = rng.normal(size=(n + m, d)) * 10.0 ** rng.uniform(-161, -159, size=(n + m, d))
    a, b = x[:n], x[n:]
    if draw(st.booleans()):
        b[rng.integers(0, m, size=m // 2)] = b[rng.integers(0, m, size=m // 2)]
        b[rng.integers(0, m, size=max(1, m // 4))] = a[rng.integers(0, n, size=max(1, m // 4))]
    hostile = draw(st.sampled_from(["none", "none", "entries", "overflow"]))
    if hostile == "entries":
        for z in (a, b):
            z[rng.random(z.shape) < 0.02] = rng.choice([np.inf, -np.inf, np.nan, 1e200, -1e200])
    elif hostile == "overflow":
        b[:] = rng.normal(size=b.shape) * 1e200
    return a, b, draw(st.integers(1, m))


def overflows(*zs):
    """Whether any row of the matrices has a non-finite squared norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        return not all(np.isfinite(np.einsum("ij,ij->i", z, z)).all() for z in zs)


def argsort_nearest(a, b, k, exclude_self=False):
    """_knn's index sets from the full matrix and a stable argsort."""
    d2 = squared_distances(a, b)
    if exclude_self:
        np.fill_diagonal(d2, np.inf)
    return np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)


class TestKnnProperties:
    """_knn ranks pairs by one matrix product and recomputes only the
    pairs its error bound cannot rule out; its index sets must be those
    of the exact distances, bit for bit, on the inputs where the product
    is least accurate. Features with a non-finite squared norm raise."""

    @settings(max_examples=400, deadline=None)
    @given(knn_instances())
    def test_knn_matches_stable_argsort(self, inst):
        a, b, k = inst
        if overflows(a, b):
            with pytest.raises(DomainError, match="finite"):
                _knn(a, b, k)
        else:
            assert np.array_equal(_knn(a, b, k), argsort_nearest(a, b, k))
        if len(b) > 1:
            k = min(k, len(b) - 1)
            if overflows(b):
                with pytest.raises(DomainError, match="finite"):
                    _knn(b, b, k, exclude_self=True)
            else:
                assert np.array_equal(_knn(b, b, k, exclude_self=True), argsort_nearest(b, b, k, exclude_self=True))

    @settings(max_examples=200, deadline=None)
    @given(knn_instances())
    def test_supervisory_knn_matches_argsort(self, inst):
        _, x, k = inst
        if len(x) > 1:
            k = min(k, len(x) - 1)
            if overflows(x):
                with pytest.raises(DomainError, match="finite"):
                    supervisory_knn(x, k)
            else:
                assert np.array_equal(supervisory_knn(x, k), argsort_knn(x, k))

    @settings(max_examples=200, deadline=None)
    @given(knn_instances(), st.integers(0, 2 ** 32 - 1))
    def test_knn_accuracy_matches_argsort(self, inst, seed):
        test_z, train_z, k = inst
        rng = np.random.default_rng(seed)
        train_y = rng.integers(0, 3, size=len(train_z))
        test_y = rng.integers(0, 3, size=len(test_z))
        if overflows(test_z, train_z):
            with pytest.raises(DomainError, match="finite"):
                knn_accuracy(train_z, train_y, test_z, test_y, k=k)
        else:
            assert knn_accuracy(train_z, train_y, test_z, test_y, k=k) == argsort_knn_accuracy(
                train_z, train_y, test_z, test_y, k
            )

    @pytest.mark.parametrize("n, m, d, k", [(500, 1500, 16, 7), (1000, 0, 64, 30), (75, 225, 2, 7)])
    def test_blob_sizes_match_full_matrix(self, n, m, d, k):
        # the sizes of the supcon snapshots, the cluster kNN graph (m = 0:
        # self excluded) and the SNE snapshots; large enough for a threaded
        # BLAS to split the product
        rng = np.random.default_rng(n + d)
        centers = 6.0 * rng.normal(size=(4, d))
        a = centers[rng.integers(0, 4, size=n)] + rng.normal(size=(n, d))
        b = centers[rng.integers(0, 4, size=m)] + rng.normal(size=(m, d)) if m else a
        assert np.array_equal(_knn(a, b, k, exclude_self=not m), argsort_nearest(a, b, k, exclude_self=not m))

    def test_overflowing_distance_ties_with_self(self):
        # |x_0|^2 + max |x_j|^2, every h and every threshold are finite,
        # yet row 0's distances to both others overflow; in the full
        # row they would tie at +inf with the excluded self pair, so the
        # search raises instead of ranking them
        x = np.array([[0.5477], [-0.5477], [-0.5476]]) * np.sqrt(np.finfo(float).max)
        with pytest.raises(DomainError, match="finite"):
            _knn(x, x, 2, exclude_self=True)
        with pytest.raises(DomainError, match="finite"):
            supervisory_knn(x, 2)

    def test_overflow_outside_the_bound_raises(self):
        r = np.sqrt(np.finfo(float).max)
        # |a_0|^2 overflows, yet h and the distance are finite
        a = np.array([[r * (1.0 + 2.0 ** -48)]])
        with pytest.raises(DomainError, match="finite"):
            _knn(a, a - r * np.sqrt(0.5), 1)
        # |x_1|^2 + max |x_j|^2 overflows; in row 1 the self pair would meet
        # an infinite threshold and be selected at distance 0
        x = np.array([[0.0], [r * np.sqrt(0.9)]])
        with pytest.raises(DomainError, match="finite"):
            supervisory_knn(x, 1)
        # every squared norm and h is finite, but both distances overflow
        # and tie at +inf in the full row, where the smaller index wins;
        # only index 1 is a candidate by h
        a = np.array([[-np.sqrt(0.3)]]) * r
        b = np.array([[np.sqrt(1.1) - np.sqrt(0.3)], [np.sqrt(1.05) - np.sqrt(0.3)]]) * r
        with pytest.raises(DomainError, match="finite"):
            _knn(a, b, 1)

    def test_exact_distances_only_for_candidates(self, monkeypatch):
        # finite input: squared_distances only sees candidate differences,
        # one row per pair; a NaN raises before any distance is computed
        shapes = []

        def recording(a, b=None, block=None):
            shapes.append((np.shape(a)[0], np.shape(a if b is None else b)[0]))
            return squared_distances(a, b, block)

        monkeypatch.setattr(kernels, "squared_distances", recording)
        rng = np.random.default_rng(101)
        x = rng.normal(size=(200, 8)) + 5.0 * rng.integers(0, 4, size=(200, 1))
        supervisory_knn(x, 5)
        assert shapes and all(m == 1 for _, m in shapes)
        assert sum(c for c, _ in shapes) < 200 * 20
        shapes.clear()
        x[3, 2] = np.nan
        with pytest.raises(DomainError, match="finite"):
            supervisory_knn(x, 5)
        assert shapes == []
