"""Value and derivative checks for the four f-divergences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bicon import divergence, divergence_grad_q, divergence_rows
from bicon.divergences import EPS, KINDS, _f_at_zero, validate_probability_vector
from bicon.errors import DimensionError, DomainError

BOUNDS = {"TV": 1.0, "JSD": math.log(2.0), "Hellinger": 1.0}
SYMMETRIC = ("TV", "JSD", "Hellinger")


def random_simplex_pairs(count, n, seed):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(n), size=count)
    Q = rng.dirichlet(np.ones(n), size=count)
    return P, Q


class TestTaggedExamples:
    def test_kl_identity(self):
        p = np.array([0.2, 0.3, 0.5])
        assert divergence("KL", p, p) == pytest.approx(0.0, abs=1e-12)

    def test_kl_one_hot_vs_uniform(self):
        got = divergence("KL", [1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(math.log(2.0), abs=1e-9)

    def test_tv_one_hot_vs_uniform(self):
        assert divergence("TV", [1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_hellinger_one_hot_vs_uniform(self):
        want = 1.0 - math.sqrt(2.0) / 2.0
        got = divergence("Hellinger", [1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(want, abs=1e-9)

    def test_jsd_one_hot_vs_uniform(self):
        # closed form: m = (0.75, 0.25) gives 1.5 ln 2 - 0.75 ln 3
        want = 1.5 * math.log(2.0) - 0.75 * math.log(3.0)
        got = divergence("JSD", [1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.21576155433883565, abs=1e-9)

    def test_jsd_disjoint_supports(self):
        got = divergence("JSD", [1.0, 0.0], [0.0, 1.0])
        assert got == pytest.approx(math.log(2.0), abs=1e-9)


class TestGradExamples:
    def test_f_at_zero(self):
        want = {"KL": 0.0, "TV": 0.5, "JSD": 0.5 * math.log(2.0), "Hellinger": 0.5}
        assert {kind: _f_at_zero(kind) for kind in KINDS} == want

    def test_hellinger_grad_at_optimum(self):
        p = np.array([0.4, 0.6])
        np.testing.assert_allclose(divergence_grad_q("Hellinger", p, p), 0.0, atol=1e-12)

    def test_kl_grad_componentwise(self):
        got = divergence_grad_q("KL", [1.0, 0.0], [0.5, 0.5])
        np.testing.assert_allclose(got, [-2.0, 0.0], atol=1e-12)

    def test_tv_grad_sign_convention(self):
        got = divergence_grad_q("TV", [0.3, 0.3, 0.4], [0.5, 0.3, 0.2])
        np.testing.assert_allclose(got, [0.5, 0.0, -0.5], atol=1e-12)


class TestInvariants:
    def test_non_negative_and_bounded(self):
        P, Q = random_simplex_pairs(1000, 6, seed=11)
        for kind in KINDS:
            vals = divergence_rows(kind, P, Q)[0]
            assert np.all(vals >= -1e-12), kind
            if kind in BOUNDS:
                assert np.all(vals <= BOUNDS[kind] + 1e-12), kind

    def test_identity_of_indiscernibles(self):
        P, _ = random_simplex_pairs(200, 5, seed=3)
        for kind in KINDS:
            vals = divergence_rows(kind, P, P)[0]
            assert np.all(np.abs(vals) <= 1e-12), kind

    def test_closeness_implies_pointwise_closeness(self):
        # contrapositive of identity: tiny divergence forces tiny sup gap
        P, Q = random_simplex_pairs(500, 6, seed=7)
        for kind in KINDS:
            vals = divergence_rows(kind, P, Q)[0]
            gaps = np.abs(P - Q).max(axis=1)
            close = vals < 1e-9
            assert np.all(gaps[close] < 1e-3), kind

    def test_symmetry(self):
        P, Q = random_simplex_pairs(300, 7, seed=19)
        for kind in SYMMETRIC:
            fwd = divergence_rows(kind, P, Q)[0]
            bwd = divergence_rows(kind, Q, P)[0]
            np.testing.assert_array_equal(fwd, bwd, err_msg=kind)

    def test_kl_is_asymmetric(self):
        p = np.array([0.8, 0.15, 0.05])
        q = np.array([0.4, 0.4, 0.2])
        assert abs(divergence("KL", p, q) - divergence("KL", q, p)) > 1e-6

    def test_tv_attains_bound_on_disjoint_supports(self):
        assert divergence("TV", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
        assert divergence("Hellinger", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


class TestFiniteDifferences:
    # interior points only; componentwise perturbation without re-normalization
    H = 1e-6

    def fd_grad(self, kind, p, q):
        g = np.zeros_like(q)
        for k in range(q.size):
            stepped = q.copy()
            stepped[k] = q[k] + self.H
            hi = divergence_rows(kind, p, stepped)[0][0]
            stepped[k] = q[k] - self.H
            lo = divergence_rows(kind, p, stepped)[0][0]
            g[k] = (hi - lo) / (2.0 * self.H)
        return g

    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(23)
        for kind in KINDS:
            for _ in range(20):
                p = rng.dirichlet(np.ones(8))
                q = rng.dirichlet(np.ones(8))
                # keep TV away from its kink and both away from the floor
                if min(p.min(), q.min()) < 1e-3 or np.abs(p - q).min() < 1e-4:
                    continue
                analytic = divergence_grad_q(kind, p, q)
                numeric = self.fd_grad(kind, p, np.asarray(q, dtype=float))
                scale = max(np.max(np.abs(numeric)), 1e-12)
                err = np.max(np.abs(analytic - numeric)) / scale
                assert err < 1e-5, f"{kind}: rel err {err:.3e}"


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            divergence("KL", [0.5, 0.5], [0.2, 0.3, 0.5])

    def test_negative_entry(self):
        with pytest.raises(DomainError):
            divergence("TV", [1.1, -0.1], [0.5, 0.5])

    def test_bad_sum(self):
        with pytest.raises(DomainError):
            divergence("JSD", [0.5, 0.6], [0.5, 0.5])

    def test_non_finite(self):
        with pytest.raises(DomainError):
            validate_probability_vector(np.array([np.nan, 1.0]))

    def test_scalar_rejected(self):
        with pytest.raises(DimensionError):
            validate_probability_vector(np.array(1.0))

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            divergence("chi2", [0.5, 0.5], [0.5, 0.5])

    def test_zero_q_stays_finite(self):
        # flooring keeps KL finite even on q entries 0 (spike preserved, not inf)
        val = divergence("KL", [0.5, 0.5], [1.0, 0.0])
        assert np.isfinite(val)
        assert val > 10.0  # ~0.5 ln(0.5/1e-12)

    def test_eps_floor_value(self):
        assert EPS == 1e-12

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_rows_reject_other_than_one_or_two_dimensions(self, shape):
        P = np.full(shape, 0.25)
        for kind in KINDS:
            with pytest.raises(DimensionError):
                divergence_rows(kind, P, P)


# The eight closed forms the fused per-kind functions replaced, one value
# and one derivative per kind, kept here as the bit-for-bit reference.


def ref_kl_rows(P, Q):
    Qf = np.maximum(Q, EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = P * np.log(P / Qf)
    terms[P <= 0.0] = 0.0
    return terms.sum(axis=1)


def ref_tv_rows(P, Q):
    return 0.5 * np.abs(P - Q).sum(axis=1)


def ref_jsd_rows(P, Q):
    M = 0.5 * (P + Q)
    Mf = np.maximum(M, EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        tp = P * np.log(P / Mf)
        tq = Q * np.log(Q / Mf)
    tp[P <= 0.0] = 0.0
    tq[Q <= 0.0] = 0.0
    return 0.5 * (tp.sum(axis=1) + tq.sum(axis=1))


def ref_hellinger_rows(P, Q):
    d = np.sqrt(P) - np.sqrt(Q)
    return 0.5 * (d * d).sum(axis=1)


def ref_kl_grad_rows(P, Q):
    return -P / np.maximum(Q, EPS)


def ref_tv_grad_rows(P, Q):
    return 0.5 * np.sign(Q - P)


def ref_jsd_grad_rows(P, Q):
    Qf = np.maximum(Q, EPS)
    return 0.5 * np.log(2.0 * Qf / (P + Qf))


def ref_hellinger_grad_rows(P, Q):
    return 0.5 * (1.0 - np.sqrt(P / np.maximum(Q, EPS)))


REFERENCE = {
    "KL": (ref_kl_rows, ref_kl_grad_rows),
    "TV": (ref_tv_rows, ref_tv_grad_rows),
    "JSD": (ref_jsd_rows, ref_jsd_grad_rows),
    "Hellinger": (ref_hellinger_rows, ref_hellinger_grad_rows),
}

# exact zero, subnormals, the smallest normal, and entries on and around the floor
SPECIAL = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-13,
           float(np.nextafter(EPS, 0.0)), EPS, float(np.nextafter(EPS, 1.0)), 1e-11, 0.5, 1.0)


@st.composite
def finite_row_pairs(draw):
    """Two non-negative row matrices of one shape with entries in [0, 1]:
    each row either drawn entry by entry from SPECIAL and [0, 1] or a
    Dirichlet row, whose small concentrations underflow to subnormals and
    exact zeros. Rows need not sum to 1, as in finite-difference probes."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    elements = st.sampled_from(SPECIAL) | st.floats(0.0, 1.0)

    def rows():
        x = draw(arrays(np.float64, (m, n), elements=elements))
        alpha = draw(st.sampled_from([0.01, 0.1, 1.0]))
        dirichlet = rng.random(m) < 0.5
        x[dirichlet] = rng.dirichlet(np.full(n, alpha), size=int(dirichlet.sum()))
        return x

    return rows(), rows()


@st.composite
def simplex_row_pairs(draw):
    """Two matrices of Dirichlet rows of one shape; concentrations from
    0.01 (mostly zeros and subnormals) to 10 (near uniform)."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    return rng.dirichlet(np.full(n, alpha), size=m), rng.dirichlet(np.full(n, alpha), size=m)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(finite_row_pairs())
    def test_matches_reference_closed_forms_bit_for_bit(self, pair):
        P, Q = pair
        for kind in KINDS:
            ref_value, ref_grad = REFERENCE[kind]
            values, grads = divergence_rows(kind, P, Q)
            assert same_bits(values, ref_value(P, Q)), kind
            assert same_bits(grads, ref_grad(P, Q)), kind

    @settings(max_examples=200, deadline=None)
    @given(simplex_row_pairs())
    def test_zero_on_the_diagonal_and_non_negative(self, pair):
        # the EPS floor moves a value by at most about n * EPS (Gibbs'
        # inequality against floored entries that sum to at most 1 + n * EPS)
        P, Q = pair
        slack = P.shape[1] * EPS
        for kind in KINDS:
            assert np.all(np.abs(divergence_rows(kind, P, P)[0]) <= slack), kind
            assert np.all(divergence_rows(kind, P, Q)[0] >= -slack), kind

    @settings(max_examples=200, deadline=None)
    @given(simplex_row_pairs())
    def test_bounded_kinds_are_bounded_and_symmetric(self, pair):
        P, Q = pair
        for kind in SYMMETRIC:
            fwd = divergence_rows(kind, P, Q)[0]
            assert np.all(fwd <= BOUNDS[kind] + 1e-12), kind
            assert np.array_equal(fwd, divergence_rows(kind, Q, P)[0]), kind

    @settings(max_examples=300, deadline=None)
    @given(finite_row_pairs())
    def test_entries_where_p_is_zero_follow_f_at_zero(self, pair):
        # the cluster step takes each row's terms on p > 0 alone and adds
        # f(0) times the rest of q's mass; a kind with no finite f(0)
        # cannot run that step
        P, Q = pair
        off = P == 0.0
        for kind in KINDS:
            f0 = _f_at_zero(kind)
            assert np.isfinite(f0), kind
            values, grads = divergence_rows(kind, P, Q)
            assert np.all(grads[off & (Q >= 2.0 * EPS)] == f0), kind
            # a pair with p = q = 0 adds exactly 0, so these are the terms on p > 0
            on_support = divergence_rows(kind, P, np.where(off, 0.0, Q))[0]
            want = on_support + f0 * np.where(off, Q, 0.0).sum(axis=1)
            assert np.all(np.abs(values - want) <= P.shape[1] * EPS), kind
