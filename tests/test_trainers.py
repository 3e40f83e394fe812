"""Training engines: loss assembly, determinism, optima, and abort paths."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from bicon import (
    DatasetSpec,
    KernelSpec,
    generate,
    grad_norm_series,
    loss_and_grad,
    run_cluster,
    run_sne,
    run_supcon,
)
from bicon.divergences import EPS
from bicon.errors import ConfigError, DimensionError, DomainError, NumericalError
from bicon.kernels import (
    _knn_graph,
    cluster_transition,
    cluster_transition_grad,
    kernel_rows_grad,
    learned_rows,
    softmax_rows_grad,
    supervisory_knn,
    supervisory_labels,
    supervisory_sne,
    validate_distribution,
)
from bicon.model import Adam, ClusterHead, Encoder, FreeEmbedding, features
from bicon.trainers import (
    _cluster_support_pass,
    _collapsed,
    _sub_rows,
    _train,
    cluster_loss,
    kernel_loss,
    resolve_config,
    value_and_grads,
)

DIVS = ("KL", "TV", "JSD", "Hellinger")


def toy_blobs(n=24, d=3, classes=2, seed=0):
    return generate(DatasetSpec(generator="gaussian_blobs", n=n, d=d,
                                classes=classes, separation=8.0, seed=seed))


class TestLossAndGrad:
    def test_two_row_tv_value(self):
        # each row is a one-hot vs uniform pair, TV = 0.5 per row
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        q = np.full((3, 3), 0.5)
        np.fill_diagonal(q, 0.0)
        p3 = np.zeros((3, 3))
        p3[0, 1] = 1.0
        p3[1, 2] = 1.0
        p3[2, 0] = 1.0
        loss, grad = loss_and_grad("TV", p3, q)
        assert loss == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diagonal(grad) == 0.0)

    def test_zero_at_optimum(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(6, 2))
        q = learned_rows(z, KernelSpec("distance", 1.0))
        for div in DIVS:
            loss, _ = loss_and_grad(div, q, q)
            assert abs(loss) <= 1e-10, div

    def test_symmetric_divergences_swap(self):
        rng = np.random.default_rng(3)
        p = learned_rows(rng.normal(size=(5, 2)), KernelSpec("distance", 1.0))
        q = learned_rows(rng.normal(size=(5, 2)), KernelSpec("distance", 1.0))
        for div in ("TV", "JSD", "Hellinger"):
            fwd, _ = loss_and_grad(div, p, q)
            bwd, _ = loss_and_grad(div, q, p)
            assert fwd == pytest.approx(bwd, abs=1e-12), div

    def test_grad_matches_finite_differences_through_kernel(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 2))
        p = supervisory_knn(x, 3)
        spec = KernelSpec("distance", 1.0)
        z0 = rng.normal(size=(6, 2))
        h = 1e-6
        for div in DIVS:
            from bicon.kernels import kernel_rows_grad

            q = learned_rows(z0, spec)
            _, dq = loss_and_grad(div, p, q)
            analytic = kernel_rows_grad(z0, spec, dq)
            numeric = np.zeros_like(z0)
            for idx in np.ndindex(z0.shape):
                stepped = z0.copy()
                stepped[idx] += h
                hi, _ = loss_and_grad(div, p, learned_rows(stepped, spec))
                stepped[idx] -= 2.0 * h
                lo, _ = loss_and_grad(div, p, learned_rows(stepped, spec))
                numeric[idx] = (hi - lo) / (2.0 * h)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5, div

    def test_dimension_mismatch(self):
        p = np.full((3, 3), 0.5)
        np.fill_diagonal(p, 0.0)
        q = np.full((4, 4), 1.0 / 3.0)
        np.fill_diagonal(q, 0.0)
        with pytest.raises(DimensionError):
            loss_and_grad("KL", p, q)


class TestFusedAssemblies:
    """Each training step reuses its forward pass in the backward pass; the
    result must match the public chain, which runs every forward again:
    the softmax steps within roundoff, on instances where the chain's EPS
    floors act nowhere (their forces and values take no floor)."""

    @pytest.mark.parametrize("family", ["distance", "angular"])
    @pytest.mark.parametrize("div", DIVS)
    def test_sne_free_matches_public_chain(self, div, family):
        rng = np.random.default_rng(83)
        p = supervisory_sne(rng.normal(size=(12, 3)), 4.0)
        table = rng.normal(size=(12, 2))
        spec = KernelSpec(family, 1.5)
        q = learned_rows(table, spec)
        loss, dq = loss_and_grad(div, p, q)
        fused_loss, grads = value_and_grads(FreeEmbedding(table), kernel_loss(div, spec), p, table)
        assert floors_inactive(div, p, q)
        assert_close_to_chain(fused_loss, grads, loss, {"embedding": kernel_rows_grad(table, spec, dq)})

    @pytest.mark.parametrize("family", ["distance", "angular"])
    @pytest.mark.parametrize("div", DIVS)
    def test_encoder_matches_public_chain(self, div, family):
        rng = np.random.default_rng(89)
        x = rng.normal(size=(10, 3))
        p = supervisory_labels(np.repeat(np.arange(5), 2))
        enc = Encoder.init("mlp1", 3, 6, 4, rng)
        spec = KernelSpec(family, 1.5)
        z = features(enc, x)
        q = learned_rows(z, spec)
        loss, dq = loss_and_grad(div, p, q)
        want = enc.backward(x, enc.forward(x)[1], kernel_rows_grad(z, spec, dq))
        fused_loss, grads = value_and_grads(enc, kernel_loss(div, spec), p, x)
        assert floors_inactive(div, p, q)
        assert grads.keys() == want.keys()
        assert_close_to_chain(fused_loss, grads, loss, want)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    @pytest.mark.parametrize("family", ["distance", "angular"])
    def test_encoder_kinds_reuse_hidden_layer(self, kind, family):
        # the fused step hands the forward's hidden layer to the backward
        # pass; public backward recomputes it, and the bits must agree
        rng = np.random.default_rng(101)
        x = rng.normal(size=(10, 3))
        p = supervisory_labels(np.repeat(np.arange(5), 2))
        enc = Encoder.init(kind, 3, 6, 4, rng)
        spec = KernelSpec(family, 1.5)
        z = features(enc, x)
        q = learned_rows(z, spec)
        loss, dq = loss_and_grad("TV", p, q)
        want = enc.backward(x, enc.forward(x)[1], kernel_rows_grad(z, spec, dq))
        fused_loss, grads = value_and_grads(enc, kernel_loss("TV", spec), p, x)
        assert floors_inactive("TV", p, q)
        assert grads.keys() == want.keys()
        assert_close_to_chain(fused_loss, grads, loss, want)

    @pytest.mark.parametrize("div", DIVS)
    def test_cluster_matches_public_chain(self, div):
        rng = np.random.default_rng(97)
        x = rng.normal(size=(11, 3))
        p = supervisory_knn(x, 3)
        head = ClusterHead.init(3, 4, rng)
        phi = features(head, x)
        loss, dq = loss_and_grad(div, p, cluster_transition(phi))
        want = head.backward(x, head.forward(x)[1], cluster_transition_grad(phi, dq))
        # as in run_cluster: a shorter batch works in the front of a slab
        # sized for a larger one; the slab's stale contents must not reach
        # the result
        slab = np.full(2 * 16 * 16, np.nan)
        front = slab[:2 * 11 * 11].reshape(2, 11, 11)
        target = (np.flatnonzero(p), p[p > 0])
        first_loss, first = value_and_grads(head, cluster_loss(div), target, x)
        for buffers in (None, np.empty((2, 11, 11)), front, front):
            fused_loss, grads = value_and_grads(head, support_pass_in(div, buffers), target, x)
            assert fused_loss == first_loss
            assert grads.keys() == want.keys()
            for name in want:
                assert np.array_equal(grads[name], first[name]), name
        assert np.isnan(slab[2 * 11 * 11:]).all()
        # the step works on p's support alone, so its sums are taken in
        # another order than the dense chain's
        assert_close_to_dense(first_loss, first, loss, want)


def floors_inactive(div, p, q):
    """Whether the dense chain's EPS floors act nowhere: q >= EPS on p's
    support, and for JSD the mixture (p + q) / 2 >= EPS off the diagonal.
    There the chain's dD/dq is its value's, and a softmax step's forces
    match it within roundoff; the directional check at trained states
    (gradcheck.check_trained) covers the step where they do not."""
    off = ~np.eye(len(p), dtype=bool)
    if div == "JSD" and np.min((p + q)[off]) / 2.0 < EPS:
        return False
    return bool(np.min(q[p > 0]) >= EPS)


def assert_close_to_chain(loss, grads, want_loss, want, loss_floor=0.0, grad_floor=0.0):
    """A softmax step's loss within 1e-13 relative of the dense chain's,
    and its whole gradient, its tensors taken together (a distance
    kernel's output bias has a gradient of roundoff alone), within 1e-12
    of the largest entry of the chain's; each plus an absolute floor."""
    assert abs(loss - want_loss) <= 1e-13 * abs(want_loss) + loss_floor
    got = np.concatenate([grads[name].ravel() for name in want])
    ref = np.concatenate([want[name].ravel() for name in want])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)) + grad_floor


def support_pass_in(divergence, buffers):
    """A cluster step's loss that runs _cluster_support_pass in the given
    buffers, as cluster_loss runs it in its own slab."""
    return lambda target, phi: _cluster_support_pass(divergence, *target, phi, buffers)


def assert_close_to_dense(loss, grads, want_loss, want, loss_floor=0.0, grad_floor=0.0):
    """A cluster step's loss within 1e-13 relative of the dense chain's,
    and its whole gradient, its tensors taken together, within 1e-10 of
    the largest entry of the dense one; each plus an absolute floor."""
    assert abs(loss - want_loss) <= 1e-13 * abs(want_loss) + loss_floor
    got = np.concatenate([grads[name].ravel() for name in want])
    ref = np.concatenate([want[name].ravel() for name in want])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)) + grad_floor


def dense_step(divergence, p, z, spec):
    """Loss, q and embedding gradient of one step built through N x N
    arrays: learned_rows, loss_and_grad, the softmax backward t and
    s = t + t.T. The reference for the row-blocked pass."""
    q = learned_rows(z, spec)
    loss, g = loss_and_grad(divergence, p, q)
    # the pass's own t, so that only blocking and the split of s can differ:
    # where the softmax saturates, t is a cancellation whose last bits depend
    # on how the row sum of g q is taken
    t = softmax_rows_grad(q, g)
    s = t + t.T
    if spec.family == "angular":
        norms = np.sqrt(np.sum(z * z, axis=1, keepdims=True))
        u = z / norms
        du = spec.scale * (s @ u)
        return loss, q, (du - np.sum(du * u, axis=1, keepdims=True) * u) / norms
    return loss, q, -2.0 * spec.scale * (s.sum(axis=1, keepdims=True) * z - s @ z)


def step_instance(n, d, sparse, seed, scale=None):
    """A target p (k-nearest-neighbour rows, with zeros, or dense softmax
    rows) and an embedding z of n points in d dimensions, whose entries
    have standard deviation scale (by default 0.3, 1 or 3)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    p = supervisory_knn(x, max(1, n // 3)) if sparse else learned_rows(x, KernelSpec("distance", 1.0))
    return p, rng.normal(size=(n, d)) * (scale or rng.choice([0.3, 1.0, 3.0]))


@st.composite
def knn_batches(draw):
    """N points of width 1 to 16 with exact duplicate rows (distance
    ties), any valid k, and an epoch's shuffled batches of 4 to N points."""
    n, d = draw(st.integers(5, 200)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    distinct = rng.normal(size=(draw(st.integers(1, n)), d))
    if draw(st.booleans()):
        distinct = np.round(distinct)
    x = distinct[rng.integers(0, distinct.shape[0], size=n)]
    k, size = draw(st.integers(1, n - 1)), draw(st.integers(4, n))
    perm = rng.permutation(n)
    batches = [perm[s:s + size] for s in range(0, n, size) if n - s >= 4]
    return x, k, batches


class TestBlockedStep:
    """The step's one row-blocked pass, with the block shrunk to a few rows
    so that several blocks, the last one shorter, cover the points; at the
    fixture sizes one block holds every row."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(3, 80), d=st.integers(1, 4), block=st.integers(2, 7),
           family=st.sampled_from(["distance", "angular"]), div=st.sampled_from(DIVS),
           sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, n, d, block, family, div, sparse, seed):
        import bicon.kernels
        import bicon.trainers

        assume(n % block)
        p, z = step_instance(n, d, sparse, seed)
        spec = KernelSpec(family, 2.5)
        seen = np.full((n, n), np.nan)
        blocks = []
        real_pass = bicon.trainers._kernel_rows_pass

        def recording(z, spec, fill, buffers=None):
            def fill_and_record(start, q, F, w, lse):
                seen[start:start + len(q)] = q
                blocks.append(len(q))
                return fill(start, q, F, w, lse)
            return real_pass(z, spec, fill_and_record, buffers)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bicon.trainers, "_kernel_rows_pass", recording)
            whole_loss, whole = value_and_grads(FreeEmbedding(z), kernel_loss(div, spec), p, z)
            assert blocks == [n]
            blocks.clear()
            mp.setattr(bicon.kernels, "_STEP_FLOATS", block * n)
            loss, grads = value_and_grads(FreeEmbedding(z), kernel_loss(div, spec), p, z)
        assert blocks == [block] * (n // block) + [n % block]
        # blocking changes only how t's products with [z, 1] are summed
        assert loss == whole_loss
        assert np.max(np.abs(grads["embedding"] - whole["embedding"])) <= 1e-12 * np.max(np.abs(whole["embedding"]))
        want_loss, want_q, want_grad = dense_step(div, p, z, spec)
        assert np.array_equal(seen, want_q)
        if not floors_inactive(div, p, want_q):
            event("an EPS floor of the dense chain acts")
            return
        # where a row saturates, a tiny gradient is the difference of forces
        # of order 1, each rounded: a floor of their roundoff
        assert_close_to_chain(loss, grads, want_loss, {"embedding": want_grad},
                              loss_floor=1e-15, grad_floor=1e-15 * spec.scale * np.max(np.abs(z)))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 7), d=st.integers(1, 3), block=st.integers(1, 3),
           family=st.sampled_from(["distance", "angular"]), div=st.sampled_from(DIVS),
           sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_gradcheck_random_small_shapes(self, n, d, block, family, div, sparse, seed):
        import bicon.kernels
        from bicon.gradcheck import TOL, _fd_step, fd_grad, rel_error

        # small enough that no q falls below the EPS floor, where the value stops following q
        p, z = step_instance(n, d, sparse, seed, scale=0.5)
        spec = KernelSpec(family, 1.25)
        h = _fd_step(div, p, learned_rows(z, spec))
        assume(h is not None)
        if family == "angular":
            # the kernel jumps where a row of z crosses 0 (in one dimension its
            # gradient is 0 elsewhere): no move of 2h may reach it
            h = min(h, np.sqrt(np.sum(z * z, axis=1)).min() / 4.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bicon.kernels, "_STEP_FLOATS", block * n)
            _, grads = value_and_grads(FreeEmbedding(z), kernel_loss(div, spec), p, z)
            numeric = fd_grad(lambda: value_and_grads(FreeEmbedding(z), kernel_loss(div, spec), p, z)[0], z, h)
        assert rel_error(grads["embedding"], numeric) <= TOL

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(4, 7), d=st.integers(2, 4), block=st.integers(1, 3),
           kind=st.sampled_from(["linear", "mlp1"]), family=st.sampled_from(["distance", "angular"]),
           div=st.sampled_from(DIVS), target=st.sampled_from(["sne", "supcon"]),
           sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # two draws where a q on p's support fell below EPS, which a floored KL
    # step failed with rel_error 0.0182 and 0.00237
    @example(n=7, d=2, block=2, kind="linear", family="distance", div="KL", target="supcon",
             sparse=False, seed=293211095)
    @example(n=6, d=2, block=1, kind="linear", family="distance", div="KL", target="sne",
             sparse=False, seed=2495074695)
    def test_encoder_gradcheck_random_small_shapes(self, n, d, block, kind, family, div, target,
                                                   sparse, seed):
        # the parametric SNE step (kNN or softmax target rows) and the supcon
        # step (shared-label rows, every class of two or more points)
        import bicon.kernels
        from bicon.gradcheck import TOL, _fd_step, fd_grad, rel_error

        p, x = step_instance(n, d, sparse, seed, scale=0.5)
        rng = np.random.default_rng(seed)
        if target == "supcon":
            p = supervisory_labels(rng.permutation(np.minimum(np.arange(n) // 2, n // 2 - 1)))
        enc = Encoder.init(kind, d, 4, 3, rng)
        spec = KernelSpec(family, 1.25)
        h = _fd_step(div, p, learned_rows(features(enc, x), spec))
        assume(h is not None)
        value = lambda: value_and_grads(enc, kernel_loss(div, spec), p, x)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bicon.kernels, "_STEP_FLOATS", block * n)
            _, grads = value_and_grads(enc, kernel_loss(div, spec), p, x)
            for name, tensor in enc.params().items():
                assert rel_error(grads[name], fd_grad(value, tensor, h)) <= TOL, name

    def test_one_step_at_2000_points_peaks_under_half_a_dense_matrix(self):
        n = 2000
        rng = np.random.default_rng(5)
        p = learned_rows(rng.normal(size=(n, 10)), KernelSpec("distance", 1.0))
        table = 0.3 * rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            value_and_grads(FreeEmbedding(table), kernel_loss("TV", KernelSpec("distance", 4.0)), p, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2

    def test_kept_loss_allocates_its_buffers_once(self):
        # a run keeps one loss: its second step reuses the first's buffers
        n = 300
        rng = np.random.default_rng(7)
        p = learned_rows(rng.normal(size=(n, 10)), KernelSpec("distance", 1.0))
        table = 0.3 * rng.normal(size=(n, 2))
        model, loss = FreeEmbedding(table), kernel_loss("TV", KernelSpec("distance", 4.0))
        value_and_grads(model, loss, p, table)
        tracemalloc.start()
        try:
            value_and_grads(model, loss, p, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_is_a_dimension_error(self, n):
        # the loss sizes its buffers before the pass checks the shape
        loss = kernel_loss("KL", KernelSpec("distance", 1.0))
        with pytest.raises(DimensionError, match="N >= 2"):
            loss(np.zeros((n, n)), np.zeros((n, 2)))

    @pytest.mark.parametrize("div", DIVS)
    @pytest.mark.parametrize("scale, big", [(0.1, 1e154), (1e-300, 1e160), (2.5, 1e154)])
    def test_overflowing_distances_raise_at_any_scale(self, div, scale, big):
        # the squared distance overflows before the scale shrinks it, so a
        # score is -inf although C times the distance bound is finite
        z = np.array([[big], [-big], [0.0]])
        loss = kernel_loss(div, KernelSpec("distance", scale))
        with pytest.raises(DomainError, match="non-finite"):
            loss(np.full((3, 3), 0.5) - 0.5 * np.eye(3), z)


class TestTrainedStates:
    def test_steps_are_their_losses_gradients(self):
        # the SNE fixture and a supcon recipe after training, where a step
        # that floored q at EPS was not its loss's gradient (KL 3.4e-3,
        # Hellinger 4.7e-5 on the SNE fixture at 200 epochs)
        from bicon.gradcheck import TOL, check_trained

        results = dict(check_trained(seed=0))
        assert {name.split("/")[1] for name in results} == {"KL", "JSD", "Hellinger"}
        assert {name.split("/")[0] for name in results} == {"sne", "supcon"}
        assert {name: err for name, err in results.items() if not err <= TOL} == {}

    @pytest.fixture(scope="class")
    def blobs_600(self):
        x = generate(DatasetSpec("gaussian_blobs", n=600, d=10, classes=3, separation=8.0, seed=0)).features
        return supervisory_sne(x, 30.0), x

    # TV is left out, as in check_trained: pairs cross its kink within the
    # stencil's reach (3.5e-6 distance, 1.8e-4 angular)
    @pytest.mark.parametrize("div", ["KL", "JSD", "Hellinger"])
    @pytest.mark.parametrize("family, scale", [("distance", 4.0), ("angular", 10.0)])
    def test_two_real_size_blocks_give_the_loss_gradient(self, blobs_600, div, family, scale):
        # at N = 600 the pass runs its real blocks of 2**18 // 600 = 436 rows, then 164
        import bicon.kernels
        from bicon.gradcheck import TOL, directional_error

        p, x = blobs_600
        assert -(-600 // (bicon.kernels._STEP_FLOATS // 600)) == 2
        rng = np.random.default_rng(0)
        model = FreeEmbedding.init(600, 2, rng, scale=0.3)
        assert directional_error(model, kernel_loss(div, KernelSpec(family, scale)), p, x, rng) <= TOL


def scatter(target, b):
    """The b x b rows of a cluster batch target (S, p_S)."""
    p = np.zeros((b, b))
    p.flat[target[0]] = target[1]
    return p


class TestClusterStep:
    """The cluster step's one pass: the overlaps, then the divergence and
    the backward on the target's support, in two batch x batch buffers."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 9), d=st.integers(1, 3), clusters=st.integers(2, 4),
           div=st.sampled_from(DIVS), sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # the head's gradients here are 7e-7 and 5e-6, where two-point differences
    # at a step of 1e-6 carry roundoff of that order
    @example(n=3, d=1, clusters=2, div="KL", sparse=False, seed=2165037)
    # here 1e-8 and 4e-8, which need the tenfold step
    @example(n=8, d=1, clusters=2, div="Hellinger", sparse=True, seed=966965686)
    def test_gradcheck_random_small_shapes(self, n, d, clusters, div, sparse, seed):
        from bicon.gradcheck import TOL, _fd_step, fd_grad, rel_error

        p, x = step_instance(n, d, sparse, seed, scale=0.5)
        head = ClusterHead.init(d, clusters, np.random.default_rng(seed))
        h = _fd_step(div, p, cluster_transition(features(head, x)))
        assume(h is not None)
        target = (np.flatnonzero(p), p[p > 0])
        _, grads = value_and_grads(head, support_pass_in(div, np.empty((2, n, n))), target, x)
        value = lambda: value_and_grads(head, cluster_loss(div), target, x)[0]
        # q has no pole here and moves slowly (a parameter move of 2h moved it
        # by at most 0.34h over 3,000 random instances), so the step can be ten
        # times larger, where the roundoff beside gradients just over 1e-8, the
        # size below which rel_error counts them as zero, stays under TOL
        for name, tensor in head.params().items():
            assert rel_error(grads[name], fd_grad(value, tensor, 10.0 * h)) <= TOL, name

    @settings(max_examples=100, deadline=None)
    @given(inst=knn_batches(), clusters=st.integers(2, 6), div=st.sampled_from(DIVS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_chain_on_batch_targets(self, inst, clusters, div, seed):
        # run_cluster's targets, rows with no neighbour in the batch uniform,
        # in the front of a slab sized for the first batch, and through one
        # kept loss, as run_cluster keeps it across an epoch's batches
        x, k, batches = inst
        nbrs = _knn_graph(x, k)
        pos = np.full(x.shape[0], -1, dtype=np.intp)
        head = ClusterHead.init(x.shape[1], clusters, np.random.default_rng(seed))
        slab = np.empty(2 * len(batches[0]) ** 2)
        kept = cluster_loss(div)
        for idx in batches:
            b = len(idx)
            slab.fill(np.nan)
            front = slab[:2 * b * b].reshape(2, b, b)
            target, xb = _sub_rows(nbrs, idx, pos), x[idx]
            p = scatter(target, b)
            phi = features(head, xb)
            q = cluster_transition(phi)
            if div == "TV" and np.any((p == 0.0) & (q == 0.0) & ~np.eye(b, dtype=bool)):
                # the dense chain's derivative there is sign(0) / 2 = 0, the
                # step's 1/2; the head's gradient is the same under either,
                # since the difference reaches it through phi_i * phi_j = 0
                event("TV with an off-support q of exactly 0")
            loss, dq = loss_and_grad(div, p, q)
            want = head.backward(xb, head.forward(xb)[1], cluster_transition_grad(phi, dq))
            first_loss, first = value_and_grads(head, cluster_loss(div), target, xb)
            for buffers in (np.empty((2, b, b)), front):
                fused_loss, grads = value_and_grads(head, support_pass_in(div, buffers), target, xb)
                assert fused_loss == first_loss
                for name in want:
                    assert np.array_equal(grads[name], first[name]), name
            kept_loss, kept_grads = value_and_grads(head, kept, target, xb)
            assert kept_loss == first_loss
            for name in want:
                assert np.array_equal(kept_grads[name], first[name]), name
            # where p = q the dense loss and gradient are themselves roundoff,
            # and the step's 1 - sum_S q is a few ulps of 1
            assert_close_to_dense(first_loss, first, loss, want, loss_floor=1e-15, grad_floor=1e-14)

    @pytest.mark.parametrize("div", DIVS)
    def test_one_step_at_256_points_peaks_under_half_a_batch_matrix(self, div):
        b = 256
        rng = np.random.default_rng(11)
        x = rng.normal(size=(b, 64))
        p = supervisory_knn(x, 30)
        target = (np.flatnonzero(p), p[p > 0])
        head = ClusterHead.init(64, 10, rng)
        # a kept loss allocates its slab on its first call
        loss = cluster_loss(div)
        value_and_grads(head, loss, target, x)
        tracemalloc.start()
        try:
            value_and_grads(head, loss, target, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * b * b / 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("div", DIVS)
    def test_non_finite_batch_aborts_with_its_step(self, div, bad):
        # the step does not check phi; a non-finite batch still ends in a
        # NumericalError that carries the step where it happened
        rng = np.random.default_rng(17)
        x = rng.normal(size=(12, 3))
        target = _sub_rows(_knn_graph(x, 3), np.arange(12), np.full(12, -1, dtype=np.intp))
        poisoned = x.copy()
        poisoned[4, 1] = bad
        cfg = resolve_config({"task": "cluster", "divergence": div, "clusters": 3, "epochs": 1})
        head = ClusterHead.init(3, 3, rng)
        batches = lambda: [(target, x), (target, x), (target, poisoned)]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError) as err:
            _train(cfg, head, batches, cluster_loss(div), x, None, ())
        assert (err.value.step, err.value.divergence) == (2, div)

    def test_target_of_a_larger_batch_is_a_dimension_error(self):
        # the gathers clip out-of-range indices, so the step checks S's last
        rng = np.random.default_rng(13)
        x = rng.normal(size=(12, 3))
        target = _sub_rows(_knn_graph(x, 3), np.arange(12), np.full(12, -1, dtype=np.intp))
        head = ClusterHead.init(3, 4, rng)
        with pytest.raises(DimensionError, match="outside the 11 x 11 batch"):
            value_and_grads(head, cluster_loss("KL"), target, x[:11])


class TestResolveConfig:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            resolve_config({"task": "sne", "divergence": "KL", "learning_rate": 0.1})

    def test_task_defaults(self):
        cfg = resolve_config({"task": "supcon", "divergence": "KL", "kernel": "angular"})
        assert cfg.scale == 10.0
        assert cfg.out_dim == 16
        cfg = resolve_config({"task": "sne", "divergence": "TV"})
        assert cfg.kernel == "distance"
        assert cfg.out_dim == 2

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError, match=">= 4"):
            resolve_config({"task": "supcon", "divergence": "KL", "batch_size": 2})

    def test_cluster_needs_clusters(self):
        with pytest.raises(ConfigError):
            resolve_config({"task": "cluster", "divergence": "KL"})

    def test_bad_init_scale(self):
        with pytest.raises(ConfigError, match="init_scale"):
            resolve_config({"task": "sne", "divergence": "KL", "init_scale": 0.0})


class TestRunSne:
    def test_lr_zero_keeps_table(self):
        ds = toy_blobs(n=16, d=2)
        cfg = {"task": "sne", "divergence": "KL", "lr": 0.0, "epochs": 3,
               "perplexity": 5.0, "seed": 0}
        # out_dim matches the input width, so the table starts from x itself
        report, emb = run_sne(cfg, ds.features)
        np.testing.assert_array_equal(emb, ds.features)
        assert report.losses[0] == pytest.approx(report.losses[-1], abs=1e-12)

    def test_deterministic(self):
        ds = toy_blobs()
        cfg = {"task": "sne", "divergence": "Hellinger", "lr": 0.05,
               "epochs": 5, "perplexity": 6.0, "seed": 3}
        a_report, a = run_sne(cfg, ds.features)
        b_report, b = run_sne(cfg, ds.features)
        np.testing.assert_array_equal(a, b)
        assert a_report.losses == b_report.losses

    def test_loss_decreases(self):
        ds = toy_blobs(n=30)
        for div in DIVS:
            cfg = {"task": "sne", "divergence": div, "lr": 0.05, "epochs": 60,
                   "perplexity": 8.0, "seed": 1}
            report, _ = run_sne(cfg, ds.features)
            assert report.losses[-1] < report.losses[0], div

    def test_parametric_mode_trains_encoder(self):
        ds = toy_blobs(n=20)
        cfg = {"task": "sne", "divergence": "TV", "lr": 0.01, "epochs": 4,
               "perplexity": 5.0, "mode": "parametric", "encoder": "mlp1",
               "hidden": 8, "seed": 0}
        report, emb = run_sne(cfg, ds.features)
        assert emb.shape == (20, 2)
        assert report.model.kind == "mlp1"
        np.testing.assert_allclose(emb, features(report.model, ds.features), atol=0)

    def test_snapshot_schedule(self):
        ds = toy_blobs(n=16, d=2)
        cfg = {"task": "sne", "divergence": "KL", "lr": 0.01, "epochs": 7,
               "perplexity": 4.0, "eval_every": 3, "seed": 0}
        report, _ = run_sne(cfg, ds.features, labels=ds.labels)
        assert [s for s, _ in report.snapshots] == [2, 5, 6]

    def test_tv_500_steps_separates_three_blobs(self):
        # threshold calibrated by reference runs on this exact geometry
        ds = generate(DatasetSpec(generator="gaussian_blobs", n=300, d=10,
                                  classes=3, separation=8.0, seed=0))
        cfg = {"task": "sne", "divergence": "TV", "scale": 4.0, "perplexity": 60.0,
               "lr": 0.1, "epochs": 500, "init_scale": 0.3, "seed": 0}
        report, emb = run_sne(cfg, ds.features, labels=ds.labels)
        assert np.all(np.isfinite(report.losses))
        assert emb.shape == (300, 2)
        assert report.snapshots[-1][1]["knn"] >= 0.95


    @pytest.mark.parametrize("task", ["cluster", "supcon"])
    def test_rejects_other_task(self, task):
        ds = toy_blobs(n=16)
        with pytest.raises(ConfigError, match=f"run_sne got a config for task '{task}'"):
            run_sne({"task": task, "divergence": "TV", "clusters": 2, "perplexity": 5.0, "epochs": 1},
                    ds.features)

    @pytest.mark.parametrize("mode", ["free", "parametric"])
    def test_one_distance_pass_per_step(self, monkeypatch, mode):
        import bicon.evaluation
        import bicon.kernels

        calls = []
        inside = []
        step_blocks = []
        original = bicon.kernels.squared_distances
        add_squares = bicon.kernels._add_squares

        def counted(*args, **kwargs):
            calls.append(1)
            inside.append(1)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        def counted_rows(at, bt, out, tmp):
            # the one distance kernel; outside squared_distances only the step runs it
            if not inside:
                step_blocks.append(out.shape)
            return add_squares(at, bt, out, tmp)

        monkeypatch.setattr(bicon.kernels, "squared_distances", counted)
        monkeypatch.setattr(bicon.evaluation, "squared_distances", counted)
        monkeypatch.setattr(bicon.kernels, "_add_squares", counted_rows)
        ds = toy_blobs(n=16, d=3)
        cfg = {"task": "sne", "divergence": "JSD", "lr": 0.01, "epochs": 7,
               "perplexity": 4.0, "eval_every": 3, "mode": mode, "hidden": 4, "seed": 0}
        report, _ = run_sne(cfg, ds.features, labels=ds.labels)
        assert len(report.snapshots) == 3
        # each step: the distances of N rows to all N points, once
        assert all(cols == 16 for _, cols in step_blocks)
        assert sum(rows for rows, _ in step_blocks) == 7 * 16
        # one for the target rows, knn and silhouette per snapshot
        assert len(calls) == 1 + 2 * 3


class TestRunCluster:
    def test_lr_zero_constant_loss(self):
        # full-batch so every step sees the same rows; mini-batch steps see
        # different sub-matrices and legitimately report different losses
        ds = toy_blobs(n=20, classes=2)
        cfg = {"task": "cluster", "divergence": "JSD", "clusters": 2, "k": 3,
               "lr": 0.0, "epochs": 3, "batch_size": 20, "seed": 0}
        report, probs = run_cluster(cfg, ds.features)
        assert np.ptp(report.losses) <= 1e-12
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_lr_zero_keeps_params(self):
        ds = toy_blobs(n=20, classes=2)
        cfg = {"task": "cluster", "divergence": "JSD", "clusters": 2, "k": 3,
               "lr": 0.0, "epochs": 3, "batch_size": 10, "seed": 0}
        long_report, _ = run_cluster(cfg, ds.features)
        short_report, _ = run_cluster({**cfg, "epochs": 1}, ds.features)
        for key, tensor in long_report.model.params().items():
            np.testing.assert_array_equal(tensor, short_report.model.params()[key])

    def test_deterministic(self):
        ds = toy_blobs(n=24, classes=3)
        cfg = {"task": "cluster", "divergence": "KL", "clusters": 3, "k": 4,
               "lr": 0.05, "epochs": 4, "batch_size": 12, "seed": 5}
        a_report, a = run_cluster(cfg, ds.features)
        b_report, b = run_cluster(cfg, ds.features)
        np.testing.assert_array_equal(a, b)
        assert a_report.losses == b_report.losses

    def test_one_hot_blocks_are_optimal(self):
        # when assignments match the kNN blocks exactly, loss is ~0 and
        # stays there
        base = np.array([[0.0, 0.0], [30.0, 0.0]])
        x = np.repeat(base, 4, axis=0) + 0.01 * np.random.default_rng(7).normal(size=(8, 2))
        p = supervisory_knn(x, 3)
        from bicon.kernels import cluster_transition

        phi = np.zeros((8, 2))
        phi[:4, 0] = 1.0
        phi[4:, 1] = 1.0
        q = cluster_transition(phi)
        for div in DIVS:
            loss, _ = loss_and_grad(div, p, q)
            assert loss <= 1e-6, div

    def test_learns_separated_blobs(self):
        ds = toy_blobs(n=60, d=4, classes=2, seed=2)
        cfg = {"task": "cluster", "divergence": "KL", "clusters": 2, "k": 5,
               "lr": 0.05, "epochs": 30, "batch_size": 30, "seed": 0,
               "eval_every": 30}
        report, probs = run_cluster(cfg, ds.features, labels=ds.labels)
        assert report.snapshots[-1][1]["hungarian"] >= 0.95


    def test_peak_memory_below_dense_target(self):
        # the kNN target is held as N x k indices: no N x N array at any point
        n = 2000
        ds = generate(DatasetSpec(generator="gaussian_blobs", n=n, d=8, classes=4,
                                  separation=8.0, seed=0))
        cfg = {"task": "cluster", "divergence": "TV", "clusters": 4, "k": 10,
               "epochs": 1, "batch_size": 128, "seed": 0}
        tracemalloc.start()
        try:
            run_cluster(cfg, ds.features, labels=ds.labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4


class TestGradClip:
    def test_adam_gets_tensors_over_the_limit_scaled_to_it(self, monkeypatch):
        # grad_clip scales each tensor whose norm exceeds it to that norm and
        # leaves the others as they are; the report keeps the norms before
        import bicon.trainers

        made, taken = [], []
        real_step, real_adam = bicon.trainers.value_and_grads, Adam.step

        def making(model, loss, p, x):
            value, grads = real_step(model, loss, p, x)
            made.append({name: g.copy() for name, g in grads.items()})
            return value, grads

        def taking(self, grads):
            taken.append({name: g.copy() for name, g in grads.items()})
            return real_adam(self, grads)

        monkeypatch.setattr(bicon.trainers, "value_and_grads", making)
        monkeypatch.setattr(Adam, "step", taking)
        limit = 0.5
        cfg = {"task": "cluster", "divergence": "KL", "clusters": 3, "k": 4, "lr": 0.05,
               "epochs": 4, "batch_size": 12, "seed": 5, "grad_clip": limit}
        report, _ = run_cluster(cfg, toy_blobs(n=24, classes=3).features)
        assert len(made) == len(taken) == len(report.losses) == 8
        over = under = 0
        for before, after in zip(made, taken):
            for name, g in before.items():
                norm = np.sqrt(np.sum(g * g))
                if norm > limit:
                    over += 1
                    assert np.sqrt(np.sum(after[name] ** 2)) == pytest.approx(limit, rel=1e-14)
                    np.testing.assert_allclose(after[name], g * (limit / norm), rtol=1e-14, atol=0)
                else:
                    under += 1
                    assert np.array_equal(after[name], g), name
        assert over and under
        assert report.grad_norms == {name: [float(np.sqrt(np.sum(s[name] ** 2))) for s in made]
                                     for name in ("W", "b")}


def dense_sub_rows(p, idx):
    """The batch's kNN target from the dense kNN rows: each row's
    neighbours in the batch weighted 1 / their count, or all other points
    for a row with none, as the reference for _sub_rows."""
    sub = (p[np.ix_(idx, idx)] > 0.0).astype(float)
    empty = np.flatnonzero(~sub.any(axis=1))
    sub[empty] = 1.0
    sub[empty, empty] = 0.0
    return sub / sub.sum(axis=1, keepdims=True)


class TestSubRows:
    @settings(max_examples=200, deadline=None)
    @given(knn_batches())
    def test_scatter_matches_dense_reference(self, inst):
        x, k, batches = inst
        nbrs, p = _knn_graph(x, k), supervisory_knn(x, k)
        pos = np.full(x.shape[0], -1, dtype=np.intp)
        for idx in batches:
            want = dense_sub_rows(p, idx)
            support, weights = _sub_rows(nbrs, idx, pos)
            assert np.array_equal(support, np.flatnonzero(want))
            assert np.array_equal(weights, want.flat[support])
            assert np.all(pos == -1)

    @settings(max_examples=100, deadline=None)
    @given(knn_batches())
    def test_rows_are_transition_rows(self, inst):
        # run_cluster trains on these targets without checking them
        x, k, batches = inst
        nbrs = _knn_graph(x, k)
        pos = np.full(x.shape[0], -1, dtype=np.intp)
        for idx in batches:
            b = len(idx)
            support, weights = _sub_rows(nbrs, idx, pos)
            assert np.all(pos == -1)
            assert np.all(np.diff(support) > 0)
            assert np.all(support % (b + 1) != 0)
            validate_distribution(scatter((support, weights), b))

    def test_one_target_at_256_points_peaks_under_a_tenth_of_a_batch_matrix(self):
        b, k = 256, 30
        x = np.random.default_rng(17).normal(size=(2000, 8))
        nbrs = _knn_graph(x, k)
        pos = np.full(x.shape[0], -1, dtype=np.intp)
        idx = np.random.default_rng(19).permutation(x.shape[0])[:b]
        tracemalloc.start()
        try:
            _sub_rows(nbrs, idx, pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * b * b / 10


class TestRunSupcon:
    def test_lr_zero_keeps_params(self):
        # per-step losses still vary with batch composition, so the frozen
        # state is what lr = 0 guarantees here
        ds = toy_blobs(n=24, classes=2)
        cfg = {"task": "supcon", "divergence": "KL", "kernel": "angular",
               "lr": 0.0, "epochs": 3, "batch_size": 12, "hidden": 6,
               "out_dim": 4, "seed": 0}
        report, _ = run_supcon(cfg, ds.features, ds.labels)
        short_report, _ = run_supcon({**cfg, "epochs": 1}, ds.features, ds.labels)
        for key, tensor in report.model.params().items():
            np.testing.assert_array_equal(tensor, short_report.model.params()[key])

    def test_deterministic(self):
        ds = toy_blobs(n=32, classes=2, seed=4)
        cfg = {"task": "supcon", "divergence": "TV", "kernel": "distance",
               "lr": 0.01, "epochs": 3, "batch_size": 16, "hidden": 8,
               "out_dim": 4, "seed": 9}
        a_report, _ = run_supcon(cfg, ds.features, ds.labels)
        b_report, _ = run_supcon(cfg, ds.features, ds.labels)
        np.testing.assert_array_equal(features(a_report.model, ds.features), features(b_report.model, ds.features))
        assert a_report.losses == b_report.losses

    def test_batches_are_class_balanced(self):
        # singleton classes in a batch would raise inside supervisory_labels,
        # so surviving all epochs is evidence of balance
        ds = toy_blobs(n=40, classes=4, seed=6)
        cfg = {"task": "supcon", "divergence": "JSD", "kernel": "distance",
               "lr": 0.01, "epochs": 4, "batch_size": 8, "hidden": 6,
               "out_dim": 3, "seed": 1}
        report, _ = run_supcon(cfg, ds.features, ds.labels)
        assert len(report.losses) > 0
        assert report.collapsed is False

    @pytest.mark.parametrize("series, window, collapsed", [
        # arms at 0.8 >= 3 * chance, then the 3-snapshot mean falls to 0.33 < 1.5 * chance
        ([0.8, 0.8, 0.8, 0.1, 0.1, 0.1], 3, True),
        # under the trip level throughout, but never armed
        ([0.5, 0.3, 0.2, 0.1], 3, False),
        # armed; one dip to 0.1 averages to 0.57 over the window
        ([0.8, 0.8, 0.8, 0.1, 0.8], 3, False),
        # the same dip trips a window of 1
        ([0.8, 0.8, 0.8, 0.1, 0.8], 1, True),
    ])
    def test_collapse_rule_on_hand_series(self, series, window, collapsed):
        # chance 0.25 with the default thresholds: arm at 0.75, trip under 0.375
        assert _collapsed(series, 0.25, 3.0, 1.5, window) is collapsed

    def test_improves_knn(self):
        ds = toy_blobs(n=80, d=6, classes=2, seed=8)
        cfg = {"task": "supcon", "divergence": "KL", "kernel": "angular",
               "lr": 1e-3, "epochs": 6, "batch_size": 20, "hidden": 16,
               "out_dim": 4, "seed": 0}
        report, _ = run_supcon(cfg, ds.features, ds.labels)
        assert report.snapshots[-1][1]["knn"] >= 0.9


class TestAbortPaths:
    def test_overflow_aborts_with_context(self):
        ds = toy_blobs(n=20, d=2)
        cfg = {"task": "sne", "divergence": "KL", "lr": 1e155, "epochs": 10,
               "perplexity": 5.0, "seed": 0}
        with pytest.raises(NumericalError) as err:
            run_sne(cfg, ds.features)
        assert err.value.step is not None
        assert err.value.divergence == "KL"

    def test_labels_required_for_supcon(self):
        ds = toy_blobs(n=16)
        cfg = {"task": "supcon", "divergence": "KL", "lr": 0.01, "epochs": 1,
               "batch_size": 8, "seed": 0}
        with pytest.raises(Exception):
            run_supcon(cfg, ds.features, None)


class TestGradNormSeries:
    def test_constant_norms_ratio_one(self):
        ds = toy_blobs(n=16, d=2)
        cfg = {"task": "sne", "divergence": "KL", "lr": 0.0, "epochs": 4,
               "perplexity": 4.0, "seed": 0}
        report, _ = run_sne(cfg, ds.features)
        stats = grad_norm_series(report, window=4)["embedding"]
        assert stats.ratio == pytest.approx(1.0)

    def test_hand_series(self):
        from bicon.trainers import TrainReport

        report = TrainReport(
            losses=[0.0] * 4,
            grad_norms={"w": [1.0, 1.0, 10.0, 1.0]},
            snapshots=[],
            collapsed=False,
            config=None,
            model=None,
        )
        stats = grad_norm_series(report, window=4)["w"]
        assert stats.max == pytest.approx(10.0)
        assert stats.median == pytest.approx(1.0)
        assert stats.ratio == pytest.approx(10.0)

    def test_window_truncates(self):
        from bicon.trainers import TrainReport

        report = TrainReport(
            losses=[0.0] * 6,
            grad_norms={"w": [1.0, 2.0, 4.0, 100.0, 100.0, 100.0]},
            snapshots=[],
            collapsed=False,
            config=None,
            model=None,
        )
        stats = grad_norm_series(report, window=3)["w"]
        assert stats.max == pytest.approx(4.0)

    @pytest.mark.parametrize("window", [0, -2])
    def test_window_below_one_rejected(self, window):
        from bicon.trainers import TrainReport

        report = TrainReport(
            losses=[0.0] * 4,
            grad_norms={"w": [1.0, 2.0, 4.0, 8.0]},
            snapshots=[],
            collapsed=False,
            config=None,
            model=None,
        )
        with pytest.raises(DomainError, match="window must be >= 1"):
            grad_norm_series(report, window=window)

    def test_empty_report_rejected(self):
        from bicon.trainers import TrainReport

        report = TrainReport(losses=[], grad_norms={}, snapshots=[],
                             collapsed=False, config=None, model=None)
        with pytest.raises(DimensionError):
            grad_norm_series(report)
