"""Training engines: loss assembly, determinism, optima, and abort paths."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from bicon.errors import ConfigError, DimensionError, DomainError, NumericalError
from bicon.kernels import (
    _knn_graph,
    cluster_transition,
    cluster_transition_grad,
    kernel_rows_grad,
    learned_rows,
    supervisory_knn,
    supervisory_labels,
    supervisory_sne,
)
from bicon.model import ClusterHead, Encoder, backward, forward, head_backward, head_forward
from bicon.trainers import (
    _collapsed,
    _sub_rows,
    cluster_value_and_grads,
    encoder_value_and_grads,
    resolve_config,
    sne_free_value_and_grads,
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
    result must equal the public chain, which runs every forward again."""

    @pytest.mark.parametrize("family", ["distance", "angular"])
    @pytest.mark.parametrize("div", DIVS)
    def test_sne_free_matches_public_chain(self, div, family):
        rng = np.random.default_rng(83)
        p = supervisory_sne(rng.normal(size=(12, 3)), 4.0)
        table = rng.normal(size=(12, 2))
        spec = KernelSpec(family, 1.5)
        loss, dq = loss_and_grad(div, p, learned_rows(table, spec))
        fused_loss, grads = sne_free_value_and_grads(div, p, table, spec)
        assert fused_loss == loss
        assert np.array_equal(grads["embedding"], kernel_rows_grad(table, spec, dq))

    @pytest.mark.parametrize("family", ["distance", "angular"])
    @pytest.mark.parametrize("div", DIVS)
    def test_encoder_matches_public_chain(self, div, family):
        rng = np.random.default_rng(89)
        x = rng.normal(size=(10, 3))
        p = supervisory_labels(np.repeat(np.arange(5), 2))
        enc = Encoder.init("mlp1", 3, 6, 4, rng)
        spec = KernelSpec(family, 1.5)
        z = forward(enc, x)
        loss, dq = loss_and_grad(div, p, learned_rows(z, spec))
        want, _ = backward(enc, x, kernel_rows_grad(z, spec, dq))
        fused_loss, grads = encoder_value_and_grads(div, p, enc, x, spec)
        assert fused_loss == loss
        assert grads.keys() == want.keys()
        for name in want:
            assert np.array_equal(grads[name], want[name]), name

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
        z = forward(enc, x)
        loss, dq = loss_and_grad("TV", p, learned_rows(z, spec))
        want, _ = backward(enc, x, kernel_rows_grad(z, spec, dq))
        fused_loss, grads = encoder_value_and_grads("TV", p, enc, x, spec)
        assert fused_loss == loss
        assert grads.keys() == want.keys()
        for name in want:
            assert np.array_equal(grads[name], want[name]), name

    @pytest.mark.parametrize("div", DIVS)
    def test_cluster_matches_public_chain(self, div):
        rng = np.random.default_rng(97)
        x = rng.normal(size=(11, 3))
        p = supervisory_knn(x, 3)
        head = ClusterHead.init(3, 4, rng)
        phi = head_forward(head, x)
        loss, dq = loss_and_grad(div, p, cluster_transition(phi))
        want, _ = head_backward(head, x, cluster_transition_grad(phi, dq))
        fused_loss, grads = cluster_value_and_grads(div, p, head, x)
        assert fused_loss == loss
        assert grads.keys() == want.keys()
        for name in want:
            assert np.array_equal(grads[name], want[name]), name


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
        np.testing.assert_allclose(emb, forward(report.model, ds.features), atol=0)

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


    @pytest.mark.parametrize("mode", ["free", "parametric"])
    def test_one_distance_pass_per_step(self, monkeypatch, mode):
        import bicon.evaluation
        import bicon.kernels

        calls = []
        original = bicon.kernels.squared_distances

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bicon.kernels, "squared_distances", counted)
        monkeypatch.setattr(bicon.evaluation, "squared_distances", counted)
        ds = toy_blobs(n=16, d=3)
        cfg = {"task": "sne", "divergence": "JSD", "lr": 0.01, "epochs": 7,
               "perplexity": 4.0, "eval_every": 3, "mode": mode, "hidden": 4, "seed": 0}
        report, _ = run_sne(cfg, ds.features, labels=ds.labels)
        # one per step, one for the target rows, knn and silhouette per snapshot
        assert len(report.snapshots) == 3
        assert len(calls) == 7 + 1 + 2 * 3


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


def dense_sub_rows(p, idx):
    """The batch sub-rows gathered from the dense kNN target, as the
    reference for _sub_rows."""
    sub = p[np.ix_(idx, idx)].copy()
    sums = sub.sum(axis=1)
    empty = sums <= 0.0
    if empty.any():
        rows = np.where(empty)[0]
        sub[rows] = 1.0 / (idx.shape[0] - 1)
        sub[rows, rows] = 0.0
        sums = sub.sum(axis=1)
    return sub / sums[:, None]


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


class TestSubRows:
    @settings(max_examples=200, deadline=None)
    @given(knn_batches())
    def test_scatter_matches_dense_reference(self, inst):
        x, k, batches = inst
        nbrs, p = _knn_graph(x, k), supervisory_knn(x, k)
        pos = np.full(x.shape[0], -1, dtype=np.intp)
        for idx in batches:
            assert np.array_equal(_sub_rows(nbrs, idx, pos), dense_sub_rows(p, idx))
            assert np.all(pos == -1)


class TestRunSupcon:
    def test_lr_zero_keeps_params(self):
        # per-step losses still vary with batch composition, so the frozen
        # state is what lr = 0 guarantees here
        ds = toy_blobs(n=24, classes=2)
        cfg = {"task": "supcon", "divergence": "KL", "kernel": "angular",
               "lr": 0.0, "epochs": 3, "batch_size": 12, "hidden": 6,
               "out_dim": 4, "seed": 0}
        report, encoder = run_supcon(cfg, ds.features, ds.labels)
        short_report, short_encoder = run_supcon({**cfg, "epochs": 1}, ds.features, ds.labels)
        for key, tensor in encoder.params().items():
            np.testing.assert_array_equal(tensor, short_encoder.params()[key])

    def test_deterministic(self):
        ds = toy_blobs(n=32, classes=2, seed=4)
        cfg = {"task": "supcon", "divergence": "TV", "kernel": "distance",
               "lr": 0.01, "epochs": 3, "batch_size": 16, "hidden": 8,
               "out_dim": 4, "seed": 9}
        a_report, enc_a = run_supcon(cfg, ds.features, ds.labels)
        b_report, enc_b = run_supcon(cfg, ds.features, ds.labels)
        np.testing.assert_array_equal(forward(enc_a, ds.features), forward(enc_b, ds.features))
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
