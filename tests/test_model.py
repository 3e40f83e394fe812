"""Forward/backward parameter containers, Adam, and checkpoint IO."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicon.divergences import SIMPLEX_TOL
from bicon.errors import DimensionError, NumericalError, ParseError
from bicon.model import (
    CHECKPOINT_MAGIC,
    Adam,
    ClusterHead,
    Encoder,
    FreeEmbedding,
    features,
    load_checkpoint,
    save_checkpoint,
    softmax_rows,
)


def flatten(params):
    return np.concatenate([params[k].ravel() for k in sorted(params)])


class TestForward:
    def test_zero_weights_zero_output(self):
        enc = Encoder.init("mlp1", 3, 4, 2, np.random.default_rng(0))
        for key, tensor in enc.params().items():
            tensor[...] = 0.0
        x = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(features(enc, x), 0.0)

    def test_linear_identity(self):
        enc = Encoder.init("linear", 3, 0, 3, np.random.default_rng(0))
        enc.W1[...] = np.eye(3)
        enc.b1[...] = 0.0
        x = np.random.default_rng(2).normal(size=(4, 3))
        np.testing.assert_allclose(features(enc, x), x, atol=1e-15)

    def test_mlp1_matches_formula(self):
        rng = np.random.default_rng(3)
        enc = Encoder.init("mlp1", 4, 5, 2, rng)
        x = rng.normal(size=(6, 4))
        want = np.tanh(x @ enc.W1 + enc.b1) @ enc.W2 + enc.b2
        np.testing.assert_allclose(features(enc, x), want, atol=1e-15)

    def test_shape_mismatch(self):
        enc = Encoder.init("linear", 3, 0, 2, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            features(enc, np.zeros((4, 5)))

    def test_unknown_kind(self):
        with pytest.raises(DimensionError):
            Encoder.init("relu_net", 3, 4, 2, np.random.default_rng(0))


class TestBackward:
    def test_zero_cograd(self):
        rng = np.random.default_rng(4)
        enc = Encoder.init("mlp1", 3, 4, 2, rng)
        x = rng.normal(size=(5, 3))
        grads = enc.backward(x, enc.forward(x)[1], np.zeros((5, 2)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_linear_weight_grad_closed_form(self):
        rng = np.random.default_rng(5)
        enc = Encoder.init("linear", 3, 0, 2, rng)
        x = rng.normal(size=(5, 3))
        dout = rng.normal(size=(5, 2))
        grads = enc.backward(x, enc.forward(x)[1], dout)
        np.testing.assert_allclose(grads["W1"], x.T @ dout, atol=1e-12)
        np.testing.assert_allclose(grads["b1"], dout.sum(axis=0), atol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "mlp1"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(6)
        enc = Encoder.init(kind, 3, 4, 2, rng)
        x = rng.normal(size=(5, 3))
        A = rng.normal(size=(5, 2))

        def loss():
            return float(np.sum(A * features(enc, x)))

        grads = enc.backward(x, enc.forward(x)[1], A)
        h = 1e-6
        for key, tensor in enc.params().items():
            numeric = np.zeros_like(tensor)
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                hi = loss()
                tensor[idx] = orig - h
                lo = loss()
                tensor[idx] = orig
                numeric[idx] = (hi - lo) / (2.0 * h)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(grads[key] - numeric)) / scale < 1e-5, key


class TestClusterHead:
    def test_rows_on_simplex(self):
        rng = np.random.default_rng(7)
        head = ClusterHead.init(5, 4, rng)
        x = rng.normal(size=(9, 5)) * 10.0
        probs = features(head, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 300), d=st.integers(1, 8), clusters=st.integers(1, 12),
           exponent=st.integers(-60, 1022), identity=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_on_simplex_up_to_the_overflow_edge(self, n, d, clusters, exponent, identity, seed):
        # the cluster step relies on this instead of checking phi: finite,
        # non-negative rows summing to 1 for any finite logits whose row
        # differences do not overflow, here up to |logit| < 2**1022
        rng = np.random.default_rng(seed)
        scale = 2.0 ** exponent
        if identity:
            # an identity head passes x through, so the logits are exactly x
            head, x = ClusterHead(np.eye(clusters), np.zeros(clusters)), rng.uniform(-1, 1, (n, clusters)) * scale
        else:
            head = ClusterHead(rng.uniform(-1, 1, (d, clusters)) * scale / d, rng.uniform(-1, 1, clusters) * scale / 2)
            x = rng.uniform(-1, 1, (n, d)) / 2
        probs = features(head, x)
        assert np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= SIMPLEX_TOL

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), clusters=st.integers(1, 14), exponent=st.integers(-3, 300),
           special=st.sampled_from(["none", "nan", "-inf row", "ties and signed zeros"]),
           fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_softmax_bits_equal_the_row_max_form(self, n, clusters, exponent, special, fortran, seed):
        # the maxima taken down the columns of logits.T are the row maxima,
        # bit for bit, so the rows keep their bits
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, clusters)) * 10.0 ** exponent
        if special == "nan":
            logits[rng.random((n, clusters)) < 0.2] = np.nan
        elif special == "-inf row":
            logits[rng.integers(0, n)] = -np.inf
        elif special == "ties and signed zeros":
            logits = np.round(logits / 10.0 ** exponent)
            logits[rng.random((n, clusters)) < 0.3] = -0.0
        if fortran:
            logits = np.asfortranarray(logits)
        with np.errstate(invalid="ignore", over="ignore"):
            shifted = logits - logits.max(axis=1, keepdims=True)
            w = np.exp(shifted)
            want = w / w.sum(axis=1, keepdims=True)
            got = softmax_rows(logits)
        assert got.tobytes() == want.tobytes()

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        head = ClusterHead.init(3, 4, rng)
        x = rng.normal(size=(6, 3))
        A = rng.normal(size=(6, 4))

        def loss():
            return float(np.sum(A * features(head, x)))

        grads = head.backward(x, head.forward(x)[1], A)
        h = 1e-6
        for key, tensor in head.params().items():
            numeric = np.zeros_like(tensor)
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                hi = loss()
                tensor[idx] = orig - h
                lo = loss()
                tensor[idx] = orig
                numeric[idx] = (hi - lo) / (2.0 * h)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(grads[key] - numeric)) / scale < 1e-5, key


class TestAdam:
    def test_zero_grad_leaves_params(self):
        w = {"w": np.array([1.0, 2.0])}
        opt = Adam(w, lr=0.1)
        opt.step({"w": np.zeros(2)})
        np.testing.assert_array_equal(w["w"], [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update m_hat / sqrt(v_hat) = 1
        w = {"w": np.array([5.0])}
        opt = Adam(w, lr=1e-3)
        opt.step({"w": np.array([1.0])})
        assert w["w"][0] == pytest.approx(5.0 - 1e-3, abs=1e-10)

    def test_quadratic_descent(self):
        # momentum overshoots zero around step 12, so |w| is a damped
        # oscillation rather than a monotone decay; assert convergence and
        # that each swing is smaller than the last
        w = {"w": np.array([1.0])}
        opt = Adam(w, lr=0.1)
        history = [abs(w["w"][0])]
        for _ in range(100):
            opt.step({"w": 2.0 * w["w"]})
            history.append(abs(w["w"][0]))
        assert all(b <= a + 1e-12 for a, b in zip(history[:10], history[1:11]))
        assert max(history[50:]) < max(history[5:50])
        assert history[-1] < 0.01

    def test_non_finite_grad_rejected(self):
        w = {"w": np.array([1.0])}
        opt = Adam(w, lr=0.1)
        with pytest.raises(NumericalError):
            opt.step({"w": np.array([np.nan])})

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            w = {"w": np.linspace(-1.0, 1.0, 4)}
            opt = Adam(w, lr=0.01)
            for step in range(20):
                opt.step({"w": np.sin(w["w"] + step)})
            runs.append(w["w"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestCheckpoints:
    @pytest.mark.parametrize("maker", [
        lambda rng: FreeEmbedding(rng.normal(size=(7, 2))),
        lambda rng: Encoder.init("linear", 3, 0, 2, rng),
        lambda rng: Encoder.init("mlp1", 4, 6, 3, rng),
        lambda rng: ClusterHead.init(5, 3, rng),
    ])
    def test_round_trip(self, maker, tmp_path):
        rng = np.random.default_rng(9)
        model = maker(rng)
        path = tmp_path / "model.bicn"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.kind == model.kind
        for key, tensor in model.params().items():
            np.testing.assert_array_equal(loaded.params()[key], tensor)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bicn"
        path.write_bytes(b"NOPE1" + b"\x00" * 64)
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "model.bicn"
        save_checkpoint(path, FreeEmbedding(rng.normal(size=(4, 2))))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "model.bicn"
        save_checkpoint(path, FreeEmbedding(rng.normal(size=(4, 2))))
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_overflowing_shape_is_a_parse_error(self, tmp_path):
        # 2^40 * 2^40 entries: an int64 product of the shape wraps to 0
        path = tmp_path / "huge.bicn"
        # kind tag 0 (free), one tensor of rank 2, no payload
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5q", 0, 1, 2, 2 ** 40, 2 ** 40))
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(path)

    def test_negative_dimension_is_a_parse_error(self, tmp_path):
        path = tmp_path / "negative.bicn"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5q", 0, 1, 2, -2, 3))
        with pytest.raises(ParseError, match="negative dimension"):
            load_checkpoint(path)

    def test_zero_dimension_is_a_parse_error(self, tmp_path):
        # a head with no cluster: W of shape (3, 0), b of shape (0,)
        path = tmp_path / "zero.bicn"
        save_checkpoint(path, ClusterHead(np.ones((3, 0)), np.zeros(0)))
        with pytest.raises(ParseError, match="zero or negative dimension"):
            load_checkpoint(path)

    @pytest.mark.parametrize("maker, tag", [
        (lambda rng: FreeEmbedding(rng.normal(size=(7, 2))), 0),
        (lambda rng: Encoder.init("linear", 3, 0, 2, rng), 1),
        (lambda rng: Encoder.init("mlp1", 4, 6, 3, rng), 2),
        (lambda rng: ClusterHead.init(5, 3, rng), 3),
    ], ids=["free", "linear", "mlp1", "head"])
    def test_kind_tag_bytes(self, maker, tag, tmp_path):
        path = tmp_path / "model.bicn"
        save_checkpoint(path, maker(np.random.default_rng(12)))
        blob = path.read_bytes()
        assert blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 8] == struct.pack("<q", tag)

    @pytest.mark.parametrize("tag", [4, -1])
    def test_unknown_kind_tag_is_a_parse_error(self, tag, tmp_path):
        path = tmp_path / "model.bicn"
        save_checkpoint(path, ClusterHead.init(5, 3, np.random.default_rng(13)))
        blob = bytearray(path.read_bytes())
        blob[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 8] = struct.pack("<q", tag)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"unknown model kind tag {tag}"):
            load_checkpoint(path)

    def test_wrong_rank_is_a_parse_error(self, tmp_path):
        # kind tag 0 (free), one tensor of rank 1 with 3 entries
        path = tmp_path / "rank1.bicn"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<4q", 0, 1, 1, 3) + struct.pack("<3d", 1.0, 2.0, 3.0))
        with pytest.raises(ParseError, match="rank 2"):
            load_checkpoint(path)

    def test_shapes_that_do_not_chain_are_a_parse_error(self, tmp_path):
        path = tmp_path / "chain.bicn"
        save_checkpoint(path, Encoder("mlp1", np.ones((2, 4)), np.zeros(4), np.ones((5, 3)), np.zeros(3)))
        with pytest.raises(ParseError, match="do not fit together"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_a_parse_error(self, tmp_path, bad):
        path = tmp_path / "nonfinite.bicn"
        b = np.zeros(3)
        b[1] = bad
        save_checkpoint(path, ClusterHead(np.ones((2, 3)), b))
        with pytest.raises(ParseError, match="tensor 1 contains non-finite"):
            load_checkpoint(path)
