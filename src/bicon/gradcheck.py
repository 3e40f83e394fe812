"""Central finite-difference verification of every analytic gradient.

Each check builds small random instances, evaluates the analytic
gradient, and compares against five-point central differences of the
corresponding value function. Instances for TV are resampled until every
|p - q| entry clears a margin, since its derivative jumps where p = q.

The same checks back both the test suite and the CLI gradcheck command.
"""

from __future__ import annotations

import numpy as np

from . import divergences
from .errors import NumericalError
from .kernels import (
    KERNEL_FAMILIES,
    KernelSpec,
    _knn_graph,
    cluster_transition,
    cluster_transition_grad,
    kernel_rows_grad,
    learned_rows,
    supervisory_knn,
    supervisory_labels,
    supervisory_sne,
)
from .model import ClusterHead, Encoder, FreeEmbedding, features, softmax_rows
from .trainers import _sub_rows, cluster_loss, kernel_loss, value_and_grads

TOL = 1e-5
STEP = 1e-4

_TV_MARGIN = 1e-4


def fd_grad(f, x, h=STEP):
    """Five-point central differences of scalar f() with respect to array x,
    (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / 12h: their O(h^4) truncation
    lets h be large enough that f's roundoff stays small beside tiny gradients.

    f must read x live; entries are perturbed in place and restored.
    """
    x = np.asarray(x)
    g = np.zeros(x.size)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        values = []
        for step in (2.0 * h, h, -h, -2.0 * h):
            flat[i] = orig + step
            values.append(f())
        flat[i] = orig
        g[i] = np.dot((-1.0, 8.0, -8.0, 1.0), values) / (12.0 * h)
    return g.reshape(x.shape)


def rel_error(analytic, numeric):
    """Max absolute difference, relative to the numeric gradient's scale.

    When both gradients vanish below 1e-8 the pair counts as exact: a
    translation-invariant loss has identically zero bias gradients, and
    central differences there return pure roundoff noise that no relative
    normalization survives.
    """
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    if np.max(np.abs(analytic)) <= 1e-8 and np.max(np.abs(numeric)) <= 1e-8:
        return 0.0
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def _simplex_pair(rng, n):
    while True:
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        if np.min(np.abs(p - q)) >= _TV_MARGIN:
            return p, q


def check_divergences(seed=0, trials=20, n=8):
    """Worst relative error of each divergence derivative against
    central differences at interior simplex points."""
    results = []
    for kind in divergences.KINDS:
        rng = np.random.default_rng([seed, 23])
        worst = 0.0
        for _ in range(trials):
            p, q = _simplex_pair(rng, n)
            analytic = divergences.divergence_rows(kind, p, q)[1][0]

            def value():
                return float(divergences.divergence_rows(kind, p, q)[0][0])

            # a fixed fraction of q's distance to the poles at 0: O(h^4 / q^4) truncation
            worst = max(worst, rel_error(analytic, fd_grad(value, q, STEP * q.min())))
        results.append((kind, worst))
    return results


def check_kernels(seed=0, trials=10):
    """Worst relative error of the kernel-row and cluster-transition
    gradient chains, probed with a random linear functional of the rows."""
    results = []
    for family in KERNEL_FAMILIES:
        rng = np.random.default_rng([seed, 29])
        spec = KernelSpec(family, 1.25)
        worst = 0.0
        for _ in range(trials):
            z = rng.standard_normal((5, 3))
            A = rng.standard_normal((5, 5))
            np.fill_diagonal(A, 0.0)
            analytic = kernel_rows_grad(z, spec, A)

            def value():
                return float(np.sum(A * learned_rows(z, spec)))

            worst = max(worst, rel_error(analytic, fd_grad(value, z)))
        results.append((family, worst))
    rng = np.random.default_rng([seed, 31])
    worst = 0.0
    for _ in range(trials):
        logits = rng.standard_normal((6, 4))
        A = rng.standard_normal((6, 6))
        np.fill_diagonal(A, 0.0)
        phi = softmax_rows(logits)
        dphi = cluster_transition_grad(phi, A)
        analytic = phi * (dphi - np.sum(dphi * phi, axis=1, keepdims=True))

        def value():
            return float(np.sum(A * cluster_transition(softmax_rows(logits))))

        worst = max(worst, rel_error(analytic, fd_grad(value, logits)))
    results.append(("cluster-transition", worst))
    return results


def check_model(seed=0, trials=10):
    """Worst relative error of each container's backward pass in each of
    its parameter tensors."""
    results = []
    rng = np.random.default_rng([seed, 37])
    for name, init in (
        ("encoder-linear", lambda: Encoder.init("linear", 3, 4, 2, rng)),
        ("encoder-mlp1", lambda: Encoder.init("mlp1", 3, 4, 2, rng)),
        ("cluster-head", lambda: ClusterHead.init(3, 4, rng)),
    ):
        worst = 0.0
        for _ in range(trials):
            model = init()
            x = rng.standard_normal((6, 3))
            out, cache = model.forward(x)
            A = rng.standard_normal(out.shape)

            def value():
                return float(np.sum(A * model.forward(x)[0]))

            grads = model.backward(x, cache, A)
            for tensor_name, tensor in model.params().items():
                worst = max(worst, rel_error(grads[tensor_name], fd_grad(value, tensor)))
        results.append((name, worst))
    return results


def _fd_step(divergence, p, q):
    """fd_grad's step for target rows p and learned rows q, or None to
    reject them. TV's derivative jumps where p = q: its smallest off-diagonal
    |p - q| must exceed _TV_MARGIN, and h is at most a 100th of it, since a
    move of 2h moved q by 21h at most in ~1,800 random instances."""
    if divergence != "TV":
        return STEP
    gap = float(np.min(np.abs(p - q)[~np.eye(p.shape[0], dtype=bool)]))
    return min(STEP, gap / 100.0) if gap > _TV_MARGIN else None


def _e2e(div, seed, stream, build):
    """Worst relative error of one assembly's gradient in each of its
    parameter tensors, on the first of 50 instances that _fd_step accepts.

    build(rng) draws an instance and returns (p, q, params, assembly): the
    target rows, the learned rows, the parameter tensors, and
    assembly(div) -> (loss, grads).
    """
    for attempt in range(50):
        p, q, params, assembly = build(np.random.default_rng([seed, stream, attempt]))
        if (h := _fd_step(div, p, q)) is None:
            continue
        _, grads = assembly(div)
        value = lambda: assembly(div)[0]
        return max(rel_error(grads[name], fd_grad(value, tensor, h)) for name, tensor in params.items())
    raise NumericalError(f"could not build a margin-safe instance on stream {stream} for {div}")


def _sne_free(rng, spec):
    x = rng.standard_normal((10, 3))
    p = supervisory_sne(x, 4.0)
    model = FreeEmbedding(0.8 * rng.standard_normal((10, 2)))
    assembly = lambda div: value_and_grads(model, kernel_loss(div, spec), p, x)
    return p, learned_rows(model.table, spec), model.params(), assembly


def _sne_parametric(rng, spec):
    x = rng.standard_normal((10, 3))
    p = supervisory_sne(x, 4.0)
    enc = Encoder.init("mlp1", 3, 4, 2, rng)
    assembly = lambda div: value_and_grads(enc, kernel_loss(div, spec), p, x)
    return p, learned_rows(features(enc, x), spec), enc.params(), assembly


def _supcon(rng, spec):
    x = rng.standard_normal((8, 3))
    enc = Encoder.init("mlp1", 3, 4, 3, rng)
    p = supervisory_labels(np.array([0, 0, 1, 1, 2, 2, 3, 3]))
    assembly = lambda div: value_and_grads(enc, kernel_loss(div, spec), p, x)
    return p, learned_rows(features(enc, x), spec), enc.params(), assembly


def _cluster(rng):
    # the engine's own batch target over all points; the dense rows serve the TV margin alone
    x = rng.standard_normal((9, 3))
    target = _sub_rows(_knn_graph(x, 3), np.arange(9), np.full(9, -1, dtype=np.intp))
    head = ClusterHead.init(3, 4, rng)
    assembly = lambda div: value_and_grads(head, cluster_loss(div), target, x)
    return supervisory_knn(x, 3), cluster_transition(features(head, x)), head.params(), assembly


def check_end2end(seed=0):
    """Worst relative error of every task assembly's full gradient chain,
    across all divergences, kernel families and parameter tensors."""
    results = []
    for div in divergences.KINDS:
        for family in KERNEL_FAMILIES:
            spec = KernelSpec(family, 1.25)
            for name, stream, build in (
                ("sne-free", 41, _sne_free),
                ("sne-parametric", 43, _sne_parametric),
                ("supcon", 47, _supcon),
            ):
                err = _e2e(div, seed, stream, lambda rng: build(rng, spec))
                results.append((f"{name}/{div}/{family}", err))
        # the cluster assembly has no kernel in its chain
        results.append((f"cluster/{div}", _e2e(div, seed, 53, _cluster)))
    return results


_CHECKS = {"divergences": check_divergences, "kernels": check_kernels, "model": check_model, "end2end": check_end2end}

SCOPES = tuple(_CHECKS)


def run_scope(scope, seed=0):
    """All (component, worst relative error) pairs for one CLI scope."""
    if scope not in _CHECKS:
        raise ValueError(f"unknown gradcheck scope {scope!r}; expected one of {SCOPES}")
    return _CHECKS[scope](seed)
