"""Central finite-difference verification of every analytic gradient.

Each check builds small random instances, evaluates the analytic
gradient, and compares against five-point central differences of the
corresponding value function. Instances for TV are resampled until every
|p - q| entry clears a margin, since its derivative jumps where p = q.

The trained scope checks the softmax steps where training leaves them: at
fixture-sized states after some epochs, along random directions over all
parameter tensors, against differences of each step's own loss.

The same checks back both the test suite and the CLI gradcheck command.
"""

from __future__ import annotations

import numpy as np

from . import divergences
from .data import DatasetSpec, generate
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
from .evaluation import holdout_split
from .trainers import _balanced_batches, _sub_rows, cluster_loss, kernel_loss, run_sne, run_supcon, value_and_grads

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


# directional_error's number of random directions
_DIRECTIONS = 3


def directional_error(model, loss, p, x, rng):
    """Worst |<g, v> - dL/dv| / ||g|| over _DIRECTIONS random unit
    directions v across all of model's parameter tensors: g is the step's
    gradient, and dL/dv five-point differences (step STEP) of the step's
    own loss along v. It costs five loss evaluations per direction,
    whatever the size."""
    params = model.params()
    _, grads = value_and_grads(model, loss, p, x)
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    origin = {name: tensor.copy() for name, tensor in params.items()}
    worst = 0.0
    for _ in range(_DIRECTIONS):
        v = {name: rng.standard_normal(tensor.shape) for name, tensor in params.items()}
        unit = 1.0 / np.sqrt(sum(float(np.sum(d * d)) for d in v.values()))
        values = []
        for step in (2.0 * STEP, STEP, -STEP, -2.0 * STEP):
            for name, tensor in params.items():
                np.add(origin[name], (step * unit) * v[name], out=tensor)
            values.append(value_and_grads(model, loss, p, x)[0])
        for name, tensor in params.items():
            tensor[...] = origin[name]
        numeric = np.dot((-1.0, 8.0, -8.0, 1.0), values) / (12.0 * STEP)
        analytic = unit * sum(float(np.sum(grads[name] * v[name])) for name in params)
        worst = max(worst, abs(analytic - numeric) / norm)
    return worst


# check_trained's recipes: the SNE fixture (configs/sne_blobs.json), and
# supcon on 400 points of the supcon fixture's blobs (configs/supcon_blobs.json),
# each with the epochs it is trained for before the check
_SNE_FIXTURE = ({"task": "sne", "kernel": "distance", "scale": 4.0, "perplexity": 60.0, "lr": 0.1,
                 "init_scale": 0.3, "seed": 0},
                DatasetSpec("gaussian_blobs", n=300, d=10, classes=3, separation=8.0, seed=0), 200)
_SUPCON_RECIPE = ({"task": "supcon", "scale": 10.0, "lr": 1e-3, "batch_size": 64, "hidden": 64,
                   "out_dim": 16, "seed": 0},
                  DatasetSpec("gaussian_blobs", n=400, d=20, classes=4, separation=6.0, seed=0), 40)


def check_trained(seed=0):
    """Worst directional error (directional_error) of each softmax step
    after training: the SNE fixture for 200 epochs, on its full batch, and
    supcon, over both kernel families, for 40, on one class-balanced
    batch; seed draws the directions and the batch.

    At 200 epochs the SNE steps still have gradients of 3e-6 or more. Near
    the loss's stationary point ||g|| falls toward the roundoff of the
    loss's differences (about 1e-13 / STEP), which the error is relative to:
    at 400 epochs KL's ||g|| is 4e-9 and the check reads 1e-4.

    TV is left out: training brings q to p pair by pair, and at trained
    states some pairs' |q - p| lies within the stencil's reach of TV's
    kink, where differences of its value do not give its derivative (at
    200 epochs 6.9e-4). The random-instance scopes check TV with a margin
    on |q - p|.
    """
    kinds = [kind for kind in divergences.KINDS if kind != "TV"]
    results = []
    config, spec, epochs = _SNE_FIXTURE
    data = generate(spec)
    p = supervisory_sne(data.features, config["perplexity"])
    for kind in kinds:
        report, _ = run_sne(dict(config, divergence=kind, epochs=epochs), data.features, target=p)
        loss = kernel_loss(kind, KernelSpec(config["kernel"], config["scale"]))
        err = directional_error(report.model, loss, p, data.features, np.random.default_rng([seed, 59]))
        results.append((f"sne/{kind}", err))
    config, spec, epochs = _SUPCON_RECIPE
    data = generate(spec)
    train_idx, _ = holdout_split(len(data.labels), seed=config["seed"])
    batch = next(_balanced_batches(train_idx, data.labels, config["batch_size"], np.random.default_rng([seed, 61])))
    p = supervisory_labels(data.labels[batch])
    for kind in kinds:
        for family in KERNEL_FAMILIES:
            cfg = dict(config, divergence=kind, kernel=family, epochs=epochs)
            report, _ = run_supcon(cfg, data.features, data.labels)
            loss = kernel_loss(kind, KernelSpec(family, config["scale"]))
            err = directional_error(report.model, loss, p, data.features[batch], np.random.default_rng([seed, 67]))
            results.append((f"supcon/{kind}/{family}", err))
    return results


_CHECKS = {"divergences": check_divergences, "kernels": check_kernels, "model": check_model, "end2end": check_end2end,
           "trained": check_trained}

SCOPES = tuple(_CHECKS)


def run_scope(scope, seed=0):
    """All (component, worst relative error) pairs for one CLI scope."""
    if scope not in _CHECKS:
        raise ValueError(f"unknown gradcheck scope {scope!r}; expected one of {SCOPES}")
    return _CHECKS[scope](seed)
