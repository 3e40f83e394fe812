"""Training engines that push learned transition rows toward supervisory
ones under a chosen divergence.

Three engines share one loss, the mean over points i of
D(p(.|i) || q(.|i)) with a uniform marginal over i, gradients flowing
only into q, and one loop, _train: batches of (target p, inputs), one
Adam step per batch, metric snapshots every eval_every epochs. Each
engine supplies only its target, model, batches and metrics. run_sne
embeds points in 2-D against Gaussian conditional rows, one full batch
per epoch; run_cluster fits a softmax head whose assignment overlaps
match a k-nearest-neighbor graph; run_supcon fits an encoder whose
kernel rows match shared-label rows on class-balanced batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .divergences import KINDS, divergence_grad_rows, divergence_rows
from .errors import ConfigError, DimensionError, DomainError, NumericalError, check_field_types
from .evaluation import holdout_split, hungarian_accuracy, knn_accuracy, silhouette
from .kernels import (
    KERNEL_FAMILIES,
    KernelSpec,
    _cluster_transition,
    _cluster_transition_backward,
    _kernel_rows_backward,
    _knn_graph,
    learned_rows,
    supervisory_labels,
    supervisory_sne,
    validate_distribution,
)
from .model import Adam, ClusterHead, Encoder, FreeEmbedding, _backward, _forward, _head_backward, forward, head_forward

LOG = logging.getLogger("bicon.trainers")

TASKS = ("sne", "cluster", "supcon")

_TASK_KERNEL = {"sne": "distance", "cluster": "distance", "supcon": "angular"}
_TASK_OUT_DIM = {"sne": 2, "cluster": 0, "supcon": 16}
_TASK_EVAL_EVERY = {"sne": 100, "cluster": 1, "supcon": 1}


@dataclass(frozen=True)
class LossConfig:
    """Resolved hyperparameters for one training run.

    kernel, scale, out_dim and eval_every default per task when left
    unset (None). scale follows the kernel reading of temperature: the
    supcon angular default of 10 is a softmax temperature of 0.1.
    """

    task: str
    divergence: str
    kernel: str | None = None
    scale: float | None = None
    batch_size: int = 64
    epochs: int = 100
    lr: float = 1e-3
    seed: int = 0
    perplexity: float = 30.0
    k: int = 10
    clusters: int = 0
    mode: str = "free"
    encoder: str = "mlp1"
    init_scale: float = 1e-2
    hidden: int = 64
    out_dim: int | None = None
    eval_every: int | None = None
    grad_clip: float = 0.0
    collapse_arm: float = 3.0
    collapse_trip: float = 1.5
    collapse_window: int = 3


CONFIG_KEYS = tuple(f.name for f in fields(LossConfig))


def resolve_config(config):
    """Fill task defaults and validate; accepts a LossConfig or a flat dict."""
    if isinstance(config, dict):
        unknown = sorted(set(config) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "task" not in config or "divergence" not in config:
            raise ConfigError("config needs at least 'task' and 'divergence'")
        config = LossConfig(**config)
    check_field_types(config)
    if config.task not in TASKS:
        raise ConfigError(f"unknown task {config.task!r}; expected one of {TASKS}")
    if config.divergence not in KINDS:
        raise ConfigError(f"unknown divergence {config.divergence!r}; expected one of {KINDS}")
    kernel = config.kernel or _TASK_KERNEL[config.task]
    if kernel not in KERNEL_FAMILIES:
        raise ConfigError(f"unknown kernel {kernel!r}; expected one of {KERNEL_FAMILIES}")
    scale = config.scale
    if scale is None:
        scale = 10.0 if (config.task == "supcon" and kernel == "angular") else 1.0
    out_dim = config.out_dim if config.out_dim is not None else _TASK_OUT_DIM[config.task]
    eval_every = config.eval_every if config.eval_every is not None else _TASK_EVAL_EVERY[config.task]
    cfg = replace(config, kernel=kernel, scale=scale, out_dim=out_dim, eval_every=eval_every)
    if cfg.batch_size < 4:
        raise ConfigError(f"batch_size must be >= 4, got {cfg.batch_size}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")
    if not (np.isfinite(cfg.lr) and cfg.lr >= 0.0):
        raise ConfigError(f"lr must be finite and >= 0, got {cfg.lr!r}")
    if not (np.isfinite(cfg.scale) and cfg.scale > 0.0):
        raise ConfigError(f"scale must be finite and > 0, got {cfg.scale!r}")
    if cfg.perplexity < 2.0:
        raise ConfigError(f"perplexity must be >= 2, got {cfg.perplexity!r}")
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    if cfg.task == "cluster" and cfg.clusters < 2:
        raise ConfigError(f"cluster task needs clusters >= 2, got {cfg.clusters}")
    if cfg.mode not in ("free", "parametric"):
        raise ConfigError(f"mode must be 'free' or 'parametric', got {cfg.mode!r}")
    if not (np.isfinite(cfg.init_scale) and cfg.init_scale > 0.0):
        raise ConfigError(f"init_scale must be finite and > 0, got {cfg.init_scale!r}")
    if cfg.encoder not in ("linear", "mlp1"):
        raise ConfigError(f"encoder must be 'linear' or 'mlp1', got {cfg.encoder!r}")
    if cfg.task != "cluster" and cfg.out_dim < 1:
        raise ConfigError(f"out_dim must be >= 1, got {cfg.out_dim}")
    if cfg.eval_every < 1:
        raise ConfigError(f"eval_every must be >= 1, got {cfg.eval_every}")
    if cfg.hidden < 1:
        raise ConfigError(f"hidden must be >= 1, got {cfg.hidden}")
    if not (np.isfinite(cfg.grad_clip) and cfg.grad_clip >= 0.0):
        raise ConfigError(f"grad_clip must be finite and >= 0, got {cfg.grad_clip!r}")
    if not (cfg.collapse_window >= 1 and np.isfinite(cfg.collapse_arm) and cfg.collapse_arm > cfg.collapse_trip > 0):
        raise ConfigError("collapse thresholds need window >= 1 and finite arm > trip > 0")
    return cfg


@dataclass
class TrainReport:
    """Per-step loss and gradient-norm series, periodic metric snapshots,
    the trained model, and the supcon collapse flag."""

    losses: list
    grad_norms: dict
    snapshots: list
    collapsed: bool
    config: LossConfig
    model: object


@dataclass(frozen=True)
class SpikeStats:
    max: float
    median: float
    ratio: float


def loss_and_grad(divergence, p, q):
    """Mean row divergence and its gradient in q.

    Both arguments must be valid transition matrices (square, zero
    diagonal, unit row sums). The i marginal is uniform, so the row
    gradient is scaled by 1/N; the diagonal of the gradient is forced to
    zero since diagonal entries are structural.
    """
    return _loss_and_grad(divergence, validate_distribution(p), q)


def _loss_and_grad(divergence, p, q):
    """loss_and_grad for a p already validated where it was built; q is
    still validated."""
    q = validate_distribution(q)
    if p.shape != q.shape:
        raise DimensionError(f"p and q shapes differ: {p.shape} vs {q.shape}")
    loss = float(divergence_rows(divergence, p, q).mean())
    g = divergence_grad_rows(divergence, p, q) / p.shape[0]
    np.fill_diagonal(g, 0.0)
    return loss, g


# The assemblies below run each forward pass once and hand its results to
# the backward pass. p must be a valid transition matrix: the engines
# validate it once, where they build it, not on every step.


def sne_free_value_and_grads(divergence, p, table, spec):
    q = learned_rows(table, spec)
    loss, dq = _loss_and_grad(divergence, p, q)
    return loss, {"embedding": _kernel_rows_backward(table, spec, q, dq)}


def encoder_value_and_grads(divergence, p, encoder, x, spec):
    x = np.asarray(x, dtype=float)
    z, h = _forward(encoder, x)
    q = learned_rows(z, spec)
    loss, dq = _loss_and_grad(divergence, p, q)
    dz = _kernel_rows_backward(z, spec, q, dq)
    grads, _ = _backward(encoder, x, h, dz)
    return loss, grads


def cluster_value_and_grads(divergence, p, head, x):
    x = np.asarray(x, dtype=float)
    phi = head_forward(head, x)
    q, r = _cluster_transition(phi)
    loss, dq = _loss_and_grad(divergence, p, q)
    dphi = _cluster_transition_backward(phi, q, r, dq)
    grads, _ = _head_backward(head, x, phi, dphi)
    return loss, grads


def _train(cfg, model, batches, objective, evaluate):
    """The training loop of every engine.

    Each epoch, batches() yields (p, inputs) pairs, p already validated;
    objective(p, inputs) returns the loss and the gradient of each of
    model.params(), and Adam takes one step. evaluate() gives the metric
    dict snapshotted after every eval_every-th epoch and the last.
    Overflow anywhere in a step aborts with the step index and divergence
    tag attached.
    """
    params = model.params()
    opt = Adam(params, lr=cfg.lr)
    report = TrainReport(losses=[], grad_norms={name: [] for name in params}, snapshots=[],
                         collapsed=False, config=cfg, model=model)
    step = 0
    for epoch in range(cfg.epochs):
        first = step
        for p, inputs in batches():
            try:
                loss, grads = objective(p, inputs)
                if not np.isfinite(loss):
                    raise NumericalError("non-finite loss")
                report.losses.append(loss)
                for name, g in grads.items():
                    report.grad_norms[name].append(float(np.sqrt(np.sum(g * g))))
                opt.step(_clip(grads, cfg.grad_clip))
            except (NumericalError, DomainError) as exc:
                raise NumericalError(
                    f"non-finite values at step {step} (divergence {cfg.divergence}): {exc}",
                    step=step,
                    divergence=cfg.divergence,
                ) from exc
            step += 1
        if step == first:
            raise ConfigError(f"epoch {epoch} has no batch of at least 4 points")
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            metrics = evaluate()
            report.snapshots.append((step - 1, metrics))
            LOG.info("%s epoch %d loss %.6g %s", cfg.task, epoch, loss, metrics)
    return report


def _clip(grads, limit):
    if limit <= 0.0:
        return grads
    for g in grads.values():
        norm = float(np.sqrt(np.sum(g * g)))
        if norm > limit:
            g *= limit / norm
    return grads


def _embedding_metrics(emb, labels, seed):
    if labels is None:
        return {}
    train_idx, test_idx = holdout_split(emb.shape[0], 0.25, seed)
    out = {
        "knn": knn_accuracy(emb[train_idx], labels[train_idx], emb[test_idx], labels[test_idx], k=7)
    }
    if np.unique(labels).shape[0] >= 2:
        out["silhouette"] = silhouette(emb, labels)
    return out


def run_sne(config, x, labels=None):
    """Full-batch 2-D embedding against Gaussian conditional rows.

    cfg.mode 'free' trains one row per point (initialized from x itself
    when x already has out_dim columns); 'parametric' trains an encoder.
    Supervisory rows are computed and validated once; each epoch is one
    Adam step.
    """
    cfg = resolve_config(config)
    x = np.asarray(x, dtype=float)
    p = validate_distribution(supervisory_sne(x, cfg.perplexity))
    spec = KernelSpec(cfg.kernel, cfg.scale)
    rng = np.random.default_rng([cfg.seed, 1])
    if cfg.mode == "free":
        if x.shape[1] == cfg.out_dim:
            model = FreeEmbedding(x.copy())
        else:
            model = FreeEmbedding.init(x.shape[0], cfg.out_dim, rng, scale=cfg.init_scale)
        objective = lambda p, _: sne_free_value_and_grads(cfg.divergence, p, model.table, spec)
        embed = lambda: model.table
    else:
        model = Encoder.init(cfg.encoder, x.shape[1], cfg.hidden, cfg.out_dim, rng)
        objective = lambda p, xb: encoder_value_and_grads(cfg.divergence, p, model, xb, spec)
        embed = lambda: forward(model, x)
    evaluate = lambda: _embedding_metrics(embed(), labels, cfg.seed)
    report = _train(cfg, model, lambda: [(p, x)], objective, evaluate)
    return report, embed()


def _sub_rows(nbrs, idx, pos):
    """Uniform kNN rows over a batch, rows renormalized: row i weighs the
    members of nbrs[idx[i]] that are in the batch equally. A row with no
    neighbor in the batch falls back to uniform over the batch.

    nbrs is the N x k neighbor index array. pos is an N-long scratch map,
    -1 everywhere on entry and on return, that takes each batch point to
    its slot.
    """
    pos[idx] = np.arange(idx.shape[0])
    slot = pos[nbrs[idx]]
    pos[idx] = -1
    rows, cols = np.nonzero(slot >= 0)
    sub = np.zeros((idx.shape[0], idx.shape[0]))
    sub[rows, slot[rows, cols]] = 1.0 / nbrs.shape[1]
    sums = sub.sum(axis=1)
    empty = sums <= 0.0
    if empty.any():
        rows = np.where(empty)[0]
        sub[rows] = 1.0 / (idx.shape[0] - 1)
        sub[rows, rows] = 0.0
        sums = sub.sum(axis=1)
    return sub / sums[:, None]


def run_cluster(config, x, labels=None):
    """Mini-batched cluster-head training against a kNN neighbor graph.

    The graph is held as each point's k neighbor indices, found once up
    front, never as a dense N x N matrix. Each epoch shuffles the points
    into batches (a trailing batch of fewer than 4 is dropped), and each
    batch scatters and renormalizes its sub-rows (see _sub_rows).
    Snapshots record assignment accuracy when labels are given.
    """
    cfg = resolve_config(config)
    x = np.asarray(x, dtype=float)
    if cfg.task != "cluster":
        raise ConfigError(f"run_cluster got a config for task {cfg.task!r}")
    nbrs = _knn_graph(x, cfg.k)
    pos = np.full(x.shape[0], -1, dtype=np.intp)
    head = ClusterHead.init(x.shape[1], cfg.clusters, np.random.default_rng([cfg.seed, 1]))
    shuffle_rng = np.random.default_rng([cfg.seed, 7])

    def batches():
        perm = shuffle_rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            if batch.shape[0] >= 4:
                yield validate_distribution(_sub_rows(nbrs, batch, pos)), x[batch]

    def evaluate():
        if labels is None:
            return {}
        return {"hungarian": hungarian_accuracy(head_forward(head, x).argmax(axis=1), labels)}

    objective = lambda p, xb: cluster_value_and_grads(cfg.divergence, p, head, xb)
    report = _train(cfg, head, batches, objective, evaluate)
    return report, head_forward(head, x)


def _balanced_batches(indices, labels, batch_size, rng):
    """Class-balanced batches drawn without replacement within an epoch.

    Every class contributes at least 2 per batch; trailing samples that
    cannot fill a batch are dropped.
    """
    classes = np.unique(labels[indices])
    quota = {
        c: batch_size // classes.shape[0] + (1 if rank < batch_size % classes.shape[0] else 0)
        for rank, c in enumerate(classes)
    }
    if min(quota.values()) < 2:
        raise ConfigError(
            f"batch_size {batch_size} cannot give every one of {classes.shape[0]} classes >= 2 slots"
        )
    pools = {c: rng.permutation(indices[labels[indices] == c]) for c in classes}
    n_batches = min(pools[c].shape[0] // quota[c] for c in classes)
    if n_batches < 1:
        raise ConfigError("not enough samples per class to fill one balanced batch")
    for b in range(n_batches):
        parts = [pools[c][b * quota[c]:(b + 1) * quota[c]] for c in classes]
        yield rng.permutation(np.concatenate(parts))


def _collapsed(series, chance, arm, trip, window):
    """Whether a snapshot accuracy series collapsed: its mean over the last
    `window` snapshots reached arm * chance and later fell under
    trip * chance."""
    armed = False
    for end in range(1, len(series) + 1):
        recent = float(np.mean(series[max(0, end - window):end]))
        if recent >= arm * chance:
            armed = True
        elif armed and recent < trip * chance:
            return True
    return False


def run_supcon(config, x, labels):
    """Class-balanced contrastive encoder training against shared-label rows.

    A fixed holdout is kept out of the batches; snapshots track its kNN
    accuracy, and the collapse flag is set when that series collapses
    (see _collapsed) under the config's collapse thresholds.
    """
    cfg = resolve_config(config)
    x = np.asarray(x, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if cfg.task != "supcon":
        raise ConfigError(f"run_supcon got a config for task {cfg.task!r}")
    if y.shape != (x.shape[0],):
        raise DimensionError("labels do not match feature matrix")
    spec = KernelSpec(cfg.kernel, cfg.scale)
    rng = np.random.default_rng([cfg.seed, 1])
    encoder = Encoder.init(cfg.encoder, x.shape[1], cfg.hidden, cfg.out_dim, rng)
    train_idx, test_idx = holdout_split(x.shape[0], 0.25, cfg.seed)
    shuffle_rng = np.random.default_rng([cfg.seed, 7])

    def batches():
        for batch in _balanced_batches(train_idx, y, cfg.batch_size, shuffle_rng):
            yield validate_distribution(supervisory_labels(y[batch])), x[batch]

    def evaluate():
        z = forward(encoder, x)
        return {"knn": knn_accuracy(z[train_idx], y[train_idx], z[test_idx], y[test_idx], k=7)}

    objective = lambda p, xb: encoder_value_and_grads(cfg.divergence, p, encoder, xb, spec)
    report = _train(cfg, encoder, batches, objective, evaluate)
    chance = 1.0 / np.unique(y).shape[0]
    knn = [metrics["knn"] for _, metrics in report.snapshots]
    report.collapsed = _collapsed(knn, chance, cfg.collapse_arm, cfg.collapse_trip, cfg.collapse_window)
    return report, encoder


def grad_norm_series(report, window=50):
    """Spike statistics (max, median, max/median) of each parameter
    tensor's gradient-norm series over the first `window` (>= 1) steps."""
    if not report.losses:
        raise DimensionError("report has no recorded steps")
    if window < 1:
        raise DomainError(f"window must be >= 1, got {window!r}")
    out = {}
    for name, series in report.grad_norms.items():
        w = np.asarray(series[:window], dtype=float)
        mx = float(w.max())
        md = float(np.median(w))
        out[name] = SpikeStats(mx, md, mx / md if md > 0 else float("inf"))
    return out
