"""Training engines that push learned transition rows toward supervisory
ones under a chosen divergence.

Three engines share one loss, the mean over points i of D(p(.|i) || q(.|i))
with a uniform marginal over i, gradients flowing only into q, and one
loop, _train: batches of (target p, inputs), one value_and_grads step and
one Adam step per batch, metric snapshots every eval_every epochs, and the
report and the model's features on its points at the end. Each engine
supplies only its target, model, loss, batches and metric names. An engine's
one-off target (build_target) may be built by the caller and handed in,
so that a sweep builds each once for the cells that share it. run_sne embeds
points in 2-D against Gaussian conditional rows, one full batch per epoch;
run_cluster fits a softmax head whose assignment overlaps match a
k-nearest-neighbor graph; run_supcon fits an encoder whose kernel rows
match shared-label rows on class-balanced batches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace

import numpy as np

from .divergences import DIVERGENCES, FORCES, KINDS, _check_kind, _f_at_zero, divergence_rows, target_terms
from .errors import ConfigError, DimensionError, DomainError, NumericalError, check_field_types
from .evaluation import holdout_split, metric
from .kernels import (
    KERNEL_FAMILIES,
    KernelSpec,
    _cluster_overlaps,
    _kernel_rows_buffers,
    _kernel_rows_pass,
    _knn_graph,
    learned_rows,  # noqa: F401 -- perfbench's tracer test patches and reads trainers.learned_rows
    supervisory_labels,
    supervisory_sne,
    validate_distribution,
)
from .model import Adam, ClusterHead, Encoder, FreeEmbedding, features

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
    p, q = validate_distribution(p), validate_distribution(q)
    if p.shape != q.shape:
        raise DimensionError(f"p and q shapes differ: {p.shape} vs {q.shape}")
    values, g = divergence_rows(divergence, p, q)
    g /= p.shape[0]
    np.fill_diagonal(g, 0.0)
    return float(values.mean()), g


def value_and_grads(model, loss, p, x):
    """Loss and the gradient of each of model.params() for one step: the
    model's forward on x, loss(p, out) -> (value, dL/dout), the model's
    backward, which reuses the forward's cache."""
    out, cache = model.forward(x)
    value, dL_dout = loss(p, out)
    return value, model.backward(x, cache, dL_dout)


# The two losses below are a step's whole divergence. p must be a valid
# transition matrix, or for the cluster step its support and weights: its
# builders make it so, and property tests check each builder on random
# shapes. Each loss allocates its own scratch on its first call.


def kernel_loss(divergence, spec):
    """loss(p, z) of the SNE and supcon steps: the mean row divergence of p
    and the N x N learned rows q of z under spec, from one kernel-rows
    pass, and its gradient in z. The pass hands fill each block's rows of
    q, for the kind's FORCES form to write their forces and values; the
    1/N of the mean is applied to the N x d gradient.

    The pass's buffers (_kernel_rows_buffers(N)) belong to the loss: they
    are allocated on its first call and again only when N changes. So do
    the target's per-row constants (divergences.target_terms), taken
    again only when p is another array. A loss is made per run, so the
    threads of a sweep never share one."""
    _check_kind(divergence)
    force = FORCES[divergence]
    buffers = target = terms = None

    def loss(p, z):
        nonlocal buffers, target, terms
        n = len(z)
        if p.shape != (n, n):
            raise DimensionError(f"p and q shapes differ: {p.shape} vs {(n, n)}")
        if buffers is None or buffers.shape[2] != n:
            buffers = _kernel_rows_buffers(n)
        if p is not target:
            target, terms = p, target_terms(p, buffers[0])
        values = np.empty(n)

        def fill(start, q, F, w, lse):
            rows = slice(start, start + len(q))
            values[rows], sums = force(p[rows], q, w, lse, *terms[:, rows], F)
            return sums

        grad = _kernel_rows_pass(z, spec, fill, buffers)
        grad /= n
        return float(values.mean()), grad

    return loss


def cluster_loss(divergence):
    """loss(target, phi) of the cluster step: the divergence and its
    backward on the target's support (_cluster_support_pass), in a slab of
    2 b^2 floats that the loss allocates on its first call and again only
    for a larger batch."""
    slab = np.empty(0)

    def loss(target, phi):
        nonlocal slab
        if slab.shape[0] < 2 * len(phi) ** 2:
            slab = np.empty(2 * len(phi) ** 2)
        return _cluster_support_pass(divergence, *target, phi, slab)

    return loss


def _cluster_support_pass(divergence, support, p, phi, buffers=None):
    """Mean row divergence of p and q = cluster_transition(phi), and its
    gradient in phi, with the divergence taken on p's support S alone.

    support is S, the ascending flat indices of p's nonzero entries in the
    N x N matrix, and p their values: the target that _sub_rows builds.
    Off S every kind's term is q f(0) and its derivative f(0)
    (divergences._f_at_zero), so the loss is
    (sum_S terms + f(0) (N - sum_S q)) / N. With h = (dD/dq - f(0)) / N on
    S and 0 off it, and w_i = -sum_S h_ij q_ij / r_i, the dense chain's
    M = (g - sum(g q)) / r (cluster_transition_grad) is w_i off the
    diagonal plus h_ij / r_i, so (M + M.T) @ phi = (h @ phi) / r
    + h.T @ (phi / r) + w_i (sum_j phi_j - 2 phi_i) + sum_k w_k phi_k.
    Where q is exactly 0 off S, TV's derivative here is 1/2, its one-sided
    derivative along q >= 0, where the dense chain's sign(0) gives 0. The
    result agrees with the dense chain to roundoff, not bit for bit.

    phi is not checked to be on the simplex, as cluster_transition checks
    it: the step takes it from the head's softmax, whose rows are finite,
    non-negative and sum to 1 (a property test holds it to that). Non-finite
    rows give a non-finite loss, which _train turns into a NumericalError;
    a row with no overlap still raises DegenerateRowError with its index.

    The first 2 N^2 floats of buffers (allocated here if None) make two
    N x N parts, the overlaps phi phi.T and h; S's dD/dq is allocated.
    """
    _check_kind(divergence)
    n = len(phi)
    if support[-1] >= n * n:
        raise DimensionError(f"target support index {support[-1]} is outside the {n} x {n} batch")
    G, h = np.empty((2, n, n)) if buffers is None else buffers.reshape(-1)[:2 * n * n].reshape(2, n, n)
    G, r = _cluster_overlaps(phi, G)
    rows = support // n
    # |S| < N^2: h holds S's q until h is filled, G the kind's scratch once q is gathered
    qs, tmp = h.reshape(1, -1)[:, :len(support)], G.reshape(1, -1)[:, :len(support)]
    np.take(G, support, out=qs[0], mode="clip")
    qs /= np.take(r, rows, out=tmp[0], mode="clip")
    f0 = _f_at_zero(divergence)
    gs = np.empty_like(qs)
    loss = (DIVERGENCES[divergence](p[None], qs, gs, tmp)[0] + f0 * (n - qs.sum())) / n
    gs -= f0
    gs /= n
    w = np.bincount(rows, weights=np.multiply(gs, qs, out=tmp)[0], minlength=n)
    w /= -r[:, 0]
    h.fill(0.0)
    np.put(h, support, gs[0])
    # one C-wide temporary at a time, t
    t = phi / r
    dphi = h.T @ t
    dphi += np.divide(np.matmul(h, phi, out=t), r, out=t)
    np.multiply(phi, -2.0, out=t)
    t += phi.sum(axis=0)
    t *= w[:, None]
    dphi += t
    dphi += w @ phi
    return float(loss), dphi


def _train(cfg, model, batches, loss, x, labels, names):
    """The training loop of every engine; returns the report and the
    model's features on the points x, those of its last snapshot.

    Each epoch, batches() yields (p, inputs) pairs, p valid by construction,
    for one value_and_grads step and one Adam step each; a gradient tensor
    whose norm, once recorded, exceeds cfg.grad_clip > 0 is scaled to it.
    The named metrics of the features (none without labels) are snapshotted
    after every eval_every-th epoch and the last. Overflow anywhere in a step
    aborts with the step index and divergence tag attached.
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
                value, grads = value_and_grads(model, loss, p, inputs)
                if not np.isfinite(value):
                    raise NumericalError("non-finite loss")
                report.losses.append(value)
                for name, g in grads.items():
                    norm = float(np.sqrt(np.sum(g * g)))
                    report.grad_norms[name].append(norm)
                    if 0.0 < cfg.grad_clip < norm:
                        g *= cfg.grad_clip / norm
                opt.step(grads)
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
            z = features(model, x)
            metrics = {} if labels is None else {name: metric(name, z, labels, cfg.seed) for name in names}
            report.snapshots.append((step - 1, metrics))
            LOG.info("%s epoch %d loss %.6g %s", cfg.task, epoch, value, metrics)
    return report, z


def _resolve(config, task, x):
    """run_<task>'s resolved config, checked to be for that task, and x as floats."""
    cfg = resolve_config(config)
    if cfg.task != task:
        raise ConfigError(f"run_{task} got a config for task {cfg.task!r}")
    return cfg, np.asarray(x, dtype=float)


def build_target(cfg, x):
    """The one-off target of cfg's engine for the points x: SNE's
    Gaussian conditional rows P, the cluster engine's N x k neighbor
    indices; supcon, whose targets are built per batch, has none (None).
    It depends on x and on target_key(cfg) alone."""
    if cfg.task == "sne":
        return supervisory_sne(x, cfg.perplexity)
    if cfg.task == "cluster":
        return _knn_graph(x, cfg.k)
    return None


def target_key(cfg):
    """The config value, besides the points, that build_target(cfg, x)
    depends on; None for an engine without a one-off target."""
    return {"sne": cfg.perplexity, "cluster": cfg.k}.get(cfg.task)


def run_sne(config, x, labels=None, target=None):
    """Full-batch 2-D embedding against Gaussian conditional rows.

    cfg.mode 'free' trains one row per point (initialized from x itself
    when x already has out_dim columns); 'parametric' trains an encoder.
    Supervisory rows, build_target(cfg, x), are given as target or
    computed here once; each epoch is one full-batch Adam step.
    """
    cfg, x = _resolve(config, "sne", x)
    p = build_target(cfg, x) if target is None else target
    spec = KernelSpec(cfg.kernel, cfg.scale)
    rng = np.random.default_rng([cfg.seed, 1])
    if cfg.mode == "free":
        if x.shape[1] == cfg.out_dim:
            model = FreeEmbedding(x.copy())
        else:
            model = FreeEmbedding.init(x.shape[0], cfg.out_dim, rng, scale=cfg.init_scale)
    else:
        model = Encoder.init(cfg.encoder, x.shape[1], cfg.hidden, cfg.out_dim, rng)
    names = ("knn", "silhouette") if labels is not None and len(np.unique(labels)) >= 2 else ("knn",)
    return _train(cfg, model, lambda: [(p, x)], kernel_loss(cfg.divergence, spec), x, labels, names)


def _sub_rows(nbrs, idx, pos):
    """The kNN target of a batch as (S, p_S): S the ascending flat indices
    of its support in the b x b matrix, p_S their weights. Row i weighs
    the members of nbrs[idx[i]] in the batch equally, or, with none, all
    b - 1 other points.

    nbrs is the N x k neighbor index array; pos is an N-long scratch map,
    -1 on entry and on return, from batch points to their slots. Rows are
    mapped about 2**11 neighbor slots at a time: no b x b or b x k array.
    """
    b = idx.shape[0]
    pos[idx] = np.arange(b)
    step = max(1, 2**11 // nbrs.shape[1])
    found = [_in_batch(pos.take(nbrs.take(idx[s:s + step], axis=0)), s, b) for s in range(0, b, step)]
    pos[idx] = -1
    count = np.bincount(np.concatenate(found) // b, minlength=b)
    empty = np.flatnonzero(count == 0)[:, None]
    count[empty] = b - 1
    others = np.arange(b - 1)
    found.append((empty * b + others + (others >= empty)).ravel())
    return np.sort(np.concatenate(found)), np.repeat(1.0 / count, count)


def _in_batch(slot, start, b):
    """Flat b x b indices of the neighbors in the batch of rows start,
    start + 1, ..., given their neighbors' slots (-1 outside the batch)."""
    hit = np.flatnonzero(slot >= 0)
    return (hit // slot.shape[1] + start) * b + slot.ravel()[hit]


def run_cluster(config, x, labels=None, target=None):
    """Mini-batched cluster-head training against a kNN neighbor graph.

    The graph is held as each point's k neighbor indices,
    build_target(cfg, x), given as target or found here once up front,
    never as a dense N x N matrix. Each epoch shuffles the points
    into batches (a trailing batch of fewer than 4 is dropped); a batch's
    target is its support and weights (_sub_rows). Snapshots record
    assignment accuracy when labels are given.
    """
    cfg, x = _resolve(config, "cluster", x)
    nbrs = build_target(cfg, x) if target is None else target
    pos = np.full(x.shape[0], -1, dtype=np.intp)
    head = ClusterHead.init(x.shape[1], cfg.clusters, np.random.default_rng([cfg.seed, 1]))
    shuffle_rng = np.random.default_rng([cfg.seed, 7])

    def batches():
        perm = shuffle_rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            if batch.shape[0] >= 4:
                yield _sub_rows(nbrs, batch, pos), x[batch]

    return _train(cfg, head, batches, cluster_loss(cfg.divergence), x, labels, ("hungarian",))


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
    cfg, x = _resolve(config, "supcon", x)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (x.shape[0],):
        raise DimensionError("labels do not match feature matrix")
    spec = KernelSpec(cfg.kernel, cfg.scale)
    rng = np.random.default_rng([cfg.seed, 1])
    encoder = Encoder.init(cfg.encoder, x.shape[1], cfg.hidden, cfg.out_dim, rng)
    # evaluation.metric's knn scores the points held out here
    train_idx, _ = holdout_split(x.shape[0], seed=cfg.seed)
    shuffle_rng = np.random.default_rng([cfg.seed, 7])

    def batches():
        for batch in _balanced_batches(train_idx, y, cfg.batch_size, shuffle_rng):
            yield supervisory_labels(y[batch]), x[batch]

    report, z = _train(cfg, encoder, batches, kernel_loss(cfg.divergence, spec), x, y, ("knn",))
    chance = 1.0 / np.unique(y).shape[0]
    knn = [metrics["knn"] for _, metrics in report.snapshots]
    report.collapsed = _collapsed(knn, chance, cfg.collapse_arm, cfg.collapse_trip, cfg.collapse_window)
    return report, z


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
