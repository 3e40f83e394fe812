"""Parameter containers with hand-derived backprop, Adam, and a flat
binary checkpoint format.

Three containers cover the training engines: a free embedding table, a
one-hidden-layer (or linear) encoder, and a linear-softmax cluster head.
Everything is float64; initialization is seeded and uses
uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)) for weights, zeros
for biases, and gaussian(0, 1e-2) for free embedding tables.
"""

from __future__ import annotations

import math
import struct
from functools import partial

import numpy as np

from .errors import DimensionError, NumericalError, ParseError

CHECKPOINT_MAGIC = b"BICN1"


def glorot_uniform(rng, fan_in, fan_out):
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


class FreeEmbedding:
    """One trainable row per data point; no inputs, the table is the output."""

    kind = "free"

    def __init__(self, table):
        table = np.ascontiguousarray(table, dtype=float)
        if table.ndim != 2:
            raise DimensionError(f"embedding table must be 2-D, got shape {table.shape}")
        self.table = table

    @classmethod
    def init(cls, n, out_dim, rng, scale=1e-2):
        return cls(scale * rng.standard_normal((n, out_dim)))

    def params(self):
        return {"embedding": self.table}

    def forward(self, x):
        """The table, which must hold one row per point of x; no cache."""
        if self.table.shape[0] != len(x):
            raise DimensionError(f"free embedding has {len(self.table)} rows but the data has {len(x)} points")
        return self.table, None

    def backward(self, x, cache, dL_dout):
        """The table's gradient is dL/dout itself."""
        return {"embedding": dL_dout}


class Encoder:
    """linear: x W1 + b1. mlp1: tanh(x W1 + b1) W2 + b2."""

    def __init__(self, kind, W1, b1, W2=None, b2=None):
        if kind not in ("linear", "mlp1"):
            raise DimensionError(f"unknown encoder kind {kind!r}")
        self.kind = kind
        self.W1 = np.ascontiguousarray(W1, dtype=float)
        self.b1 = np.ascontiguousarray(b1, dtype=float)
        if kind == "mlp1":
            if W2 is None or b2 is None:
                raise DimensionError("mlp1 encoder needs W2 and b2")
            self.W2 = np.ascontiguousarray(W2, dtype=float)
            self.b2 = np.ascontiguousarray(b2, dtype=float)
        else:
            self.W2 = None
            self.b2 = None

    @classmethod
    def init(cls, kind, in_dim, hidden, out_dim, rng):
        if kind not in ("linear", "mlp1"):
            raise DimensionError(f"unknown encoder kind {kind!r}")
        if kind == "linear":
            return cls("linear", glorot_uniform(rng, in_dim, out_dim), np.zeros(out_dim))
        return cls(
            "mlp1",
            glorot_uniform(rng, in_dim, hidden),
            np.zeros(hidden),
            glorot_uniform(rng, hidden, out_dim),
            np.zeros(out_dim),
        )

    def params(self):
        if self.kind == "linear":
            return {"W1": self.W1, "b1": self.b1}
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def forward(self, x):
        """The output for a batch of rows, and the hidden layer
        tanh(x W1 + b1) that backward reuses (None for a linear encoder)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.W1.shape[0]:
            raise DimensionError(f"input shape {x.shape} does not match W1 {self.W1.shape}")
        a = x @ self.W1 + self.b1
        if self.kind == "linear":
            return a, None
        h = np.tanh(a)
        return h @ self.W2 + self.b2, h

    def backward(self, x, h, dL_dout):
        """Parameter gradients, given h from forward(x)."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(dL_dout, dtype=float)
        if g.ndim != 2 or g.shape[0] != x.shape[0]:
            raise DimensionError(f"gradient shape {g.shape} does not match input {x.shape}")
        if self.kind == "linear":
            return {"W1": x.T @ g, "b1": g.sum(axis=0)}
        dh = g @ self.W2.T
        da = dh * (1.0 - h * h)  # tanh' = 1 - tanh^2
        return {
            "W1": x.T @ da,
            "b1": da.sum(axis=0),
            "W2": h.T @ g,
            "b2": g.sum(axis=0),
        }


class ClusterHead:
    """Linear layer followed by a row softmax over cluster logits."""

    kind = "head"

    def __init__(self, W, b):
        self.W = np.ascontiguousarray(W, dtype=float)
        self.b = np.ascontiguousarray(b, dtype=float)

    @classmethod
    def init(cls, in_dim, clusters, rng):
        return cls(glorot_uniform(rng, in_dim, clusters), np.zeros(clusters))

    def params(self):
        return {"W": self.W, "b": self.b}

    def forward(self, x):
        """Soft assignment rows, each summing to 1 for arbitrary finite
        input; they are also the cache backward reuses."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.W.shape[0]:
            raise DimensionError(f"input shape {x.shape} does not match W {self.W.shape}")
        probs = softmax_rows(x @ self.W + self.b)
        return probs, probs

    def backward(self, x, probs, dL_dprobs):
        """Parameter gradients through the softmax, given probs from
        forward(x)."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(dL_dprobs, dtype=float)
        if g.shape != probs.shape:
            raise DimensionError(f"gradient shape {g.shape} does not match assignments {probs.shape}")
        dlogits = probs * (g - np.sum(g * probs, axis=1, keepdims=True))
        return {"W": x.T @ dlogits, "b": dlogits.sum(axis=0)}


def features(model, x):
    """The rows a model's metrics score for the points x: its forward's
    output (a free embedding's table, which must hold one row per point)."""
    return model.forward(x)[0]


def softmax_rows(logits):
    """Row softmax; each row is shifted by its maximum before exponentiation.
    The maxima are taken down the columns of a contiguous copy of
    logits.T, which is faster than reducing many short rows and, max being
    exact, gives the same bits."""
    shifted = logits - np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]
    w = np.exp(shifted)
    return w / w.sum(axis=1, keepdims=True)


class Adam:
    """Adam with bias correction; updates parameter arrays in place."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}

    def step(self, grads):
        for name in self.params:
            if name not in grads:
                raise DimensionError(f"missing gradient for parameter {name!r}")
            if not np.all(np.isfinite(grads[name])):
                raise NumericalError(f"non-finite gradient entries in {name!r}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# each checkpoint kind tag: the model kind, its tensors' ranks in
# params() order, and the constructor that takes those tensors
_CHECKPOINT_KINDS = {
    0: ("free", (2,), FreeEmbedding),
    1: ("linear", (2, 1), partial(Encoder, "linear")),
    2: ("mlp1", (2, 1, 2, 1), partial(Encoder, "mlp1")),
    3: ("head", (2, 1), ClusterHead),
}


def save_checkpoint(path, model):
    """Flat binary checkpoint: magic, kind tag and shapes as little-endian
    int64, then all parameter tensors as row-major little-endian float64."""
    tensors = list(model.params().values())
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<q", next(tag for tag, (kind, _, _) in _CHECKPOINT_KINDS.items() if kind == model.kind)))
        f.write(struct.pack("<q", len(tensors)))
        for a in tensors:
            f.write(struct.pack("<q", a.ndim))
            f.write(struct.pack(f"<{a.ndim}q", *a.shape))
        for a in tensors:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)

    def read_ints(count):
        nonlocal offset
        end = offset + 8 * count
        if end > len(blob):
            raise ParseError(f"{path}: truncated checkpoint header")
        vals = struct.unpack(f"<{count}q", blob[offset:end])
        offset = end
        return vals

    (tag,) = read_ints(1)
    if tag not in _CHECKPOINT_KINDS:
        raise ParseError(f"{path}: unknown model kind tag {tag}")
    kind, ranks, make = _CHECKPOINT_KINDS[tag]
    (count,) = read_ints(1)
    if count != len(ranks):
        raise ParseError(f"{path}: expected {len(ranks)} tensors for {kind!r}, header says {count}")
    shapes = []
    for i, rank in enumerate(ranks):
        (ndim,) = read_ints(1)
        if ndim != rank:
            raise ParseError(f"{path}: tensor {i} of a {kind!r} model must have rank {rank}, header says {ndim}")
        shapes.append(read_ints(ndim))
    # each tensor's first dimension is the last one of the tensor before it
    for prev, shape in zip(shapes, shapes[1:]):
        if shape[0] != prev[-1]:
            raise ParseError(f"{path}: tensor shapes {prev} and {shape} do not fit together")
    tensors = []
    for shape in shapes:
        # no run makes an empty tensor, and an empty head has no assignment
        if any(dim < 1 for dim in shape):
            raise ParseError(f"{path}: zero or negative dimension in tensor shape {shape}")
        # Python ints: a declared shape's byte count must not wrap around
        size = math.prod(shape)
        if 8 * size > len(blob) - offset:
            raise ParseError(f"{path}: truncated checkpoint payload")
        end = offset + 8 * size
        arr = np.frombuffer(blob[offset:end], dtype="<f8").astype(float).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: tensor {len(tensors)} contains non-finite values")
        tensors.append(arr)
        offset = end
    if offset != len(blob):
        raise ParseError(f"{path}: {len(blob) - offset} trailing bytes after payload")
    return make(*tensors)
