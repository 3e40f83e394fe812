"""Discrete f-divergences and their derivatives in the second argument.

Four kinds are supported: KL, total variation (TV), Jensen-Shannon (JSD)
and squared Hellinger. All values use natural logarithms and the
0*log(0) = 0 convention.

Each kind comes in two forms, both of row-aligned matrices that return
the per-row values and write into a buffer the caller gives them:

- DIVERGENCES writes the derivative dD/dQ. Its second argument (and the
  JSD mixture) is floored at ``EPS`` before logs, roots and divisions,
  so values stay finite as q -> 0 while KL keeps its blow-up behaviour in
  that limit. ``divergence_rows`` calls it without simplex validation, in
  buffers of its own; it serves ``loss_and_grad``, the finite-difference
  probes, which deliberately step off the simplex, and the cluster step,
  which runs it on its target's support. The scalar entry points validate
  their inputs.
- FORCES serves the softmax steps, which know log q exactly. It writes
  the per-pair force F = q dD/dq (KL -p, TV q sign(q - p) / 2, JSD
  q (log q - log m) / 2 with m = (p + q) / 2, Hellinger (q - sqrt(pq)) / 2),
  finite as q -> 0 with no floor, less c q for a per-row constant c that
  each kind picks to save passes: the softmax backward t = F - q sum(F)
  cancels any multiple of q. Values come from log q with no per-entry log
  of q, so a step's gradient is its value's.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import DimensionError, DomainError

EPS = 1e-12
# the smallest positive float64
_TINY = 2.0 ** -1074
_LOG2 = float(np.log(2.0))
SIMPLEX_TOL = 1e-9


def _as_rows(p):
    p = np.asarray(p, dtype=float)
    return p.reshape(1, -1) if p.ndim == 1 else p


def _xlogy(x, ratio, out):
    """out = x * log(ratio), and 0 wherever x <= 0: the 0*log(0) = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(ratio, out=out)
        out *= x
    out[x <= 0.0] = 0.0
    return out


def _kl(P, Q, out, tmp):
    ratio = np.divide(P, np.maximum(Q, EPS, out=out), out=out)
    values = _xlogy(P, ratio, tmp).sum(axis=1)
    np.negative(ratio, out=out)
    return values


def _tv(P, Q, out, tmp):
    diff = np.subtract(Q, P, out=tmp)
    # sign(0) = 0 keeps p = q stationary; numpy's sign is far slower in place
    np.sign(diff, out=out)
    out *= 0.5
    return 0.5 * np.abs(diff, out=diff).sum(axis=1)


def _jsd(P, Q, out, tmp):
    Mf = np.add(P, Q, out=out)
    Mf *= 0.5
    np.maximum(Mf, EPS, out=Mf)
    vp = _xlogy(P, np.divide(P, Mf, out=tmp), tmp).sum(axis=1)
    vq = _xlogy(Q, np.divide(Q, Mf, out=tmp), tmp).sum(axis=1)
    Qf = np.maximum(Q, EPS, out=out)
    denom = np.add(P, Qf, out=tmp)
    # 0.5 * log(2 Qf / (P + Qf))
    Qf *= 2.0
    np.log(np.divide(Qf, denom, out=out), out=out)
    out *= 0.5
    return 0.5 * (vp + vq)


def _hellinger(P, Q, out, tmp):
    d = np.sqrt(P, out=tmp)
    d -= np.sqrt(Q, out=out)
    values = 0.5 * np.square(d, out=d).sum(axis=1)
    np.sqrt(np.divide(P, np.maximum(Q, EPS, out=out), out=out), out=out)
    np.subtract(1.0, out, out=out)
    out *= 0.5
    return values


# kind tag -> (P, Q, out, tmp) -> per-row values, row-batched, with dD/dQ
# written into out; tmp is scratch of P's shape. Each is one formula in
# place: the same operations, in the same order, as out-of-place numpy.
DIVERGENCES = {"KL": _kl, "TV": _tv, "JSD": _jsd, "Hellinger": _hellinger}

KINDS = tuple(DIVERGENCES)


def target_terms(P, tmp):
    """(sum p log p, sum p) of each row of target rows P: the per-target
    constants of the FORCES kinds, taken len(tmp) rows at a time with tmp
    as scratch."""
    terms = np.empty((2, len(P)))
    for a in range(0, len(P), len(tmp)):
        rows = P[a:a + len(tmp)]
        terms[0, a:a + len(rows)] = _xlogy(rows, rows, tmp[:len(rows)]).sum(axis=1)
        terms[1, a:a + len(rows)] = rows.sum(axis=1)
    return terms


# The force kinds take softmax rows Q with their shifted scores W and log
# normalisers lse (log Q = W - lse; W's diagonal, where P and Q are 0, is
# 0, and it is scratch once read), and target_terms' plogp and psum. Each
# writes F - c q into out and returns the per-row values and the row sums
# of what it wrote; a sum of q is taken as 1, its value on the simplex.


def _kl_force(P, Q, W, lse, plogp, psum, out):
    # c = 0; sum p log(p / q) = sum p log p - sum p W + lse sum p
    np.negative(P, out=out)
    return plogp - np.einsum("ij,ij->i", P, W) + lse * psum, -psum


def _tv_force(P, Q, W, lse, plogp, psum, out):
    # c = 0: q sign(q - p) / 2, where sign(0) = 0 keeps p = q stationary
    diff = np.subtract(Q, P, out=W)
    F = np.sign(diff, out=out)
    value = 0.5 * np.einsum("ij,ij->i", diff, F)
    F *= Q
    F *= 0.5
    return value, F.sum(axis=1)


def _jsd_force(P, Q, W, lse, plogp, psum, out):
    # c = f(0) - lse / 2 = (log 2 - lse) / 2: q (W - log(p + q)) / 2. The value,
    # (sum p log p + sum q log q) / 2 - sum m log m with log q = W - lse and
    # log m = log(p + q) - log 2; the floor only keeps log(p + q) finite
    # where p = q = 0
    qw = np.einsum("ij,ij->i", Q, W)
    logs = np.add(P, Q, out=out)
    np.log(np.maximum(logs, _TINY, out=logs), out=logs)
    qs = np.einsum("ij,ij->i", Q, logs)
    value = 0.5 * (plogp + qw - lse - np.einsum("ij,ij->i", P, logs) - qs + _LOG2 * (psum + 1.0))
    F = np.subtract(W, logs, out=out)
    F *= Q
    F *= 0.5
    return value, 0.5 * (qw - qs)


def _hellinger_force(P, Q, W, lse, plogp, psum, out):
    # c = 1/2: -sqrt(pq) / 2; the value (sum p + sum q) / 2 - sum sqrt(pq)
    root = np.sqrt(np.multiply(P, Q, out=out), out=out)
    overlap = root.sum(axis=1)
    root *= -0.5
    return 0.5 * (psum + 1.0) - overlap, -0.5 * overlap


FORCES = {"KL": _kl_force, "TV": _tv_force, "JSD": _jsd_force, "Hellinger": _hellinger_force}


def _check_kind(kind):
    if kind not in DIVERGENCES:
        raise DomainError(f"unknown divergence {kind!r}; expected one of {KINDS}")


@cache
def _f_at_zero(kind):
    """f(0) of a kind, read off its value at one entry with p = 0, q = 1.

    At an entry where p = 0 every kind's term is q * f(0) and its
    derivative in q is f(0), for any q >= 2 * EPS (KL 0, TV 1/2, JSD
    ln(2) / 2, Hellinger 1/2), so a row's value is its terms on p's
    support plus f(0) times the rest of q's mass.
    """
    one = np.ones((1, 1))
    return float(DIVERGENCES[kind](np.zeros((1, 1)), one, np.empty((1, 1)), np.empty((1, 1)))[0])


def validate_probability_vector(p, name="p"):
    """Check that p is a finite probability vector; return it as float64."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise DimensionError(f"{name} must be a 1-D vector of length >= 2, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{name} contains non-finite entries")
    if np.any(p < 0.0):
        raise DomainError(f"{name} contains negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise DomainError(f"{name} sums to {total!r}, expected 1 within {SIMPLEX_TOL}")
    return p


def divergence_rows(kind, P, Q):
    """(per-row values, dD/dQ) for row-aligned matrices or one 1-D row
    pair, without simplex validation."""
    _check_kind(kind)
    P = _as_rows(P)
    Q = _as_rows(Q)
    if P.ndim != 2 or P.shape != Q.shape:
        raise DimensionError(f"expected row matrices of one shape, got {P.shape} and {Q.shape}")
    grads = np.empty(P.shape)
    return DIVERGENCES[kind](P, Q, grads, np.empty(P.shape)), grads


def _validated_pair(kind, p, q):
    """Values and derivative for one validated pair of probability vectors."""
    _check_kind(kind)
    p = validate_probability_vector(p, "p")
    q = validate_probability_vector(q, "q")
    if p.shape != q.shape:
        raise DimensionError(f"p and q lengths differ: {p.shape[0]} vs {q.shape[0]}")
    values, grads = divergence_rows(kind, p, q)
    return float(values[0]), grads[0]


def divergence(kind, p, q):
    """D(p || q) for one pair of probability vectors."""
    return _validated_pair(kind, p, q)[0]


def divergence_grad_q(kind, p, q):
    """Componentwise d D(p || q) / d q_k for one pair of probability vectors."""
    return _validated_pair(kind, p, q)[1]
