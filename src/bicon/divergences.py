"""Discrete f-divergences and their derivatives in the second argument.

Four kinds are supported: KL, total variation (TV), Jensen-Shannon (JSD)
and squared Hellinger. All values use natural logarithms and the
0*log(0) = 0 convention. The second argument (and the JSD mixture) is
floored at ``EPS`` before logs, roots and divisions, so values stay
finite as q -> 0 while KL keeps its blow-up behaviour in that limit.

Each kind is one function of row-aligned matrices that returns the
per-row values and the derivative in Q together, sharing what the two
have in common. ``divergence_rows`` calls it without simplex validation;
it is the hot path for the trainers and for finite-difference probes,
which deliberately step off the simplex. The scalar entry points
validate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

EPS = 1e-12
SIMPLEX_TOL = 1e-9


def _as_rows(p):
    p = np.asarray(p, dtype=float)
    return p.reshape(1, -1) if p.ndim == 1 else p


def _xlogy(x, ratio):
    """x * log(ratio), and 0 wherever x <= 0: the 0*log(0) = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = x * np.log(ratio)
    terms[x <= 0.0] = 0.0
    return terms


def _kl(P, Q):
    ratio = P / np.maximum(Q, EPS)
    return _xlogy(P, ratio).sum(axis=1), -ratio


def _tv(P, Q):
    diff = Q - P
    # sign(0) = 0 keeps p = q stationary
    return 0.5 * np.abs(diff).sum(axis=1), 0.5 * np.sign(diff)


def _jsd(P, Q):
    Mf = np.maximum(0.5 * (P + Q), EPS)
    value = 0.5 * (_xlogy(P, P / Mf).sum(axis=1) + _xlogy(Q, Q / Mf).sum(axis=1))
    Qf = np.maximum(Q, EPS)
    return value, 0.5 * np.log(2.0 * Qf / (P + Qf))


def _hellinger(P, Q):
    d = np.sqrt(P) - np.sqrt(Q)
    return 0.5 * np.square(d).sum(axis=1), 0.5 * (1.0 - np.sqrt(P / np.maximum(Q, EPS)))


# kind tag -> (P, Q) -> (per-row values, dD/dQ), row-batched
DIVERGENCES = {"KL": _kl, "TV": _tv, "JSD": _jsd, "Hellinger": _hellinger}

KINDS = tuple(DIVERGENCES)


def _check_kind(kind):
    if kind not in DIVERGENCES:
        raise DomainError(f"unknown divergence {kind!r}; expected one of {KINDS}")


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
    return DIVERGENCES[kind](P, Q)


def _validated_pair(kind, p, q):
    """Values and derivative for one validated pair of probability vectors."""
    _check_kind(kind)
    p = validate_probability_vector(p, "p")
    q = validate_probability_vector(q, "q")
    if p.shape != q.shape:
        raise DimensionError(f"p and q lengths differ: {p.shape[0]} vs {q.shape[0]}")
    values, grads = DIVERGENCES[kind](p.reshape(1, -1), q.reshape(1, -1))
    return float(values[0]), grads[0]


def divergence(kind, p, q):
    """D(p || q) for one pair of probability vectors."""
    return _validated_pair(kind, p, q)[0]


def divergence_grad_q(kind, p, q):
    """Componentwise d D(p || q) / d q_k for one pair of probability vectors."""
    return _validated_pair(kind, p, q)[1]
