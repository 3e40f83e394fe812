"""Similarity kernels, softmax transition rows, and the supervisory
neighborhood constructions they are trained against.

A transition matrix here always means: square, zero diagonal, each row a
probability distribution over the other points. Learned rows come from a
row softmax over kernel scores (diagonal excluded); supervisory rows come
from the data (Gaussian conditionals, shared labels, or k-nearest
neighbors) or from cluster assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRowError, DimensionError, DomainError, NumericalError

KERNEL_FAMILIES = ("angular", "distance")

_UNIT_TOL = 1e-9

# floats per squared_distances buffer: a block of rows times len(b)
_BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus the scale C multiplying raw similarities."""

    family: str
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise DomainError(f"kernel scale must be finite and > 0, got {self.scale!r}")


def squared_distances(a, b=None, block=None):
    """Pairwise squared euclidean distances between rows of a and b.

    Each entry matches a direct per-pair recomputation
    np.sum((a[i] - b[j]) ** 2) bit for bit, because the squared
    differences are added in np.sum's own pairwise order, replayed one
    coordinate at a time over whole block x len(b) buffers:

    - fewer than 8 terms are added left to right;
    - 8 to 128 terms go to 8 running sums (term t to sum t % 8) while
      whole groups of 8 remain; the sums are combined as
      ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), and the last
      len % 8 terms are then added in order;
    - more than 128 terms split at half the count, rounded down to a
      multiple of 8, and the two halves' sums are added.

    Rows of a are taken block at a time. By default a block holds about
    2**15 / len(b) rows, so that each buffer (about 2**15 floats) stays
    in cache. The buffers come from one allocation: one temporary, and
    from 8 terms up 7 running sums beside the output rows, plus one per
    level of splitting.

    A blocked np.sum(diff * diff, axis=-1) gives the same bits, but it
    reduces a d-long inner axis once per entry: at d = 2 that is about
    9 times slower, and at d = 16 about 1.6 times (numpy 2.4, one Xeon
    core).
    """
    a = np.asarray(a, dtype=float)
    b = a if b is None else np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"expected row matrices with equal widths, got {a.shape} and {b.shape}")
    n, m = a.shape[0], b.shape[0]
    if block is None:
        block = max(1, _BLOCK_FLOATS // max(m, 1))
    out = np.empty((n, m))
    # one contiguous row per coordinate
    at = np.ascontiguousarray(a.T)
    bt = at if b is a else np.ascontiguousarray(b.T)
    # one allocation, not one per buffer: freeing a block this large (2 MB
    # from 8 terms up) raises glibc's dynamic mmap threshold, which keeps
    # the N x N temporaries of supervisory_sne and the SNE step on the heap
    # instead of mapping and faulting them in afresh on every call
    tmp, *sums = np.empty((1 + _sums_needed(a.shape[1]), min(block, n), m))
    # overflow to inf is legal here; consumers validate finiteness
    with np.errstate(over="ignore"):
        for start in range(0, n, block):
            rows = out[start:start + block]
            _add_squares(rows, at[:, start:start + block], bt, tmp[:len(rows)], sums)
    return out


def _sums_needed(count):
    """Running-sum buffers that _add_squares needs for count terms."""
    if count > 128:
        half = count // 2 - count // 2 % 8
        return max(_sums_needed(half), 1 + _sums_needed(count - half))
    return 7 if count >= 8 else 0


def _add_squares(dst, ac, bc, tmp, sums, level=0):
    """Set dst[i, j] to the sum over k of (ac[k, i] - bc[k, j]) ** 2,
    added in np.sum's order (see squared_distances). A leaf at this
    level adds into dst and sums[level:level + 7]; a split keeps its
    second half's sum in sums[level]."""
    count = ac.shape[0]

    def square(k, into):
        np.subtract(ac[k, :, None], bc[k], out=into)
        np.multiply(into, into, out=into)

    def add(k, into):
        square(k, tmp)
        into += tmp

    if count > 128:
        half = count // 2 - count // 2 % 8
        _add_squares(dst, ac[:half], bc[:half], tmp, sums, level)
        rest = sums[level][:len(dst)]
        _add_squares(rest, ac[half:], bc[half:], tmp, sums, level + 1)
        dst += rest
    elif count >= 8:
        s = [dst] + [buf[:len(dst)] for buf in sums[level:level + 7]]
        whole = count - count % 8
        for k in range(8):
            square(k, s[k])
        for k in range(8, whole):
            add(k, s[k % 8])
        s[0] += s[1]
        s[2] += s[3]
        s[0] += s[2]
        s[4] += s[5]
        s[6] += s[7]
        s[4] += s[6]
        s[0] += s[4]
        for k in range(whole, count):
            add(k, dst)
    elif count:
        # np.sum starts at 0.0, and 0.0 + t == t for every square t
        square(0, dst)
        for k in range(1, count):
            add(k, dst)
    else:
        dst.fill(0.0)


def normalize_rows(z):
    """Scale each row to unit euclidean norm."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {z.shape}")
    norms = np.sqrt(np.sum(z * z, axis=1, keepdims=True))
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise DomainError("cannot normalize rows with zero or non-finite norm")
    return z / norms


def similarity_matrix(z, spec):
    """Scaled pairwise similarity scores.

    angular: C * (z_i . z_j), rows must already be unit norm.
    distance: C * (-||z_i - z_j||^2).

    Diagonal entries are computed but carry no meaning; every consumer
    excludes them.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 2:
        raise DimensionError(f"expected an N x d matrix with N >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise DomainError("embedding contains non-finite entries")
    if spec.family == "angular":
        norms = np.sqrt(np.sum(z * z, axis=1))
        if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
            raise DomainError("angular kernel requires unit-norm rows (within 1e-9)")
        return spec.scale * (z @ z.T)
    return -spec.scale * squared_distances(z)


def kernel_rows(scores):
    """Row softmax of a score matrix with the diagonal excluded.

    Each row is shifted by its off-diagonal maximum before exponentiation;
    entries far below the row maximum may underflow to exact zero.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"expected a square score matrix, got shape {s.shape}")
    n = s.shape[0]
    if n < 2:
        raise DimensionError("need at least 2 points for transition rows")
    # one n x n buffer, updated in place: scores, shifted scores, weights, rows
    w = s.copy()
    np.fill_diagonal(w, 0.0)
    if not np.all(np.isfinite(w)):
        raise DomainError("off-diagonal scores contain non-finite entries")
    np.fill_diagonal(w, -np.inf)
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def softmax_rows_grad(q, dL_dq):
    """Pull a gradient in the transition rows back to the scores."""
    inner = np.sum(dL_dq * q, axis=1, keepdims=True)
    out = dL_dq - inner
    out *= q
    return out


def kernel_rows_grad(z, spec, dL_dq):
    """Gradient of a scalar loss with respect to the raw embedding rows.

    Chains loss -> transition rows -> scores -> embedding. For the
    angular family z is the raw (unnormalized) embedding; the unit-sphere
    normalization consumed by similarity_matrix is part of the chain, so
    the returned gradient includes the tangent-space projection. Runs
    learned_rows(z, spec) and then the same backward pass that the
    training steps apply to their own forward rows.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(dL_dq, dtype=float)
    if z.ndim != 2 or g.shape != (z.shape[0], z.shape[0]):
        raise DimensionError(f"shape mismatch: z {z.shape}, dL_dq {g.shape}")
    if np.any(np.diagonal(g) != 0.0):
        raise DomainError("dL_dq must be zero on the diagonal")
    return _kernel_rows_backward(z, spec, learned_rows(z, spec), g)


def _kernel_rows_backward(z, spec, q, dL_dq):
    """kernel_rows_grad given q = learned_rows(z, spec) from the forward pass."""
    t = softmax_rows_grad(q, dL_dq)
    s = t + t.T
    if spec.family == "angular":
        norms = np.sqrt(np.sum(z * z, axis=1, keepdims=True))
        u = z / norms
        du = spec.scale * (s @ u)
        # project onto the tangent space of the unit sphere, undo the scaling
        return (du - np.sum(du * u, axis=1, keepdims=True) * u) / norms
    # d score_ij / d z_i = -2C (z_i - z_j)
    return -2.0 * spec.scale * (s.sum(axis=1, keepdims=True) * z - s @ z)


def learned_rows(z, spec):
    """Transition rows of an embedding: softmax kernel, diagonal excluded.

    Normalizes rows first for the angular family; this is the composition
    whose gradient kernel_rows_grad computes.
    """
    if spec.family == "angular":
        z = normalize_rows(z)
    return kernel_rows(similarity_matrix(z, spec))


def validate_distribution(mat, tol=1e-9):
    """Raise unless mat is square with zero diagonal and unit row sums."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise DimensionError(f"expected a square transition matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("transition matrix contains non-finite entries")
    if np.any(np.diagonal(m) != 0.0):
        raise DomainError("transition matrix diagonal must be exactly zero")
    if np.any(m < 0.0):
        raise DomainError("transition matrix contains negative entries")
    err = np.max(np.abs(m.sum(axis=1) - 1.0))
    if err > tol:
        raise DomainError(f"transition rows must sum to 1 within {tol}, worst error {err!r}")
    return m


def _row_stats(d2, beta, off):
    """Transition rows and exp(entropy) per row for bandwidths beta."""
    t = np.where(off, -beta[:, None] * d2, -np.inf)
    t = t - t.max(axis=1, keepdims=True)
    w = np.exp(t)
    P = w / w.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = P * np.log(P)
    plogp[P <= 0.0] = 0.0
    return P, np.exp(-plogp.sum(axis=1))


def supervisory_sne(x, perplexity, max_iter=64, tol=1e-4):
    """Gaussian conditional neighbor rows with per-point bandwidths.

    Row i is exp(-||x_i - x_j||^2 / (2 sigma_i^2)) normalized over j != i,
    with sigma_i found by bisection so that exp(row entropy) matches the
    requested perplexity within tol. Rows whose entropy does not depend
    on the bandwidth at all (mutually equidistant neighborhoods) are
    accepted as-is; any other row that fails to converge raises, carrying
    the row index.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 3:
        raise DimensionError(f"expected an N x d matrix with N >= 3, got shape {x.shape}")
    n = x.shape[0]
    if not (2.0 <= perplexity <= n - 1):
        raise DomainError(f"perplexity must lie in [2, N-1] = [2, {n - 1}], got {perplexity!r}")
    target = float(perplexity)
    d2 = squared_distances(x)
    off = ~np.eye(n, dtype=bool)

    # bisection runs on beta = 1 / (2 sigma^2); exp-entropy decreases in beta
    hi = np.ones(n)
    _, f_lo = _row_stats(d2, np.zeros(n), off)
    _, f_hi = _row_stats(d2, hi, off)
    for _ in range(max_iter):
        if not np.all(np.isfinite(f_hi)):
            raise NumericalError(
                "non-finite entropy during bandwidth search",
                row=int(np.argmin(np.isfinite(f_hi))),
            )
        need = f_hi > target
        if not need.any():
            break
        hi[need] *= 2.0
        _, f_hi = _row_stats(d2, hi, off)

    unreachable = f_hi > target
    if unreachable.any():
        flat = np.abs(f_hi - f_lo) <= tol
        bad = unreachable & ~flat
        if bad.any():
            raise NumericalError(
                f"bandwidth bisection did not converge after {max_iter} doublings",
                row=int(np.argmax(bad)),
            )
    active = ~unreachable
    lo = np.where(hi > 1.0, 0.5 * hi, 0.0)

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        _, f_mid = _row_stats(d2, mid, off)
        go_hi = f_mid >= target
        lo = np.where(active & go_hi, mid, lo)
        hi = np.where(active & ~go_hi, mid, hi)
    beta = np.where(active, 0.5 * (lo + hi), hi)

    P, f = _row_stats(d2, beta, off)
    bad = active & (np.abs(f - target) > tol)
    if bad.any():
        raise NumericalError(
            f"bandwidth bisection did not reach perplexity {target} within {tol}",
            row=int(np.argmax(bad)),
        )
    return P


def supervisory_labels(labels):
    """Uniform neighbor rows over the other points sharing a label."""
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] < 2:
        raise DimensionError(f"expected a 1-D label vector of length >= 2, got shape {y.shape}")
    uniq, inv, counts = np.unique(y, return_inverse=True, return_counts=True)
    if np.any(counts < 2):
        lone = uniq[np.argmin(counts)]
        raise DomainError(f"label class {lone!r} has a single member; every class needs >= 2")
    same = inv[:, None] == inv[None, :]
    np.fill_diagonal(same, False)
    return same / (counts[inv] - 1)[:, None]


def supervisory_knn(x, k):
    """Uniform neighbor rows over each point's k nearest others.

    Distance ties are broken toward the smaller index. The rows are
    scattered from _knn_graph's N x k neighbor indices, the form in which
    run_cluster holds this target. Raises DomainError, as _knn does, for
    features whose squared norms or distances are not finite.
    """
    nbrs = _knn_graph(x, k)
    P = np.zeros((nbrs.shape[0], nbrs.shape[0]))
    np.put_along_axis(P, nbrs, 1.0 / k, axis=1)
    return P


def _knn_graph(x, k):
    """Column indices of each point's k nearest others, N x k in ascending
    index order. The neighbors are those of the exact squared_distances
    matrix, found by _knn's certified prefilter without building that
    matrix; features whose squared norms or distances are not finite
    raise DomainError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionError(f"expected an N x d matrix with N >= 2, got shape {x.shape}")
    n = x.shape[0]
    if not (1 <= k <= n - 1):
        raise DomainError(f"k must lie in [1, N-1] = [1, {n - 1}], got {k!r}")
    return _knn(x, x, k, exclude_self=True)


# unit roundoff and smallest subnormal of float64
_U = 2.0 ** -53
_ETA = 2.0 ** -1074

_OVERFLOW = "k-nearest neighbours need features whose squared norms and distances are finite"


def _knn(a, b, k, exclude_self=False):
    """Column indices of each row of a's k nearest rows of b, in
    ascending column order: _nearest(squared_distances(a, b), k), over
    each row's other columns when exclude_self (a is b), found without
    building the N x M matrix of exact distances.

    Each row is ranked by h_ij = |b_j|^2 - 2 a_i . b_j from one
    (-2 a) @ b.T product (doubling is exact); |a_i|^2 is the same along a
    row, so it does not change the order. Only the pairs that h cannot
    rule out get their exact distance e_ij, the squared_distances value.
    Rows of a are ranked a block at a time (about 2**15 entries of h,
    as in squared_distances), so h and its partition stay in cache and
    no N x M array is built; the candidates' exact distances are then
    computed in chunks of about 2**18 floats.

    The error bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 2.1 and 3.1). Let u be the unit
    roundoff, d the width, gamma_n = n u / (1 - n u), A = |a_i|^2,
    B = max_j |b_j|^2 and eta the smallest subnormal. A product that
    underflows is off by at most eta / 2; a sum loses nothing to
    underflow. Then:

    - e_ij adds d rounded squares of rounded differences, in any order,
      so it is within gamma_(d+2) |a_i - b_j|^2 + d eta / 2 of the exact
      |a_i - b_j|^2, which is at most 2 (A + B);
    - (-2 a_i) . b_j and |b_j|^2, summed in any order (blocked, threaded
      or fused BLAS included), are each within gamma_d times the sum of
      their terms' magnitudes, plus d eta / 2; with 2 |a_i| |b_j| <= A + B
      and the final addition, h_ij is within gamma_(d+1) (A + 2 B) +
      d eta of the exact |b_j|^2 - 2 a_i . b_j.

    So |h_ij + A - e_ij| <= 4 gamma_(d+2) (A + B) + 2 d eta (1 + gamma_d).
    slack_i = 8 (d + 4) (u (A + B) + eta) is about twice that, computed
    from rounded norms; the spare covers the rounding of the norms, of
    slack_i and of tau_i + 2 slack_i (about 2 u (A + B) at most).

    Why no pair outside the candidates can be selected. tau_i is row i's
    k-th smallest h. The k or more pairs with h_ij <= tau_i all have
    e_ij <= tau_i + A + slack_i, so the k-th smallest exact distance
    eps_k is at most that. A pair with h_ij > tau_i + 2 slack_i has
    e_ij >= h_ij + A - slack_i > tau_i + A + slack_i >= eps_k: strictly
    farther than the k-th exact distance, which no (distance, index) tie
    can reach. Every pair with e_ij <= eps_k is thus a candidate, and
    _nearest over the candidates, packed in ascending column order and
    padded with +inf after them, picks what it would over the whole row.
    An h of +inf (the self pair's with exclude_self, or an overflow) is
    above every finite threshold, so its pair is never a candidate; with
    finite slack, h is never NaN or -inf. The bound needs finite
    thresholds tau_i + 2 slack_i and candidate distances: inputs that
    make either non-finite (inf or NaN entries, or overflow) raise
    DomainError.
    """
    n, d = a.shape
    m = len(b)
    # overflow, inf and NaN are legal here; the checks below catch those that matter
    with np.errstate(over="ignore", invalid="ignore"):
        bb = np.einsum("ij,ij->i", b, b)
        slack = 8.0 * (d + 4) * (_U * (np.einsum("ij,ij->i", a, a) + bb.max()) + _ETA)
    found = []
    block = max(1, _BLOCK_FLOATS // max(m, 1))
    for start in range(0, n, block):
        stop = min(start + block, n)
        with np.errstate(over="ignore", invalid="ignore"):
            h = (-2.0 * a[start:stop]) @ b.T
            h += bb
            if exclude_self:
                h[np.arange(stop - start), np.arange(start, stop)] = np.inf
            top = np.partition(h, k - 1, axis=1)[:, k - 1:k] + 2.0 * slack[start:stop, None]
        if not np.isfinite(top).all():
            raise DomainError(_OVERFLOW)
        found.append(np.flatnonzero(h <= top) + start * m)
    rows, cols = np.divmod(np.concatenate(found), m)
    e = np.empty(len(rows))
    origin = np.zeros((1, d))
    step = max(1, 8 * _BLOCK_FLOATS // max(d, 1))
    for s in range(0, len(rows), step):
        # |a_i - b_j - 0|^2 is squared_distances' value of the pair, bit for bit
        e[s:s + step] = squared_distances(a[rows[s:s + step]] - b[cols[s:s + step]], origin)[:, 0]
    if not np.isfinite(e).all():
        raise DomainError(_OVERFLOW)
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    d2 = np.full((n, counts.max()), np.inf)
    d2[rows, slot] = e
    col = np.zeros(d2.shape, dtype=np.intp)
    col[rows, slot] = cols
    return np.take_along_axis(col, _nearest(d2, k), axis=1)


def _nearest(d2, k):
    """Column indices of each row's k smallest entries, in ascending
    column order: the index set of np.argsort(d2, axis=1,
    kind="stable")[:, :k] for NaN-free d2, found without a full sort.

    np.partition finds each row's k-th smallest value; the row takes
    every entry below it, then the lowest-index entries equal to it
    until it has k.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below = d2 < kth
    tied = d2 == kth
    need = k - np.count_nonzero(below, axis=1)
    over = np.count_nonzero(tied, axis=1) > need
    if over.any():
        tied[over] &= np.cumsum(tied[over], axis=1) <= need[over, None]
    below |= tied
    return np.nonzero(below)[1].reshape(-1, k)


def cluster_transition(assignments):
    """Transition rows induced by soft cluster assignments.

    q(j | i) = (phi_i . phi_j) / sum_{k != i} (phi_i . phi_k), diagonal
    zero. A row whose off-diagonal overlap is all zero cannot be
    normalized and raises, carrying the row index.
    """
    return _cluster_transition(assignments)[0]


def _cluster_transition(assignments):
    """cluster_transition's rows q and their overlap sums r (N x 1), which
    _cluster_transition_backward reuses."""
    phi = np.asarray(assignments, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 2:
        raise DimensionError(f"expected an N x C assignment matrix with N >= 2, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)) or np.any(phi < 0.0):
        raise DomainError("assignments must be finite and non-negative")
    err = np.max(np.abs(phi.sum(axis=1) - 1.0))
    if err > 1e-9:
        raise DomainError(f"assignment rows must sum to 1 within 1e-9, worst error {err!r}")
    G = phi @ phi.T
    np.fill_diagonal(G, 0.0)
    r = G.sum(axis=1, keepdims=True)
    if np.any(r <= 0.0):
        row = int(np.argmax(r <= 0.0))
        raise DegenerateRowError(
            f"row {row} has zero overlap with every other point", row=row
        )
    G /= r
    return G, r


def cluster_transition_grad(assignments, dL_dq):
    """Pull a gradient in cluster_transition's output back to assignments.

    Runs cluster_transition first, so assignments are checked as there.
    """
    phi = np.asarray(assignments, dtype=float)
    g = np.asarray(dL_dq, dtype=float)
    if g.shape != (phi.shape[0], phi.shape[0]):
        raise DimensionError(f"shape mismatch: assignments {phi.shape}, dL_dq {g.shape}")
    q, r = _cluster_transition(phi)
    return _cluster_transition_backward(phi, q, r, g)


def _cluster_transition_backward(phi, q, r, dL_dq):
    """cluster_transition_grad given q, r = _cluster_transition(phi)."""
    M = (dL_dq - np.sum(dL_dq * q, axis=1, keepdims=True)) / r
    np.fill_diagonal(M, 0.0)
    return (M + M.T) @ phi
