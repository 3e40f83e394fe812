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

from .divergences import SIMPLEX_TOL
from .errors import DegenerateRowError, DimensionError, DomainError, NumericalError

KERNEL_FAMILIES = ("angular", "distance")

_UNIT_TOL = 1e-9

# supervisory_sne: half the steps a block may take, and the tolerance on exp(row entropy)
_BISECT_STEPS = 64
_PERPLEXITY_TOL = 1e-4

# floats per squared_distances buffer: a block of rows times len(b)
_BLOCK_FLOATS = 1 << 15

# floats per buffer of _kernel_rows_pass: a block of rows times N
_STEP_FLOATS = 1 << 18


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

    Each entry adds its squared differences left to right, so it equals
    np.cumsum((a[i] - b[j]) ** 2)[-1] bit for bit whatever the block, and
    since (x - y) ** 2 equals (y - x) ** 2, squared_distances(a, b) is
    exactly squared_distances(b, a).T. Rows of a are taken block at a
    time, one coordinate at a time over whole block x len(b) buffers; by
    default a block holds about 2**15 / len(b) rows, so that each buffer
    stays in cache. Overflow gives +inf, and inf or NaN inputs give inf or
    NaN: callers that need finite distances check them.
    """
    a = np.asarray(a, dtype=float)
    b = a if b is None else np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"expected row matrices with equal widths, got {a.shape} and {b.shape}")
    n, m = a.shape[0], b.shape[0]
    if block is None:
        block = max(1, _BLOCK_FLOATS // max(m, 1))
    out = np.empty((n, m))
    left, right = _difference_factors(a, b)
    tmp = np.empty((min(block, n), m))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            rows = out[start:start + block]
            _add_squares(left[:, start:start + block], right, rows, tmp[:len(rows)])
    return out


def _difference_factors(a, b):
    """The factors of each coordinate k's differences a[i, k] - b[j, k]:
    left[k] = [a[:, k], 1] (N x 2) and right[k] = [1; -b[:, k]] (2 x M).
    Their product's entry is a[i, k] * 1 + 1 * (-b[j, k]): two exact
    products, rounded once when added, in whatever order, FMA or not, a
    product takes them. So it is the difference a[i, k] - b[j, k] bit for
    bit (up to the sign of a zero), from one BLAS call per coordinate in
    place of a broadcast subtraction, which numpy runs at about half the
    speed."""
    left = np.ones((a.shape[1], a.shape[0], 2))
    left[:, :, 0] = a.T
    right = np.ones((b.shape[1], 2, b.shape[0]))
    np.negative(b.T, out=right[:, 1])
    return left, right


def _add_squares(left, right, out, tmp):
    """out[i, j] = (a[i, 0] - b[j, 0]) ** 2 + (a[i, 1] - b[j, 1]) ** 2
    + ..., added left to right, with tmp as scratch of out's shape: the
    one distance kernel, which squared_distances and _kernel_rows_pass
    run on their blocks of rows. left and right are the rows' and the
    columns' _difference_factors.
    """
    if not len(left):
        out.fill(0.0)
    for k in range(len(left)):
        into = tmp if k else out
        np.matmul(left[k], right[k], out=into)
        np.square(into, out=into)
        if k:
            out += into


def _score_operands(y, spec):
    """What _block_scores takes of the points y: y.T, made contiguous, on
    both sides for the angular family, and y's _difference_factors with
    itself for the distance family."""
    if spec.family == "angular":
        yt = np.ascontiguousarray(y.T)
        return yt, yt
    return _difference_factors(y, y)


def _block_scores(left, right, start, spec, out, tmp):
    """Rows start, start + 1, ... of similarity_matrix(y, spec) into out,
    from y's _score_operands; tmp is scratch of out's shape. Overflow is
    left for _softmax_rows' check of the scores."""
    rows = left[:, start:start + len(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.family == "angular":
            # einsum adds the products coordinate by coordinate, not in
            # BLAS blocks, so no entry's bits depend on the rows computed with it
            np.einsum("ki,kj->ij", rows, right, out=out)
            out *= spec.scale
        else:
            _add_squares(rows, right, out, tmp)
            out *= -spec.scale
    return out


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
    Each entry adds its coordinates' products or squared differences
    left to right, so a block of rows gets the same bits on its own.

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
    n = z.shape[0]
    return _block_scores(*_score_operands(z, spec), 0, spec, np.empty((n, n)), np.empty((n, n)))


def kernel_rows(scores):
    """Row softmax of a score matrix with the diagonal excluded.

    Each row is shifted by its off-diagonal maximum before exponentiation;
    entries far below the row maximum may underflow to exact zero.
    """
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"expected a square score matrix, got shape {s.shape}")
    if s.shape[0] < 2:
        raise DimensionError("need at least 2 points for transition rows")
    w = s.copy()
    _softmax_rows(w, 0, w)
    return w


def _softmax_rows(w, start, q, check=True):
    """kernel_rows of the score rows w, rows start, start + 1, ... of a
    square matrix (each row's entry start + i is its diagonal), written
    into q, which may be w itself. Otherwise w is left holding the shifted
    scores, its diagonal 0. The rows' log normalisers lse are returned:
    log q = w - lse off the diagonal, also where q underflows to 0.
    check=False skips the scan for non-finite scores, for a caller that
    has bounded them."""
    diag = (np.arange(len(w)), start + np.arange(len(w)))
    if check:
        w[diag] = 0.0
        if not np.all(np.isfinite(w)):
            raise DomainError("off-diagonal scores contain non-finite entries")
    w[diag] = -np.inf
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=q)
    total = q.sum(axis=1, keepdims=True)
    q /= total
    w[diag] = 0.0
    return np.log(total[:, 0])


def softmax_rows_grad(q, dL_dq, out=None):
    """Pull a gradient in the transition rows back to the scores, into out
    if given (which may be dL_dq itself)."""
    out = np.subtract(dL_dq, np.einsum("ij,ij->i", dL_dq, q)[:, None], out=out)
    out *= q
    return out


def kernel_rows_grad(z, spec, dL_dq):
    """Gradient of a scalar loss with respect to the raw embedding rows.

    Chains loss -> transition rows -> scores -> embedding. For the
    angular family z is the raw (unnormalized) embedding; the unit-sphere
    normalization consumed by similarity_matrix is part of the chain, so
    the returned gradient includes the tangent-space projection. Runs
    _kernel_rows_pass, the backward of the SNE and supcon steps, on the
    forces q * dL_dq, block by block.
    """
    z = np.asarray(z, dtype=float)
    g = np.asarray(dL_dq, dtype=float)
    if z.ndim != 2 or g.shape != (z.shape[0], z.shape[0]):
        raise DimensionError(f"shape mismatch: z {z.shape}, dL_dq {g.shape}")
    if np.any(np.diagonal(g) != 0.0):
        raise DomainError("dL_dq must be zero on the diagonal")

    def forces(start, q, F, w, lse):
        np.multiply(g[start:start + len(F)], q, out=F)
        return F.sum(axis=1)

    return _kernel_rows_pass(z, spec, forces)


def _kernel_rows_buffers(n):
    """The buffers of _kernel_rows_pass over n points: the q, force and
    score rows of one block of min(n, 2**18 // n) rows (at least 1)."""
    return np.empty((3, max(1, min(n, _STEP_FLOATS // max(n, 1))), n))


def _kernel_rows_pass(z, spec, fill, buffers=None):
    """Gradient in z of a loss L of q = learned_rows(z, spec), given the
    loss's forces F = q * dL/dq one block of rows at a time, with no N x N
    array: buffers (allocated here if None) are _kernel_rows_buffers(N).

    Each block of rows [a, b) is built in place in the buffers: its scores,
    then its softmax rows q, bit for bit learned_rows(z, spec)[a:b], with
    the scores left shifted (w, diagonal 0) and the rows' log normalisers
    lse, so that log q = w - lse. Then fill(a, q, F, w, lse) writes the
    forces into F, less any multiple of q per row, which t cancels, and
    returns the row sums of what it wrote (w is its scratch once read);
    F becomes the softmax backward t = F - q sum(F): the gradient in
    the scores, with no division by q, so a force stays finite where q
    underflows. The scores' gradient s = t + t.T is never built:
    s @ [y, 1] = t @ [y, 1] + t.T @ [y, 1] (y = z, or the unit rows for
    the angular family) is summed block by block.

    The scan for non-finite scores runs only when a bound on them is not
    finite. Rounding is monotone and |y| <= m entrywise (m = 1 for unit
    rows), so for widths d below 2**50 no computed sum of products or of
    squared differences exceeds 8 d m**2, and no score 8 C d m**2; both
    are half of 16 max(C, 1) d m**2 or less. Where that bound overflows,
    the scores are scanned, so the same inputs raise.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 2:
        raise DimensionError(f"expected an N x d matrix with N >= 2, got shape {z.shape}")
    angular = spec.family == "angular"
    y = normalize_rows(z) if angular else z
    if not np.all(np.isfinite(y)):
        raise DomainError("embedding contains non-finite entries")
    n, d = y.shape
    if buffers is None:
        buffers = _kernel_rows_buffers(n)
    left, right = _score_operands(y, spec)
    m = 1.0 if angular else float(np.max(np.abs(y), initial=0.0))
    check = not np.isfinite(16.0 * max(spec.scale, 1.0) * d * m * m)
    # [y, 1]: each product gives t @ y (or t.T @ y) and t's row (or column) sums
    y1 = np.ones((n, d + 1))
    y1[:, :-1] = y
    sy = np.empty(y1.shape)
    syt = np.zeros(y1.shape)
    for a in range(0, n, buffers.shape[1]):
        b = min(a + buffers.shape[1], n)
        q, F, w = buffers[:, :b - a]
        lse = _softmax_rows(_block_scores(left, right, a, spec, w, F), a, q, check)
        # t = F - q sum(F), each entry rounded on its own, so that a small t
        # beside large forces keeps its relative accuracy
        F -= np.einsum("ij,i->ij", q, fill(a, q, F, w, lse), out=w)
        np.matmul(F, y1, out=sy[a:b])
        syt += F.T @ y1[a:b]
    sy += syt
    if angular:
        norms = np.sqrt(np.sum(z * z, axis=1, keepdims=True))
        du = spec.scale * sy[:, :-1]
        # project onto the tangent space of the unit sphere, undo the scaling
        return (du - np.sum(du * y, axis=1, keepdims=True) * y) / norms
    # d score_ij / d z_i = -2C (z_i - z_j)
    return -2.0 * spec.scale * (sy[:, -1:] * z - sy[:, :-1])


def learned_rows(z, spec):
    """Transition rows of an embedding: softmax kernel, diagonal excluded.

    Normalizes rows first for the angular family; this is the composition
    whose gradient kernel_rows_grad computes.
    """
    if spec.family == "angular":
        z = normalize_rows(z)
    return kernel_rows(similarity_matrix(z, spec))


def validate_distribution(mat):
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
    if err > SIMPLEX_TOL:
        raise DomainError(f"transition rows must sum to 1 within {SIMPLEX_TOL}, worst error {err!r}")
    return m


def supervisory_sne(x, perplexity):
    """Gaussian conditional neighbor rows with per-point bandwidths.

    Row i is exp(-beta_i ||x_i - x_j||^2) normalized over j != i, with
    beta_i = 1 / (2 sigma_i^2) chosen so that exp(row entropy) matches
    the requested perplexity within _PERPLEXITY_TOL. Rows are searched a
    block at a time, about 2**15 / N rows per block, each block on its own
    rows of squared_distances (the bits of the whole matrix) in a set of
    block buffers reused by every step and block; P is the one N x N array.

    Each row's distances are first scaled by the power of two that puts
    the largest in [0.5, 1), and beta, in those units, starts at the
    power of two nearest 1 / (mean distance to the other points). While
    no beta has overshot the perplexity, beta doubles; after that it is
    the midpoint of the bracket [lo, hi) (lo starts at 0, so beta halves
    until it undershoots). A row stops at the first step whose
    exp(entropy) is within _PERPLEXITY_TOL of the target, and its row of
    P comes from that step; a block ends when all its rows have stopped,
    or after 2 * _BISECT_STEPS steps. Scaling x by 2**k (short of
    overflow and underflow) leaves the scaled distances as they are, so
    it gives the same P bit for bit.

    Rows whose entropy does not depend on beta (mutually equidistant
    neighborhoods) are accepted as uniform; any other row that does not
    converge raises NumericalError, carrying the row index; non-finite
    distances raise DomainError.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 3:
        raise DimensionError(f"expected an N x d matrix with N >= 3, got shape {x.shape}")
    n = x.shape[0]
    if not (2.0 <= perplexity <= n - 1):
        raise DomainError(f"perplexity must lie in [2, N-1] = [2, {n - 1}], got {perplexity!r}")
    target = float(perplexity)
    P = np.empty((n, n))
    block = max(1, _BLOCK_FLOATS // n)
    # scaled distances, exponents and weights of one block
    buffers = np.empty((3, min(block, n), n))
    for start in range(0, n, block):
        d2 = _finite(squared_distances(x[start:start + block], x))
        _sne_block(d2, start, target, P[start:start + block], buffers)
    return P


def _sne_block(d2, start, target, out, buffers):
    """supervisory_sne's search for the rows start, start + 1, ... of P,
    written into out, from their rows of d2."""
    b, n = d2.shape
    ds, t, w = buffers[:, :b]
    diag = (np.arange(b), start + np.arange(b))
    far, scale = np.frexp(d2.max(axis=1))
    np.ldexp(d2, -scale[:, None], out=ds)
    mean = ds.sum(axis=1) / (n - 1)
    ds[diag] = np.inf
    near = ds.min(axis=1)
    # distances above the nearest one, so that every row's largest weight is exp(0) = 1
    ds -= near[:, None]
    ds[diag] = 0.0
    flat = near == far
    m, e = np.frexp(mean)
    beta = np.ldexp(1.0, np.where(m > np.sqrt(0.5), -e, 1 - e))
    lo = np.zeros(b)
    hi = np.full(b, np.inf)
    todo = np.ones(b, dtype=bool)
    for _ in range(2 * _BISECT_STEPS):
        np.multiply(ds, -beta[:, None], out=t)
        np.exp(t, out=w)
        w[diag] = 0.0
        s = w.sum(axis=1)
        # entropy of the row w / s: log s - sum(w t) / s
        f = np.exp(np.log(s) - np.einsum("ij,ij->i", w, t) / s)
        hit = todo & (flat | (np.abs(f - target) <= _PERPLEXITY_TOL))
        out[hit] = w[hit] / s[hit, None]
        todo &= ~hit
        if not todo.any():
            return
        # exp-entropy falls as beta grows
        up = f > target
        lo = np.where(todo & up, beta, lo)
        hi = np.where(todo & ~up, beta, hi)
        beta = np.where(todo, np.where(hi == np.inf, 2.0 * beta, 0.5 * (lo + hi)), beta)
    raise NumericalError(
        f"bandwidth search did not reach perplexity {target} within {_PERPLEXITY_TOL} "
        f"in {2 * _BISECT_STEPS} steps",
        row=start + int(np.argmax(todo)),
    )


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

_OVERFLOW = "pairwise distances need features whose squared norms and distances are finite"


def _finite(values):
    """values, if every entry is finite; DomainError(_OVERFLOW) if not."""
    if not np.isfinite(values).all():
        raise DomainError(_OVERFLOW)
    return values


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
    computed in chunks of about 2**17 floats (squared_distances' factors
    of a chunk take twice its size).

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
            top = _finite(np.partition(h, k - 1, axis=1)[:, k - 1:k] + 2.0 * slack[start:stop, None])
        found.append(np.flatnonzero(h <= top) + start * m)
    rows, cols = np.divmod(np.concatenate(found), m)
    e = np.empty(len(rows))
    origin = np.zeros((1, d))
    step = max(1, 4 * _BLOCK_FLOATS // max(d, 1))
    for s in range(0, len(rows), step):
        # |a_i - b_j - 0|^2 is squared_distances' value of the pair, bit for bit
        e[s:s + step] = squared_distances(a[rows[s:s + step]] - b[cols[s:s + step]], origin)[:, 0]
    _finite(e)
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
    cluster_transition_grad reuses."""
    phi = np.asarray(assignments, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 2:
        raise DimensionError(f"expected an N x C assignment matrix with N >= 2, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)) or np.any(phi < 0.0):
        raise DomainError("assignments must be finite and non-negative")
    err = np.max(np.abs(phi.sum(axis=1) - 1.0))
    if err > SIMPLEX_TOL:
        raise DomainError(f"assignment rows must sum to 1 within {SIMPLEX_TOL}, worst error {err!r}")
    G, r = _cluster_overlaps(phi)
    G /= r
    return G, r


def _cluster_overlaps(phi, out=None):
    """The overlaps G = phi phi.T, diagonal zeroed, written into out if
    given, and their row sums r (N x 1): q = G / r. phi (N x C, N >= 2)
    is not checked here; the cluster step takes it from a softmax head,
    whose rows are on the simplex. A row with no overlap raises
    DegenerateRowError with its index. G comes from one BLAS product with
    a contiguous copy of phi.T (OpenBLAS takes a slower path for a
    transposed view of its other operand), so it need not be symmetric
    bit for bit."""
    G = np.matmul(phi, np.ascontiguousarray(phi.T), out=out)
    np.fill_diagonal(G, 0.0)
    r = G.sum(axis=1, keepdims=True)
    if np.any(r <= 0.0):
        row = int(np.argmax(r <= 0.0))
        raise DegenerateRowError(
            f"row {row} has zero overlap with every other point", row=row
        )
    return G, r


def cluster_transition_grad(assignments, dL_dq):
    """Pull a gradient in cluster_transition's output back to assignments.

    Works on N x N arrays: M = (dL_dq - sum(dL_dq q)) / r, diagonal
    zeroed, and the result (M + M.T) @ phi; assignments are checked as in
    cluster_transition. The cluster training step works on its target's
    support instead (trainers._cluster_support_pass), and this dense
    chain is its reference in the tests.
    """
    phi = np.asarray(assignments, dtype=float)
    g = np.asarray(dL_dq, dtype=float)
    if phi.ndim != 2 or g.shape != (phi.shape[0], phi.shape[0]):
        raise DimensionError(f"shape mismatch: assignments {phi.shape}, dL_dq {g.shape}")
    q, r = _cluster_transition(phi)
    m = g - (g * q).sum(axis=1, keepdims=True)
    m /= r
    np.fill_diagonal(m, 0.0)
    return (m + m.T) @ phi
