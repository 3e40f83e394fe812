"""Synthetic dataset generators, matrix file formats, and figure/report
emitters. Everything here is deterministic given the DatasetSpec it is
handed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, ParseError, check_field_types

GENERATORS = ("gaussian_blobs", "concentric_rings", "file")

MATRIX_MAGIC = b"BIMX1"

# fixed 10-color palette, cycled by class index
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


@dataclass(frozen=True)
class DatasetSpec:
    """What to generate or load. separation is in units of the
    per-coordinate noise sigma (which is 1)."""

    generator: str = "gaussian_blobs"
    n: int = 300
    d: int = 10
    classes: int = 3
    separation: float = 8.0
    seed: int = 0
    path: str | None = None


@dataclass
class LabeledMatrix:
    features: np.ndarray
    labels: np.ndarray


def _validate_spec(spec):
    check_field_types(spec, "data_")
    if spec.generator not in GENERATORS:
        raise ConfigError(f"unknown generator {spec.generator!r}; expected one of {GENERATORS}")
    if spec.generator == "file":
        if not spec.path:
            raise ConfigError("generator 'file' needs a path")
        return
    if spec.seed < 0:
        raise ConfigError(f"need seed >= 0, got {spec.seed}")
    if spec.classes < 2:
        raise ConfigError(f"need at least 2 classes, got {spec.classes}")
    if spec.n < 2 * spec.classes:
        raise ConfigError(f"need n >= 2 * classes, got n={spec.n} classes={spec.classes}")
    if spec.d < 2:
        raise ConfigError(f"need d >= 2, got {spec.d}")
    if not (np.isfinite(spec.separation) and spec.separation > 0):
        raise ConfigError(f"separation must be finite and > 0, got {spec.separation!r}")
    if spec.generator == "concentric_rings" and spec.d != 2:
        raise ConfigError("concentric_rings is a 2-D generator; set d = 2")


def _blob_means(classes, d, separation):
    if d >= classes:
        # scaled regular simplex: every pairwise mean distance equals separation
        means = np.zeros((classes, d))
        means[np.arange(classes), np.arange(classes)] = separation / np.sqrt(2.0)
    else:
        # evenly spaced on a circle; adjacent (minimum) distance equals separation
        radius = separation / (2.0 * np.sin(np.pi / classes))
        angles = 2.0 * np.pi * np.arange(classes) / classes
        means = np.zeros((classes, d))
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    return means - means.mean(axis=0)


def generate(spec):
    """Materialize a DatasetSpec into features and integer labels."""
    _validate_spec(spec)
    if spec.generator == "file":
        return load_matrix(spec.path)
    rng = np.random.default_rng(spec.seed)
    counts = np.full(spec.classes, spec.n // spec.classes)
    counts[: spec.n % spec.classes] += 1
    labels = np.repeat(np.arange(spec.classes), counts)
    if spec.generator == "gaussian_blobs":
        means = _blob_means(spec.classes, spec.d, spec.separation)
        x = means[labels] + rng.standard_normal((spec.n, spec.d))
    else:
        radii = (labels + 1.0) * spec.separation + rng.standard_normal(spec.n)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.n)
        x = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    perm = rng.permutation(spec.n)
    return LabeledMatrix(x[perm], labels[perm])


def _expected_header(d):
    return ",".join([f"f{i}" for i in range(d)] + ["label"])


def save_csv(matrix, path):
    """Header f0..f{d-1},label; floats at 17 significant digits."""
    x = np.asarray(matrix.features, dtype=float)
    y = np.asarray(matrix.labels, dtype=np.int64)
    lines = [_expected_header(x.shape[1])]
    for row, lab in zip(x, y):
        lines.append(",".join(format(v, ".17g") for v in row) + f",{lab}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def save_binary(matrix, path):
    """Magic BIMX1; N, d, label flag as little-endian int64; row-major
    float64 features; labels as int64."""
    x = np.ascontiguousarray(matrix.features, dtype="<f8")
    y = np.ascontiguousarray(matrix.labels, dtype="<i8")
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(np.array([x.shape[0], x.shape[1], 1], dtype="<i8").tobytes())
        f.write(x.tobytes())
        f.write(y.tobytes())


def _load_csv_text(path, text):
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0]
    names = header.split(",")
    d = len(names) - 1
    if d < 1 or names != (_expected_header(d)).split(","):
        raise ParseError(
            f"{path}: bad header {header!r}; expected 'f0..f{{d-1}},label'"
        )
    feats = []
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ParseError(f"{path}: line {lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            feats.append([float(v) for v in parts[:d]])
            labels.append(int(parts[d]))
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: {e}") from e
    if not feats:
        raise ParseError(f"{path}: no data rows")
    if not all(0 <= v < 2 ** 63 for v in labels):
        raise ParseError(f"{path}: labels must be non-negative 64-bit integers")
    x = np.asarray(feats, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParseError(f"{path}: features contain non-finite values")
    return LabeledMatrix(x, np.asarray(labels, dtype=np.int64))


def _load_binary(path, blob):
    header_len = len(MATRIX_MAGIC) + 3 * 8
    if len(blob) < header_len:
        raise ParseError(f"{path}: truncated header")
    # Python ints, so the byte count of a huge declared shape cannot wrap around
    n, d, flag = (int(v) for v in np.frombuffer(blob, dtype="<i8", count=3, offset=len(MATRIX_MAGIC)))
    if n < 1 or d < 1 or flag not in (0, 1):
        raise ParseError(f"{path}: implausible header (n={n}, d={d}, labels={flag})")
    need = header_len + 8 * n * d + (8 * n if flag else 0)
    if len(blob) != need:
        raise ParseError(f"{path}: expected {need} bytes for the declared shape, found {len(blob)}")
    x = np.frombuffer(blob, dtype="<f8", count=n * d, offset=header_len).astype(float).reshape(n, d)
    if not np.all(np.isfinite(x)):
        raise ParseError(f"{path}: features contain non-finite values")
    if flag:
        y = np.frombuffer(blob, dtype="<i8", offset=header_len + 8 * n * d).astype(np.int64)
        if np.any(y < 0):
            raise ParseError(f"{path}: labels must be non-negative")
    else:
        y = np.zeros(n, dtype=np.int64)
    return LabeledMatrix(x, y)


def load_matrix(path):
    """Load a labeled matrix; the binary format is sniffed by its magic,
    anything else is parsed as CSV."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MATRIX_MAGIC)] == MATRIX_MAGIC:
        return _load_binary(path, blob)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: neither a BIMX1 file nor text CSV") from e
    return _load_csv_text(path, text)


def _fmt(v):
    return format(float(v), ".6g")


def emit_scatter_svg(points, labels, path):
    """Standalone SVG scatter plot: one circle per point, palette cycled
    by class, auto-scaled viewBox with a 5% margin, class-id legend.
    Byte-deterministic in its inputs."""
    pts = np.asarray(points, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionError(f"expected an N x 2 point matrix, got shape {pts.shape}")
    if y.shape != (pts.shape[0],) or pts.shape[0] < 1:
        raise DimensionError("labels do not match points")
    xs, ys = pts[:, 0], -pts[:, 1]  # flip so larger data y draws higher
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    w = (x1 - x0) or 1.0
    h = (y1 - y0) or 1.0
    mx, my = 0.05 * w, 0.05 * h
    span = max(w, h)
    view = (x0 - mx, y0 - my, w + 2 * mx, h + 2 * my)
    classes = sorted(int(c) for c in np.unique(y))
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="640" height="640" '
        f'viewBox="{_fmt(view[0])} {_fmt(view[1])} {_fmt(view[2])} {_fmt(view[3])}">',
        f'<rect x="{_fmt(view[0])}" y="{_fmt(view[1])}" width="{_fmt(view[2])}" '
        f'height="{_fmt(view[3])}" fill="#ffffff"/>',
    ]
    r = 0.008 * span
    for (cx, cy), lab in zip(zip(xs, ys), y):
        color = PALETTE[int(lab) % len(PALETTE)]
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{color}"/>')
    font = 0.035 * span
    box = 0.03 * span
    lx = view[0] + 0.02 * span
    ly = view[1] + 0.02 * span
    out.append("<g>")
    for rank, c in enumerate(classes):
        top = ly + rank * 1.4 * box
        color = PALETTE[c % len(PALETTE)]
        out.append(f'<rect x="{_fmt(lx)}" y="{_fmt(top)}" width="{_fmt(box)}" height="{_fmt(box)}" fill="{color}"/>')
        out.append(
            f'<text x="{_fmt(lx + 1.5 * box)}" y="{_fmt(top + 0.85 * box)}" '
            f'font-family="sans-serif" font-size="{_fmt(font)}" fill="#000000">class {c}</text>'
        )
    out.append("</g>")
    out.append("</svg>")
    with open(path, "wb") as f:
        f.write("\n".join(out).encode("utf-8"))


def emit_report_csv(report, path):
    """One row per training step: loss, per-tensor gradient norms, and
    metric snapshot columns (blank on steps without a snapshot). Numbers
    carry 17 significant digits so parsing them back is lossless."""
    tensor_names = list(report.grad_norms)
    metric_names = []
    for _, metrics in report.snapshots:
        for name in metrics:
            if name not in metric_names:
                metric_names.append(name)
    by_step = {step: metrics for step, metrics in report.snapshots}
    header = ["step", "loss"] + [f"grad_{t}" for t in tensor_names] + metric_names
    lines = [",".join(header)]
    for i, loss in enumerate(report.losses):
        row = [str(i), format(loss, ".17g")]
        row += [format(report.grad_norms[t][i], ".17g") for t in tensor_names]
        snap = by_step.get(i, {})
        row += [format(snap[m], ".17g") if m in snap else "" for m in metric_names]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
