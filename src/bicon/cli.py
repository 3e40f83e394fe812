"""Command-line entry point: gradient checking, experiment runs with
config sweeps, and checkpoint evaluation.

Exit codes are a stable contract: 0 success, 1 gradient-check failure,
2 config or usage error, 3 numerical abort. Stderr verbosity follows
BICON_LOG={error|info|debug}; results go to stdout and to CSV files in
the output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from itertools import product
from pathlib import Path

from .data import DatasetSpec, LabeledMatrix, _validate_spec, emit_report_csv, emit_scatter_svg, generate
from .errors import ConfigError, DimensionError, DomainError, NumericalError, ParseError, check_field_types
from .evaluation import METRICS, metric
from .gradcheck import SCOPES, TOL, run_scope
from .model import features, load_checkpoint, save_checkpoint
from .trainers import (CONFIG_KEYS, TASKS, build_target, resolve_config, run_cluster, run_sne, run_supcon,
                       target_key)

LOG = logging.getLogger("bicon")

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# config keys addressed to dataset generation rather than the trainer
_DATA_KEYS = {f"data_{f.name}": f.name for f in fields(DatasetSpec)}


def fnv1a64(data):
    """64-bit FNV-1a hash of a byte string."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def config_hash(obj):
    """Hex FNV-1a digest of an object's canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return f"{fnv1a64(text.encode('utf-8')):016x}"


def split_config(raw):
    """Split a flat config dict into trainer keys and dataset keys."""
    loss, data = {}, {}
    for key, value in raw.items():
        if key in _DATA_KEYS:
            data[_DATA_KEYS[key]] = value
        else:
            # unknown trainer keys are rejected downstream by resolve_config
            loss[key] = value
    return loss, data


def _load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    return raw


def _parse_token(token):
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def parse_sweep(flags):
    """--sweep key=v1,v2 flags to (key, tokens, parsed values) axes."""
    axes = []
    for flag in flags:
        key, sep, rest = flag.partition("=")
        key = key.strip()
        tokens = rest.split(",") if rest else []
        if not sep or not key or not tokens or any(t == "" for t in tokens):
            raise ConfigError(f"malformed --sweep {flag!r}; expected key=v1,v2,...")
        if key in (other for other, _, _ in axes) or len(set(tokens)) < len(tokens):
            raise ConfigError(f"--sweep {flag!r} repeats a value or the key of another axis")
        axes.append((key, tokens, [_parse_token(t) for t in tokens]))
    return axes


def sweep_cells(axes):
    """Cross product of sweep axes in declaration order.

    Yields (index, subdir name, override dict)."""
    pairs_per_axis = [list(zip(tokens, values)) for _, tokens, values in axes]
    keys = [key for key, _, _ in axes]
    cells = []
    for index, combo in enumerate(product(*pairs_per_axis)):
        name = "_".join(f"{key}={token}" for key, (token, _) in zip(keys, combo))
        overrides = {key: value for key, (_, value) in zip(keys, combo)}
        cells.append((index, name, overrides))
    return cells


def _write_metrics_csv(path, rows, digest, seed, mode="w"):
    """Write ("w") or append ("a") metric rows; a new file gets the header."""
    header = "" if mode == "a" and path.exists() else "metric,value,hash,seed\n"
    with open(path, mode, encoding="utf-8") as fh:
        fh.write(header + "".join(f"{name},{value:.17g},{digest},{seed}\n" for name, value in rows))


def _resolve_run(task, raw):
    """The resolved trainer config and the checked DatasetSpec of one run
    of the command's task, from its flat config."""
    loss, data = split_config(raw)
    declared = loss.get("task")
    if declared is not None and declared != task:
        raise ConfigError(f"config task {declared!r} does not match command {task!r}")
    cfg = resolve_config({**loss, "task": task})
    spec = DatasetSpec(**data)
    _validate_spec(spec)
    return cfg, spec


def _execute_run(cfg, spec, dataset, target, out_dir, config_path):
    """Train one resolved run (_resolve_run) on its dataset and its
    engine's one-off target (trainers.build_target; None for supcon), and
    emit all output files. Returns (manifest dict, final metric rows)."""
    x, labels = dataset.features, dataset.labels

    manifest = {"config": asdict(cfg), "data": asdict(spec)}
    digest = config_hash(manifest)
    manifest["hash"] = digest
    manifest["config_path"] = str(config_path)
    manifest["out"] = str(out_dir)

    LOG.info("run %s -> %s (hash %s)", cfg.task, out_dir, digest)
    engine = {"sne": run_sne, "cluster": run_cluster, "supcon": run_supcon}[cfg.task]
    report, output = engine(cfg, x, labels) if target is None else engine(cfg, x, labels, target)

    rows = [("loss", report.losses[-1])]
    rows += sorted(report.snapshots[-1][1].items())
    if cfg.task == "supcon":
        rows.append(("collapsed", float(report.collapsed)))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    emit_report_csv(report, out_dir / "report.csv")
    _write_metrics_csv(out_dir / "metrics.csv", rows, digest, cfg.seed)
    save_checkpoint(out_dir / "checkpoint.bicn", report.model)
    if output.ndim == 2 and output.shape[1] == 2:
        emit_scatter_svg(output, labels, out_dir / "scatter.svg")
    return manifest, rows


class _Shared:
    """Values that several sweep cells share, each built once: the first
    cell that asks for a key builds its value under that key's lock, and
    the value is dropped when the last cell counted for the key releases
    it. A build that raises raises again in every cell that asks."""

    def __init__(self, keys):
        self._lock = threading.Lock()
        self._entries = {}  # key -> [cells left, build lock, (value, exception) once built]
        for key in keys:
            self._entries.setdefault(key, [0, threading.Lock(), None])[0] += 1

    def get(self, key, build):
        entry = self._entries[key]
        with entry[1]:
            if entry[2] is None:
                try:
                    entry[2] = (build(), None)
                except Exception as exc:
                    entry[2] = (None, exc)
        value, exc = entry[2]
        if exc is not None:
            raise exc
        return value

    def release(self, key):
        with self._lock:
            entry = self._entries[key]
            entry[0] -= 1
            if entry[0] == 0:
                del self._entries[key]


def _read_only(value):
    """value, a dataset or a target array, with its arrays made read-only."""
    for a in (value.features, value.labels) if isinstance(value, LabeledMatrix) else (value,):
        a.flags.writeable = False
    return value


def cmd_run(args):
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    axes = parse_sweep(args.sweep)
    if not axes:
        cfg, spec = _resolve_run(args.task, raw)
        dataset = generate(spec)
        _, rows = _execute_run(cfg, spec, dataset, build_target(cfg, dataset.features), args.out, args.config)
        for name, value in rows:
            print(f"{name}={value:.17g}")
        return EXIT_OK

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    swept = {key for key, _, _ in axes}
    unknown = sorted(k for k in swept if k not in _DATA_KEYS and k not in CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown sweep keys: {', '.join(unknown)}")

    cells = []  # every cell is resolved before any cell trains
    for index, name, overrides in sweep_cells(axes):
        cfg, spec = _resolve_run(args.task, {**raw, **overrides})
        if "seed" not in swept:
            # isolate each cell's RNG streams behind its own derived seed
            cfg = replace(cfg, seed=cfg.seed + index)
            check_field_types(cfg)
        data_key = json.dumps(asdict(spec), sort_keys=True)
        key = None if target_key(cfg) is None else (data_key, target_key(cfg))
        cells.append((name, cfg, spec, data_key, key))

    # each distinct dataset (keyed by a JSON string) and target (by a
    # tuple) is built once, read-only, for the cells that share it; those
    # cells are queued one after another and a key's arrays are dropped
    # after its last cell, so that no more keys are alive at once than
    # there are jobs, plus one
    shared = _Shared(k for *_, data_key, key in cells for k in (data_key, key) if k is not None)
    rank = {}
    for *_, data_key, key in cells:
        rank.setdefault(data_key, len(rank))
        rank.setdefault(key, len(rank))
    order = sorted(range(len(cells)), key=lambda i: [rank[k] for k in cells[i][3:]])
    out_root = Path(args.out)

    def _worker(cell):
        name, cfg, spec, data_key, key = cell
        try:
            dataset = shared.get(data_key, lambda: _read_only(generate(spec)))
            target = None if key is None else shared.get(key, lambda: _read_only(build_target(cfg, dataset.features)))
            manifest, rows = _execute_run(cfg, spec, dataset, target, out_root / name, args.config)
            return name, rows, manifest["hash"], cfg.seed, None
        except NumericalError as exc:
            return name, None, None, None, str(exc)
        finally:
            for k in (data_key, key):
                if k is not None:
                    shared.release(k)

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = {i: pool.submit(_worker, cells[i]) for i in order}
        results = [futures[i].result() for i in range(len(cells))]

    aborted = False
    lines = ["cell,metric,value,hash,seed"]
    for name, rows, digest, seed, exc in results:
        if exc is not None:
            aborted = True
            print(f"{name}: numerical abort: {exc}", file=sys.stderr)
            continue
        for metric, value in rows:
            lines.append(f"{name},{metric},{value:.17g},{digest},{seed}")
            print(f"{name} {metric}={value:.17g}")
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_NUMERICAL if aborted else EXIT_OK


def cmd_gradcheck(args):
    results = run_scope(args.scope, args.seed)
    failures = [component for component, err in results if not err <= TOL]
    for component, err in results:
        print(f"{component} worst_rel_err={err:.3e} {'FAIL' if not err <= TOL else 'PASS'}")
    print(f"gradcheck {args.scope}: {len(results) - len(failures)}/{len(results)} within {TOL:g}")
    if failures:
        print(f"failing components: {', '.join(failures)}")
        return EXIT_GRADCHECK
    return EXIT_OK


def cmd_eval(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = sorted(set(metrics) - set(METRICS))
    if unknown or not metrics:
        raise ConfigError(
            f"unknown metrics: {', '.join(unknown) or '(none given)'}; valid names: {', '.join(METRICS)}"
        )
    model = load_checkpoint(args.checkpoint)
    dataset = generate(DatasetSpec(generator="file", path=args.data))
    x, labels = dataset.features, dataset.labels

    manifest_path = Path(args.checkpoint).parent / "manifest.json"
    digest, seed = None, args.seed
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ParseError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
        config = manifest.get("config", {}) if isinstance(manifest, dict) else None
        if not isinstance(config, dict):
            raise ParseError(f"manifest {manifest_path} is not an object with a 'config' object")
        digest = manifest.get("hash")
        if not (digest is None or isinstance(digest, str) and re.fullmatch("[0-9a-f]{16}", digest)):
            raise ParseError(f"manifest {manifest_path} has hash {digest!r}, not 16 lowercase hex digits")
        if seed is None:
            seed = config.get("seed")
            if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0):
                raise ParseError(f"manifest {manifest_path} has seed {seed!r}, not an integer >= 0")
    seed = 0 if seed is None else seed
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    if digest is None:
        digest = config_hash({"checkpoint": Path(args.checkpoint).name, "metrics": metrics, "seed": seed})

    if "hungarian" in metrics and model.kind != "head":
        raise ConfigError("metric 'hungarian' needs a cluster-head checkpoint")
    z = features(model, x)
    rows = []
    for name in metrics:
        value = metric(name, z, labels, seed)
        rows.append((name, value))
        print(f"{name}={value:.17g}")

    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_metrics_csv(out_dir / "metrics.csv", rows, digest, seed, mode="a")
    return EXIT_OK


def _setup_logging():
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("BICON_LOG", "error").strip().lower(), logging.ERROR
    )
    logger = logging.getLogger("bicon")
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(level)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bicon",
        description="Divergence-over-kernel training experiments: gradcheck, run, eval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    g.add_argument("scope", choices=SCOPES)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gradcheck)

    r = sub.add_parser("run", help="train one configuration or a sweep grid")
    r.add_argument("task", choices=TASKS)
    r.add_argument("--config", required=True, help="flat JSON config file")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--sweep", action="append", default=[], metavar="KEY=V1,V2",
                   help="sweep axis; repeat for a grid (declaration order)")
    r.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    r.add_argument("--seed", type=int, default=None, help="override the config seed")
    r.set_defaults(func=cmd_run)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True, help="CSV or binary matrix file")
    e.add_argument("--metrics", required=True, help=f"comma-separated from {', '.join(METRICS)}")
    e.add_argument("--out", default=None, help="directory for metrics.csv (default: checkpoint dir)")
    e.add_argument("--seed", type=int, default=None, help="holdout/probe seed (default: run manifest)")
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, DimensionError, DomainError, OSError, MemoryError, ValueError) as exc:
        # a MemoryError, or numpy's "array is too big", is a size in the input that no array can hold
        if type(exc) is ValueError and not str(exc).startswith("array is too big"):
            raise  # any other plain ValueError is a fault, and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        detail = ""
        if getattr(exc, "divergence", None) is not None:
            detail = f" [divergence={exc.divergence} step={exc.step}]"
        print(f"numerical abort: {exc}{detail}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
