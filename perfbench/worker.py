"""One benchmark workload, run in a process of its own.

`loop` drives `bicon.cli.main` in a closed loop for about a given number
of seconds, and at least two iterations: one client, and each command
starts only when the previous one has returned. One iteration is the workload's `bicon run ... --sweep`
command followed by one `bicon eval` per sweep cell. Every output is
checked, and the last line of standard output is a JSON summary.

`setup` measures one set-up sample in this fresh interpreter: `import
bicon`, dataset generation and the engine's one-off target build. An
untraced `loop` takes set-up samples before its first iteration and after
each one, so that their median covers the same stretch of time as the
iterations do.

Both are started by run.py with PYTHONPATH pointing at the checkout's
`src/` and the BLAS thread count pinned. Neither imports numpy or bicon
at module level, so that `setup` times the imports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, bicon_targets

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    task: str
    config: str
    sweep: str
    jobs: int
    eval_metrics: str
    quality: tuple  # (which command's metrics.csv rows, metric name)


# Each engine spends its time in a different layer, hence one workload per
# engine. Every workload ends with `bicon eval` on each checkpoint, so that
# eval time, the checkpoint and matrix readers, and eval-equals-snapshot
# are measured on all three.
WORKLOADS = {
    # the paper's headline sweep; full-batch N=300 steps dominated by the
    # distance kernel, softmax and its backward; the only parallel sweep
    "sne-sweep": Workload("sne", "configs/sne_blobs.json", "divergence=KL,TV,JSD,Hellinger", 2,
                          "knn,probe,silhouette", ("run", "silhouette")),
    # sequential; a kNN graph build per cell, then cluster_transition and
    # its gradient on 256x256 batches, with no distance or softmax per step
    "cluster-sweep": Workload("cluster", "configs/cluster_blobs.json", "divergence=KL,TV,JSD,Hellinger", 1,
                              "hungarian,knn,probe,silhouette", ("run", "hungarian")),
    # encoder, Adam and the angular kernel; per-epoch kNN snapshots
    "supcon-eval": Workload("supcon", "configs/supcon_blobs.json", "kernel=distance,angular", 1,
                            "knn,probe,silhouette", ("eval", "knn")),
}

MIN_ITERATIONS = 2  # the second one is compared byte for byte with the first
SETUP_PER_GAP = 3  # set-up samples before the first iteration and after each
SETUP_TIMEOUT_S = 60.0
MAX_PROBLEMS_SHOWN = 20


def load_config(workload, seed):
    """The workload's config with the workload seed, as numpy accepts it, as data_seed."""
    raw = json.loads((ROOT / workload.config).read_text(encoding="utf-8"))
    raw["data_seed"] = seed % 2**32
    return raw


def dataset(raw):
    from bicon.cli import split_config
    from bicon.data import DatasetSpec, generate

    _, data = split_config(raw)
    return generate(DatasetSpec(**data))


def check_checkout():
    """Raise unless bicon is imported from this checkout's src/."""
    import bicon

    src = (ROOT / "src").resolve()
    if src not in Path(bicon.__file__).resolve().parents:
        raise RuntimeError(f"bicon imported from {bicon.__file__}, not from {src}")


# ---------------------------------------------------------------- set-up


def setup_sample(workload, seed, work):
    """Seconds for import, dataset generation and the one-off target build."""
    start = time.perf_counter()
    import bicon
    from bicon.data import save_binary

    raw = load_config(workload, seed)
    ds = dataset(raw)
    save_binary(ds, work / "setup.bimx")
    if workload.task == "sne":
        bicon.supervisory_sne(ds.features, raw["perplexity"])
    elif workload.task == "cluster":
        bicon.supervisory_knn(ds.features, raw["k"])
    else:
        bicon.holdout_split(ds.features.shape[0], 0.25, raw["seed"])
    return time.perf_counter() - start


def setup_samples(name, seed, work, count):
    """`count` set-up samples, one after another, each in a fresh interpreter."""
    argv = [sys.executable, __file__, "setup", "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--work", str(work)]
    samples = []
    for _ in range(count):
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------- the loop


@dataclass
class Cell:
    name: str
    steps: int  # training steps the configuration implies


def sweep_cells(workload, raw, labels):
    """The sweep's cell directory names and expected step counts.

    Restates the trainers' batching rules independently, as a check."""
    import numpy as np

    from bicon.cli import split_config
    from bicon.evaluation import holdout_split
    from bicon.trainers import resolve_config

    loss, _ = split_config(raw)
    key, _, values = workload.sweep.partition("=")
    cells = []
    for index, token in enumerate(values.split(",")):
        cfg = resolve_config({**loss, key: token, "seed": int(loss.get("seed", 0)) + index})
        n, bs = labels.shape[0], cfg.batch_size
        if cfg.task == "sne":
            per_epoch = 1
        elif cfg.task == "cluster":
            per_epoch = sum(1 for s in range(0, n, bs) if min(bs, n - s) >= 4)
        else:
            train, _ = holdout_split(n, 0.25, cfg.seed)
            _, counts = np.unique(labels[train], return_counts=True)
            c = counts.shape[0]
            quota = [bs // c + (1 if rank < bs % c else 0) for rank in range(c)]
            per_epoch = min(int(k) // q for k, q in zip(counts, quota))
        cells.append(Cell(f"{key}={token}", cfg.epochs * per_epoch))
    return cells


def command(argv):
    """Run one CLI command in this process; returns (exit code, start, seconds).

    An exception other than SystemExit escaping main is a failed command,
    with exit code None."""
    from bicon.cli import main

    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    return code, start, time.perf_counter() - start


def report_problem(path, steps):
    """Problems found in report.csv: a step count other than `steps`, or a non-finite loss."""
    lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("loss")
    rows = lines[1:]
    if len(rows) != steps:
        return [f"{path} has {len(rows)} steps, expected {steps}"]
    if not all(math.isfinite(float(row.split(",")[column])) for row in rows):
        return [f"{path} has a non-finite loss"]
    return []


def metric_values(text):
    """metric -> value text from metrics.csv lines (the header is skipped)."""
    rows = (line.split(",") for line in text.splitlines() if not line.startswith("metric,"))
    return {row[0]: row[1] for row in rows}


class Loop:
    """State of one closed loop: commands attempted and failed, reference
    output digests, and per-iteration timings."""

    def __init__(self, workload, seed, work):
        from bicon.data import save_binary

        self.workload = workload
        raw = load_config(workload, seed)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(raw), encoding="utf-8")
        ds = dataset(raw)
        self.data = work / "data.bimx"
        save_binary(ds, self.data)
        self.cells = sweep_cells(workload, raw, ds.labels)
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}
        self.quality = []
        self.iterations = []

    def _count(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _same_bytes(self, path):
        """Problems found comparing a file with the same file of the first iteration."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        key = path.relative_to(self.out)
        if self.reference.setdefault(key, digest) != digest:
            return [f"{key} differs from the first sample at the same seed"]
        return []

    def iteration(self, tracer=None):
        wl = self.workload
        shutil.rmtree(self.out, ignore_errors=True)
        code, run_start, run_s = command(["run", wl.task, "--config", self.config, "--out", self.out,
                                          "--sweep", wl.sweep, "--jobs", wl.jobs])
        after_run = tracer.snapshot() if tracer else None
        problems = [] if code == 0 else [f"bicon run exited with {code}"]
        run_rows = {}
        for cell in self.cells:
            cell_dir = self.out / cell.name
            try:
                run_rows[cell.name] = (cell_dir / "metrics.csv").read_text(encoding="utf-8")
                problems += report_problem(cell_dir / "report.csv", cell.steps)
                problems += self._same_bytes(cell_dir / "report.csv")
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"{cell_dir}: {exc}")
        self._count(problems)

        eval_s = 0.0
        source, quality_metric = wl.quality
        quality = []
        for cell in self.cells:
            checkpoint = self.out / cell.name / "checkpoint.bicn"
            code, _, seconds = command(["eval", "--checkpoint", checkpoint, "--data", self.data,
                                        "--metrics", wl.eval_metrics])
            eval_s += seconds
            problems = [] if code == 0 else [f"bicon eval on {checkpoint} exited with {code}"]
            try:
                metrics = self.out / cell.name / "metrics.csv"
                text = metrics.read_text(encoding="utf-8")
                rows = run_rows.get(cell.name, "")
                ran = metric_values(rows)
                evaluated = metric_values(text[len(rows):] if text.startswith(rows) else "")
                for name in wl.eval_metrics.split(","):
                    if name not in evaluated:
                        problems.append(f"{metrics}: eval wrote no {name}")
                    elif name in ran and ran[name] != evaluated[name]:
                        problems.append(f"{metrics}: eval {name}={evaluated[name]} but the run's "
                                        f"final snapshot has {ran[name]}")
                quality.append(float((ran if source == "run" else evaluated).get(quality_metric, "nan")))
                problems += self._same_bytes(metrics)
            except (OSError, ValueError) as exc:
                problems.append(f"{self.out / cell.name}: {exc}")
            self._count(problems)

        self.quality.append(statistics.median(quality))
        record = {"traced": tracer is not None, "run_s": run_s, "eval_s": eval_s,
                  "steps": sum(c.steps for c in self.cells)}
        if tracer:
            cells = [(s, e) for name, _, s, e in tracer.spans if name == "cli._execute_run"]
            record.update(layers=tracer.snapshot(), run_layers=after_run,
                          queue_wait_s=sum(s - run_start for s, _ in cells),
                          cell_s=sum(e - s for s, e in cells))
        self.iterations.append(record)


def run_loop(name, seed, seconds, trace, work):
    check_checkout()
    workload = WORKLOADS[name]
    loop = Loop(workload, seed, work)
    targets = bicon_targets() if trace else []
    start = time.perf_counter()
    setup, gaps = [], []

    def gap():
        if not trace:
            began = time.perf_counter()
            setup.extend(setup_samples(name, seed, work, SETUP_PER_GAP))
            gaps.append(time.perf_counter() - began)

    gap()
    durations = []
    # a traced run needs an untraced iteration besides the first, which warms up
    minimum = MIN_ITERATIONS + trace
    # another iteration starts only if one of median length, and the set-up
    # samples after it, still end within the run's seconds, so that a run
    # takes about as long as asked
    while len(durations) < minimum or (time.perf_counter() - start + statistics.median(durations)
                                       + statistics.median(gaps or [0.0]) <= seconds):
        began = time.perf_counter()
        # a traced run alternates untraced and traced iterations, so that
        # the difference of their medians is the tracing overhead
        if trace and len(durations) % 2 == 1:
            with Tracer() as tracer:
                tracer.install(targets)
                loop.iteration(tracer)
        else:
            loop.iteration()
        durations.append(time.perf_counter() - began)
        gap()
    for problem in loop.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    quality = [q for q in loop.quality if math.isfinite(q)]
    if not quality:
        raise RuntimeError("no iteration produced a quality figure")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "jobs": workload.jobs,
        "quality": quality[0],
        "setup_s": setup,
        "iterations": loop.iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("loop", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        print(json.dumps(setup_sample(workload, args.seed, args.work)))
    else:
        print(json.dumps(run_loop(args.workload, args.seed, args.seconds, args.trace, args.work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
