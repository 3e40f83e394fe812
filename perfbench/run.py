"""bicon's benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload sne-sweep --seed 1 --seconds 35 --trace 0

Run from anywhere; the checkout is the parent of this file's directory.
With --trace 0 it runs the workload's closed loop in a worker process
with tracing off, with set-up samples in fresh interpreters between its
iterations, and reports the end-to-end metrics. With --trace 1 it runs the loop with
every other iteration traced and reports the per-layer metrics. Either
way the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Workloads, metrics and
their bounds are listed in BENCHMARK.json at the root of the checkout.

Exits 2 without a result when the checkout has no bicon sources or
configs, and 1 when a worker fails or the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from worker import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0
BLAS_THREADS = 1  # sweep jobs x BLAS threads <= nproc on any machine with nproc >= 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "score",
    "ok_share": "ratio",
}


class Failed(Exception):
    """The benchmark could not produce a result."""


def missing_sources(workload):
    needed = [ROOT / "src" / "bicon" / "cli.py", ROOT / WORKLOADS[workload].config]
    return [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["BICON_LOG"] = "error"
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    return env


def worker(args, work, deadline):
    """Run worker.py to completion and return its JSON result line.

    The worker gets a process group of its own, so that on timeout the
    set-up interpreters it starts are stopped with it."""
    argv = [sys.executable, str(HERE / "worker.py"), "loop", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work)]
    with subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise Failed(f"the worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
            raise
    if proc.returncode != 0:
        raise Failed(f"the worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_record():
    files = sorted(p for p in (ROOT / "src").rglob("*.py") if "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        blob = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {"commit": commit(), "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def measure(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = worker(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    return result


def end_to_end(result):
    its = result["iterations"]
    return {
        # the run's total command time per iteration; steadier here than the
        # median of a few iterations when machine speed drifts within a run
        "wall_s": statistics.fmean(it["run_s"] + it["eval_s"] for it in its),
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "quality": result["quality"],
        "ok_share": 1.0 - result["failed"] / result["attempted"],
    }, END_TO_END_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description="bicon benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_sources(args.workload)
    if missing:
        print(f"perfbench: not a bicon checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, units = layers.layer_metrics(result["iterations"], result["jobs"]), layers.UNITS
    else:
        values, units = end_to_end(result)
    its = result["iterations"]
    env = {"workload": args.workload, "seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "jobs": result["jobs"], **result["env"], **source_record(),
           "iteration_wall_s": [round(it["run_s"] + it["eval_s"], 4) for it in its],
           "traced_iterations": sum(it["traced"] for it in its), "setup_samples": [round(s, 4) for s in result["setup_s"]]}
    print("env " + json.dumps(env))
    for name, value in values.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
