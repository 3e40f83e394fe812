"""Span tracer that times bicon's public functions from outside the package.

The tracer wraps functions by patching module attributes, so nothing in
`src/` changes. A function imported by name into other modules (for
example `run_sne` in `bicon.cli`, or `squared_distances` in
`bicon.evaluation`) is patched in every loaded `bicon` module that holds
it, and every patch is undone by `uninstall`.

Each span records its duration and its self time: the duration minus the
part covered by its direct child spans. Span stacks are per thread, so the
cells a sweep runs in a thread pool do not nest inside one another.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Target:
    """One function to wrap.

    owner/attr locate the definition (a module, or a class for a method);
    name is the span name. label(*args, **kwargs) may return a suffix that
    splits the span name by an argument, and work(*args, **kwargs) a count
    of operations done by the call.
    """

    def __init__(self, owner, attr, name, label=None, work=None, keep=False):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.label = label
        self.work = work
        self.keep = keep


class Tracer:
    """Per-name call counts, total and self time, and work counts.

    Spans of targets created with keep=True are also stored as
    (name, thread id, start, end) in `spans`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, target):
        """Return fn wrapped in a span named after target."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name
            if target.label is not None:
                name = f"{name}.{target.label(*args, **kwargs)}"
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                work = 0.0 if target.work is None else target.work(*args, **kwargs)
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.total_s[name] += duration
                    tracer.self_s[name] += duration - children[0]
                    tracer.work[name] += work
                    if target.keep:
                        tracer.spans.append((name, threading.get_ident(), start, end))

        return traced

    def install(self, targets):
        """Patch every target; a target whose attribute is missing is skipped."""
        try:
            for target in targets:
                original = vars(target.owner).get(target.attr)
                if original is None:
                    continue
                wrapped = self.wrap(original, target)
                self._patch(target.owner, target.attr, wrapped)
                if isinstance(target.owner, type):
                    continue
                for module in _bicon_modules():
                    if module is target.owner:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def snapshot(self):
        """A copy of the counters."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "work": dict(self.work),
            }


def _bicon_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "bicon" or name.startswith("bicon."))]


def bicon_targets():
    """The public functions of bicon's modules, plus Adam.step and the
    per-cell run of a sweep.

    Imported late so that importing this module does not import bicon.
    """
    import numpy as np

    from bicon import cli, data, divergences, evaluation, kernels, model, trainers

    def kind(*args, **kwargs):
        return kwargs["kind"] if "kind" in kwargs else args[0]

    def distance_flops(a, b=None, **kwargs):
        n, d = np.shape(a)
        m = n if b is None else np.shape(b)[0]
        return 3.0 * n * m * d

    targets = []
    for module, names in (
        (kernels, ("squared_distances", "normalize_rows", "similarity_matrix", "kernel_rows",
                   "softmax_rows_grad", "kernel_rows_grad", "learned_rows", "validate_distribution",
                   "supervisory_sne", "supervisory_labels", "supervisory_knn", "cluster_transition",
                   "cluster_transition_grad")),
        (divergences, ("divergence_rows", "divergence_grad_rows", "divergence", "divergence_grad_q")),
        (model, ("forward", "backward", "head_forward", "head_backward", "save_checkpoint",
                 "load_checkpoint")),
        (evaluation, ("knn_accuracy", "silhouette", "hungarian_accuracy", "linear_probe",
                      "holdout_split", "max_assignment", "confusion_matrix", "kmeans_labels")),
        (data, ("generate", "load_matrix", "emit_report_csv", "emit_scatter_svg", "save_binary",
                "save_csv")),
        (trainers, ("run_sne", "run_cluster", "run_supcon", "loss_and_grad", "resolve_config",
                    "sne_free_value_and_grads", "encoder_value_and_grads",
                    "cluster_value_and_grads", "grad_norm_series")),
        (cli, ("cmd_eval", "config_hash")),
    ):
        short = module.__name__.rpartition(".")[2]
        for fn in names:
            label = kind if fn in ("divergence_rows", "divergence_grad_rows") else None
            work = distance_flops if fn == "squared_distances" else None
            targets.append(Target(module, fn, f"{short}.{fn}", label=label, work=work))
    targets.append(Target(model.Adam, "step", "model.Adam.step"))
    targets.append(Target(cli, "_execute_run", "cli._execute_run", keep=True))
    return targets
