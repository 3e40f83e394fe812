"""Per-layer metrics from the traced iterations of a workload.

Span names are `<module>.<function>`, with the divergence kind appended
for `divergence_rows` and `divergence_grad_rows`. Every time metric here
covers a layer that all three workloads exercise; functions that only
some workloads call are reported by call count, and their time is part of
a group (`kernels.transition`, `kernels.supervisory`, `model.encoder`,
`data.emit`, `trainers.run`) that every workload exercises.
"""

from __future__ import annotations

import statistics

MODULES = ("kernels", "divergences", "model", "evaluation", "data", "trainers", "cli")
KINDS = ("KL", "TV", "JSD", "Hellinger")

# self time of these span groups, seconds per iteration
SELF_TIME = {
    "kernels.squared_distances": ("kernels.squared_distances",),
    "kernels.transition": tuple(f"kernels.{f}" for f in (
        "similarity_matrix", "normalize_rows", "learned_rows", "kernel_rows", "softmax_rows_grad",
        "kernel_rows_grad", "cluster_transition", "cluster_transition_grad")),
    "kernels.validate_distribution": ("kernels.validate_distribution",),
    "kernels.supervisory": ("kernels.supervisory_sne", "kernels.supervisory_knn", "kernels.supervisory_labels"),
    "divergences.divergence_rows": tuple(f"divergences.divergence_rows.{k}" for k in KINDS),
    "divergences.divergence_grad_rows": tuple(f"divergences.divergence_grad_rows.{k}" for k in KINDS),
    "model.encoder": ("model.forward", "model.backward", "model.head_forward", "model.head_backward"),
    "model.Adam.step": ("model.Adam.step",),
    "model.save_checkpoint": ("model.save_checkpoint",),
    "model.load_checkpoint": ("model.load_checkpoint",),
    "evaluation.knn_accuracy": ("evaluation.knn_accuracy",),
    "evaluation.silhouette": ("evaluation.silhouette",),
    "evaluation.linear_probe": ("evaluation.linear_probe",),
    "data.generate": ("data.generate",),
    "data.load_matrix": ("data.load_matrix",),
    "data.emit": ("data.emit_report_csv", "data.emit_scatter_svg"),
    "trainers.run": ("trainers.run_sne", "trainers.run_cluster", "trainers.run_supcon"),
    "trainers.loss_and_grad": ("trainers.loss_and_grad",),
    "cli": ("cli._execute_run", "cli.cmd_eval", "cli.config_hash"),
}

# inclusive time (child spans included) of these span groups
TOTAL_TIME = {
    "kernels.supervisory": SELF_TIME["kernels.supervisory"],
    "evaluation.knn_accuracy": SELF_TIME["evaluation.knn_accuracy"],
    "cli.cmd_eval": ("cli.cmd_eval",),
}

# call counts per iteration
CALLS = (
    [f"kernels.{f}" for f in ("squared_distances", "kernel_rows", "softmax_rows_grad", "kernel_rows_grad",
                              "validate_distribution", "cluster_transition", "cluster_transition_grad",
                              "supervisory_sne", "supervisory_knn", "supervisory_labels")]
    + [f"divergences.{f}.{k}" for f in ("divergence_rows", "divergence_grad_rows") for k in KINDS]
    + [f"model.{f}" for f in ("forward", "backward", "head_forward", "head_backward", "Adam.step",
                              "save_checkpoint", "load_checkpoint")]
    + [f"evaluation.{f}" for f in ("knn_accuracy", "silhouette", "hungarian_accuracy", "linear_probe")]
    + [f"data.{f}" for f in ("generate", "load_matrix", "emit_report_csv", "emit_scatter_svg")]
    + [f"trainers.{f}" for f in ("run_sne", "run_cluster", "run_supcon", "loss_and_grad")]
    + ["cli._execute_run", "cli.cmd_eval"]
)

UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME},
    **{f"{name}.total_s": "s" for name in TOTAL_TIME},
    **{f"{name}.share": "%" for name in MODULES},
    **{f"{name}.calls": "count" for name in CALLS},
    "trainers.steps": "count",
    "kernels.squared_distances.calls_per_step": "calls/step",
    "kernels.squared_distances.gflops": "GFLOP/s",
    "cli.sweep.queue_wait_s": "s",
    "cli.sweep.parallel_efficiency": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# the direction in which each per-layer metric improves
HIGHER_IS_BETTER = {"kernels.squared_distances.gflops", "cli.sweep.parallel_efficiency"}


def _sum(values, names):
    return sum(values.get(name, 0) for name in names)


def iteration_metrics(it, jobs):
    """Per-layer values of one traced iteration."""
    calls, self_s = it["layers"]["calls"], it["layers"]["self_s"]
    wall = it["run_s"] + it["eval_s"]
    out = {f"{name}.self_s": _sum(self_s, spans) for name, spans in SELF_TIME.items()}
    out.update({f"{name}.total_s": _sum(it["layers"]["total_s"], spans) for name, spans in TOTAL_TIME.items()})
    for module in MODULES:
        share = sum(v for span, v in self_s.items() if span.startswith(module + "."))
        out[f"{module}.share"] = 100.0 * share / wall
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    out["trainers.steps"] = it["steps"]
    distance = "kernels.squared_distances"
    out[f"{distance}.calls_per_step"] = it["run_layers"]["calls"].get(distance, 0) / it["steps"]
    seconds = self_s.get(distance, 0.0)
    out[f"{distance}.gflops"] = it["layers"]["work"].get(distance, 0.0) / seconds / 1e9 if seconds else 0.0
    out["cli.sweep.queue_wait_s"] = it["queue_wait_s"]
    out["cli.sweep.parallel_efficiency"] = it["cell_s"] / (jobs * it["run_s"])
    return out


def layer_metrics(iterations, jobs):
    """Medians over the traced iterations, plus the tracing overhead.

    The first iteration, which is untraced and warms up, is left out of
    the untraced wall time."""
    per_it = [iteration_metrics(it, jobs) for it in iterations if it["traced"]]
    out = {name: statistics.median(m[name] for m in per_it) for name in per_it[0]}
    walls = {flag: statistics.median(it["run_s"] + it["eval_s"] for it in iterations[1:] if it["traced"] == flag)
             for flag in (True, False)}
    out["trace.wall_s"] = walls[True]
    out["trace.untraced_wall_s"] = walls[False]
    out["trace.overhead_s"] = walls[True] - walls[False]
    return out
