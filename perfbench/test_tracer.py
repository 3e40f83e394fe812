"""Tests of the benchmark's tracer and of BENCHMARK.json's metric lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
from tracer import Target, Tracer, bicon_targets  # noqa: E402


def _module(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_self_time_excludes_child_spans():
    now = [0.0]
    mod = _module("nested", (
        "def inner():\n"
        "    now[0] += 2.0\n"
        "def outer():\n"
        "    now[0] += 1.0\n"
        "    inner()\n"
        "    inner()\n"
        "    now[0] += 3.0\n"
    ))
    mod.now = now
    with Tracer(clock=lambda: now[0]) as tracer:
        tracer.install([Target(mod, "inner", "m.inner"), Target(mod, "outer", "m.outer")])
        mod.outer()
    assert tracer.calls == {"m.inner": 2, "m.outer": 1}
    assert tracer.total_s == {"m.inner": 4.0, "m.outer": 8.0}
    assert tracer.self_s == {"m.inner": 4.0, "m.outer": 4.0}


def test_label_splits_span_and_work_is_counted():
    mod = _module("labelled", "def f(kind, n):\n    return n\n")
    target = Target(mod, "f", "m.f", label=lambda kind, n: kind, work=lambda kind, n: 10.0 * n)
    with Tracer() as tracer:
        tracer.install([target])
        mod.f("KL", 1)
        mod.f("KL", 2)
        mod.f("TV", 3)
    assert tracer.calls == {"m.f.KL": 2, "m.f.TV": 1}
    assert tracer.work == {"m.f.KL": 30.0, "m.f.TV": 30.0}


def test_span_stacks_are_per_thread():
    # both threads hold open outer and inner spans at the same moment; a
    # shared stack would charge one thread's inner span to the other's
    barrier = threading.Barrier(2, timeout=10)
    mod = _module("threaded", (
        "import time\n"
        "def inner():\n"
        "    barrier.wait()\n"
        "    time.sleep(0.1)\n"
        "def outer():\n"
        "    time.sleep(0.05)\n"
        "    inner()\n"
        "    time.sleep(0.05)\n"
    ))
    mod.barrier = barrier
    with Tracer() as tracer:
        tracer.install([Target(mod, "inner", "m.inner"), Target(mod, "outer", "m.outer")])
        threads = [threading.Thread(target=mod.outer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    assert tracer.calls == {"m.inner": 2, "m.outer": 2}
    assert tracer.self_s["m.inner"] >= 0.2
    assert 0.2 <= tracer.self_s["m.outer"] < 0.35
    assert tracer._stack() == []


def _bicon_attributes():
    import bicon  # noqa: F401
    from bicon.model import Adam

    state = {(name, attr): value
             for name, module in sys.modules.items() if name == "bicon" or name.startswith("bicon.")
             for attr, value in vars(module).items()}
    state.update({("Adam", attr): value for attr, value in vars(Adam).items()})
    return state


def test_uninstall_restores_every_wrapped_attribute():
    import bicon
    from bicon import cli, evaluation, kernels, model, trainers

    before = _bicon_attributes()
    originals = (cli.run_sne, trainers.learned_rows, evaluation.squared_distances,
                 kernels.squared_distances, bicon.run_sne, model.Adam.step, cli._execute_run)
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.install(bicon_targets())
            patched = (cli.run_sne, trainers.learned_rows, evaluation.squared_distances,
                       kernels.squared_distances, bicon.run_sne, model.Adam.step, cli._execute_run)
            assert all(p is not o for p, o in zip(patched, originals))
            assert evaluation.squared_distances is kernels.squared_distances
            raise RuntimeError("leave the block early")
    after = _bicon_attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_sweep_with_two_jobs(tmp_path):
    from bicon.cli import main

    config = tmp_path / "sne.json"
    config.write_text(json.dumps({
        "task": "sne", "divergence": "TV", "perplexity": 5.0, "epochs": 5, "lr": 0.1,
        "data_n": 30, "data_d": 4, "data_classes": 3, "data_seed": 0,
    }))
    argv = ["run", "sne", "--config", str(config), "--out", str(tmp_path / "out"),
            "--sweep", "divergence=KL,TV,JSD,Hellinger", "--jobs", "2"]
    with Tracer() as tracer:
        tracer.install(bicon_targets())
        start = time.perf_counter()
        assert main(argv) == 0
        wall = time.perf_counter() - start
    # per cell: supervisory_sne, two per step, and the final snapshot's kNN and silhouette
    assert tracer.calls["kernels.squared_distances"] == 4 * (1 + 2 * 5 + 2)
    assert tracer.calls["trainers.run_sne"] == 4
    assert {tracer.calls[f"divergences.divergence_rows.{k}"] for k in layers.KINDS} == {5}
    cells = [s for s in tracer.spans if s[0] == "cli._execute_run"]
    assert len(cells) == 4
    assert threading.get_ident() not in {thread for _, thread, _, _ in cells}
    assert min(tracer.self_s.values()) >= 0.0
    assert sum(end - begin for _, _, begin, end in cells) <= 2 * wall
    assert tracer.total_s["trainers.run_sne"] <= tracer.total_s["cli._execute_run"]


def test_benchmark_json_lists_every_metric():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    assert {m["name"] for m in bench["per_layer"] if m["better"] == "higher"} == layers.HIGHER_IS_BETTER
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
