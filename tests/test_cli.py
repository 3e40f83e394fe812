"""End-to-end command-line tests: exit codes, emitted artifacts, sweep
grids, and run/eval metric consistency."""

import json
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from bicon import cli, divergences, trainers
from bicon.cli import (
    EXIT_CONFIG,
    EXIT_GRADCHECK,
    EXIT_NUMERICAL,
    EXIT_OK,
    config_hash,
    fnv1a64,
    main,
    parse_sweep,
    sweep_cells,
)
from bicon.data import DatasetSpec, LabeledMatrix, generate, save_binary, save_csv
from bicon.errors import ConfigError, NumericalError
from bicon.evaluation import METRICS
from bicon.gradcheck import SCOPES, TOL, run_scope
from bicon.model import CHECKPOINT_MAGIC, ClusterHead, FreeEmbedding, save_checkpoint


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def sne_config(**overrides):
    cfg = {
        "divergence": "TV",
        "kernel": "distance",
        "perplexity": 5.0,
        "lr": 0.05,
        "epochs": 3,
        "seed": 0,
        "mode": "free",
        "out_dim": 2,
        "data_generator": "gaussian_blobs",
        "data_n": 24,
        "data_d": 2,
        "data_classes": 3,
        "data_separation": 8.0,
        "data_seed": 1,
    }
    cfg.update(overrides)
    return cfg


def cluster_config(**overrides):
    cfg = {
        "divergence": "TV",
        "clusters": 3,
        "k": 5,
        "lr": 0.05,
        "epochs": 2,
        "batch_size": 15,
        "seed": 0,
        "data_generator": "gaussian_blobs",
        "data_n": 30,
        "data_d": 3,
        "data_classes": 3,
        "data_separation": 8.0,
        "data_seed": 2,
    }
    cfg.update(overrides)
    return cfg


def supcon_config(**overrides):
    cfg = {
        "divergence": "KL",
        "kernel": "angular",
        "lr": 1e-3,
        "epochs": 2,
        "batch_size": 8,
        "seed": 0,
        "encoder": "mlp1",
        "hidden": 8,
        "out_dim": 4,
        "data_generator": "gaussian_blobs",
        "data_n": 40,
        "data_d": 4,
        "data_classes": 4,
        "data_separation": 8.0,
        "data_seed": 3,
    }
    cfg.update(overrides)
    return cfg


def read_metrics(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value,hash,seed"
    rows = []
    for line in lines[1:]:
        name, value, digest, seed = line.split(",")
        rows.append((name, float(value), digest, int(seed)))
    return rows


class TestHashing:
    def test_fnv1a64_published_vectors(self):
        # reference vectors for the 64-bit FNV-1a parameters
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_config_hash_ignores_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_config_hash_sees_value_changes(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_config_hash_is_16_hex_chars(self):
        digest = config_hash({"lr": 0.1})
        assert len(digest) == 16
        int(digest, 16)


class TestSweepHelpers:
    def test_parse_sweep_splits_tokens_and_values(self):
        axes = parse_sweep(["lr=0.1,0.2", "divergence=TV,JSD"])
        assert axes[0] == ("lr", ["0.1", "0.2"], [0.1, 0.2])
        assert axes[1] == ("divergence", ["TV", "JSD"], ["TV", "JSD"])

    @pytest.mark.parametrize("flag", ["lr", "=1,2", "lr=", "lr=1,,2"])
    def test_parse_sweep_rejects_malformed(self, flag):
        with pytest.raises(ConfigError, match="sweep"):
            parse_sweep([flag])

    def test_sweep_cells_cross_product_order(self):
        axes = parse_sweep(["lr=0.1,0.2", "seed=5"])
        cells = sweep_cells(axes)
        assert [name for _, name, _ in cells] == ["lr=0.1_seed=5", "lr=0.2_seed=5"]
        assert cells[1][2] == {"lr": 0.2, "seed": 5}


class TestGradcheckCommand:
    def test_divergences_scope_passes(self, capsys):
        assert main(["gradcheck", "divergences"]) == EXIT_OK
        out = capsys.readouterr().out
        for kind in ("KL", "TV", "JSD", "Hellinger"):
            assert f"{kind} worst_rel_err=" in out
        assert "gradcheck divergences: 4/4" in out
        assert "FAIL" not in out

    def test_corrupted_gradient_fails_and_names_component(self, capsys, monkeypatch):
        real = divergences.divergence_rows

        def crooked(kind, p, q):
            values, grad = real(kind, p, q)
            return values, (grad + 0.5 if kind == "KL" else grad)

        monkeypatch.setattr(divergences, "divergence_rows", crooked)
        assert main(["gradcheck", "divergences"]) == EXIT_GRADCHECK
        out = capsys.readouterr().out
        assert "gradcheck divergences: 3/4" in out
        assert "failing components: KL" in out

    def test_unknown_scope_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("scope", SCOPES)
    def test_every_scope_within_tolerance(self, scope):
        results = run_scope(scope)
        assert results
        assert [component for component, err in results if not err <= TOL] == []


class TestRunCommand:
    def test_sne_run_emits_all_artifacts(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "out"
        assert main(["run", "sne", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in ("manifest.json", "report.csv", "metrics.csv", "checkpoint.bicn", "scatter.svg"):
            assert (out / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "loss=" in stdout

        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        expected = config_hash({"config": manifest["config"], "data": manifest["data"]})
        assert manifest["hash"] == expected

        rows = read_metrics(out / "metrics.csv")
        names = [name for name, _, _, _ in rows]
        assert names[0] == "loss"
        assert "knn" in names and "silhouette" in names
        assert all(digest == manifest["hash"] for _, _, digest, _ in rows)

    def test_high_dim_run_skips_scatter(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", supcon_config())
        out = tmp_path / "out"
        assert main(["run", "supcon", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert not (out / "scatter.svg").exists()
        names = [name for name, _, _, _ in read_metrics(out / "metrics.csv")]
        assert "knn" in names and "collapsed" in names

    def test_cluster_run_reports_hungarian(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", cluster_config())
        out = tmp_path / "out"
        assert main(["run", "cluster", "--config", cfg, "--out", str(out)]) == EXIT_OK
        names = [name for name, _, _, _ in read_metrics(out / "metrics.csv")]
        assert "hungarian" in names

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "sne", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        assert main(["run", "sne", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        for name in ("report.csv", "metrics.csv", "checkpoint.bicn", "scatter.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sne_config(seed=0))
        out = tmp_path / "out"
        assert main(["run", "sne", "--config", cfg, "--out", str(out), "--seed", "9"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["seed"] == 9

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "sne", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["run", "sne", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config(wobble=1))
        rc = main(["run", "sne", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "wobble" in capsys.readouterr().err

    def test_config_task_must_match_command(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config(task="cluster"))
        rc = main(["run", "sne", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("override, sweep, message", [
        ({"epochs": "10"}, [], "epochs must be an integer, got '10'"),
        ({"epochs": 3.5}, [], "epochs must be an integer, got 3.5"),
        ({"epochs": True}, [], "epochs must be an integer, got True"),
        ({"data_n": "40"}, [], "data_n must be an integer, got '40'"),
        ({}, ["--sweep", "epochs=ten"], "epochs must be an integer, got 'ten'"),
        ({"seed": -1}, ["--sweep", "lr=0.1,0.2"], "seed must be >= 0"),
        ({"data_seed": -1}, [], "need seed >= 0"),
        ({"mode": "parametric", "hidden": 0}, [], "hidden must be >= 1, got 0"),
        ({"grad_clip": float("nan")}, [], "grad_clip must be finite and >= 0, got nan"),
        ({"collapse_arm": float("nan")}, [], "finite arm > trip > 0"),
        ({"collapse_trip": float("nan")}, [], "finite arm > trip > 0"),
    ], ids=["epochs-string", "epochs-float", "epochs-bool", "data_n-string", "sweep-epochs-word",
            "negative-seed", "negative-data_seed", "zero-hidden", "nan-grad_clip", "nan-collapse_arm",
            "nan-collapse_trip"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, override, sweep, message):
        cfg = write_json(tmp_path / "cfg.json", sne_config(**override))
        rc = main(["run", "sne", "--config", cfg, "--out", str(tmp_path / "o"), *sweep])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_cluster_on_too_few_points_exits_2(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        save_csv(LabeledMatrix(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])), data)
        cfg = write_json(tmp_path / "cfg.json", cluster_config(
            data_generator="file", data_path=str(data), k=2, clusters=2, batch_size=4))
        rc = main(["run", "cluster", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "no batch of at least 4 points" in capsys.readouterr().err

    def test_supcon_batch_beyond_the_data_exits_2(self, tmp_path, capsys):
        # the loss sizes its buffers by the batches it is given, not by batch_size
        cfg = write_json(tmp_path / "cfg.json", supcon_config(batch_size=10**9))
        rc = main(["run", "supcon", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "not enough samples per class" in capsys.readouterr().err

    def test_cluster_batch_beyond_the_data(self, tmp_path, capsys):
        # the loss sizes its slab by the batches it is given, not by
        # batch_size: one full batch trains, and three points still make no batch
        cfg = write_json(tmp_path / "cfg.json", cluster_config(batch_size=10**9))
        assert main(["run", "cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        data = tmp_path / "three.csv"
        save_csv(LabeledMatrix(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0])), data)
        cfg = write_json(tmp_path / "cfg.json", cluster_config(
            data_generator="file", data_path=str(data), k=2, clusters=2, batch_size=10**9))
        rc = main(["run", "cluster", "--config", cfg, "--out", str(tmp_path / "o3")])
        assert rc == EXIT_CONFIG
        assert "no batch of at least 4 points" in capsys.readouterr().err

    def _run_on_overflowing_features(self, tmp_path, capsys, task, config):
        # 1e200 loads as a finite float, but its squared norm overflows
        m = generate(DatasetSpec(n=30, d=3, classes=3, separation=8.0, seed=2))
        m.features[4, 1] = 1e200
        data = tmp_path / "big.csv"
        save_csv(m, data)
        cfg = write_json(tmp_path / "cfg.json", {**config, "data_generator": "file", "data_path": str(data)})
        rc = main(["run", task, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "squared norms and distances are finite" in capsys.readouterr().err

    def test_cluster_on_overflowing_features_exits_2(self, tmp_path, capsys):
        self._run_on_overflowing_features(tmp_path, capsys, "cluster", cluster_config())

    def test_sne_on_overflowing_features_exits_2(self, tmp_path, capsys):
        self._run_on_overflowing_features(tmp_path, capsys, "sne", sne_config(mode="parametric"))

    @pytest.mark.parametrize("task, config", [
        ("sne", sne_config(data_n=10**15)),
        ("supcon", supcon_config(hidden=10**15)),
        ("cluster", cluster_config(clusters=10**15)),
    ], ids=["data_n", "supcon-hidden", "clusters"])
    def test_size_no_array_can_hold_exits_2(self, tmp_path, capsys, task, config):
        # the allocation fails at once, before any memory is touched
        cfg = write_json(tmp_path / "cfg.json", config)
        rc = main(["run", task, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "error: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("task, config", [
        ("sne", sne_config(data_n=2**62)),
        ("cluster", cluster_config(clusters=2**62)),
        ("supcon", supcon_config(hidden=2**62)),
        ("supcon", supcon_config(out_dim=2**62)),
    ], ids=["data_n", "clusters", "supcon-hidden", "supcon-out_dim"])
    def test_size_past_numpys_array_limit_exits_2(self, tmp_path, capsys, task, config):
        # numpy refuses the shape with a ValueError before any allocation
        cfg = write_json(tmp_path / "cfg.json", config)
        rc = main(["run", task, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "error: array is too big" in capsys.readouterr().err

    @pytest.mark.parametrize("task, config, key", [
        ("sne", sne_config(data_n=2**63), "data_n"),
        ("sne", sne_config(data_d=2**63), "data_d"),
        ("cluster", cluster_config(clusters=2**63), "clusters"),
        ("supcon", supcon_config(hidden=2**63), "hidden"),
        ("supcon", supcon_config(out_dim=2**63), "out_dim"),
        ("sne", sne_config(lr=10**400), "lr"),
    ], ids=["data_n", "data_d", "clusters", "supcon-hidden", "supcon-out_dim", "lr"])
    def test_integer_past_int64_exits_2(self, tmp_path, capsys, task, config, key):
        # the config's type check refuses it before numpy or float() sees it
        cfg = write_json(tmp_path / "cfg.json", config)
        rc = main(["run", task, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert f"error: {key} must lie in [-2**63, 2**63)" in capsys.readouterr().err

    def test_cluster_run_runs_the_head_once_per_step_and_snapshot(self, tmp_path, monkeypatch):
        # 60 epochs of 4 batches and 60 snapshots: the run's features are its
        # last snapshot's, not a forward pass of their own
        calls = []
        real_forward = ClusterHead.forward

        def counting(self, x):
            calls.append(len(x))
            return real_forward(self, x)

        monkeypatch.setattr(ClusterHead, "forward", counting)
        rc = main(["run", "cluster", "--config", str(CONFIGS / "cluster_blobs.json"), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        assert len(calls) == 300

    def test_overflow_aborts_with_numerical_exit(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config(divergence="KL", lr=1e155))
        rc = main(["run", "sne", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical abort" in err
        assert "divergence=KL" in err and "step=" in err


class TestSweep:
    def test_grid_emits_subdirs_and_aggregate_csv(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "sweep"
        rc = main([
            "run", "sne", "--config", cfg, "--out", str(out),
            "--sweep", "divergence=TV,JSD",
        ])
        assert rc == EXIT_OK
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cell,metric,value,hash,seed"
        cells = {line.split(",")[0] for line in lines[1:]}
        assert cells == {"divergence=TV", "divergence=JSD"}
        for name in cells:
            assert (out / name / "manifest.json").is_file()
            assert (out / name / "report.csv").is_file()

    def test_cells_get_derived_seeds(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sne_config(seed=10))
        out = tmp_path / "sweep"
        assert main([
            "run", "sne", "--config", cfg, "--out", str(out),
            "--sweep", "divergence=TV,JSD",
        ]) == EXIT_OK
        seeds = {}
        for name in ("divergence=TV", "divergence=JSD"):
            manifest = json.loads((out / name / "manifest.json").read_text(encoding="utf-8"))
            seeds[name] = manifest["config"]["seed"]
        assert seeds == {"divergence=TV": 10, "divergence=JSD": 11}

    def test_explicit_seed_axis_is_not_rederived(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "sweep"
        assert main([
            "run", "sne", "--config", cfg, "--out", str(out), "--sweep", "seed=5,6",
        ]) == EXIT_OK
        for name, want in (("seed=5", 5), ("seed=6", 6)):
            manifest = json.loads((out / name / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["config"]["seed"] == want

    def test_parallel_jobs_match_sequential_bytes(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out_seq, out_par = tmp_path / "seq", tmp_path / "par"
        base = ["run", "sne", "--config", cfg, "--sweep", "divergence=TV,JSD"]
        assert main(base + ["--out", str(out_seq)]) == EXIT_OK
        assert main(base + ["--out", str(out_par), "--jobs", "2"]) == EXIT_OK
        assert (out_seq / "sweep.csv").read_bytes() == (out_par / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("task, config, sweep, cells", [
        ("sne", sne_config(), "divergence=KL,TV,JSD,Hellinger", 4),
        ("supcon", supcon_config(), "kernel=distance,angular", 2),
        ("cluster", cluster_config(), "divergence=KL,TV,JSD,Hellinger", 4),
    ])
    def test_two_jobs_write_the_bytes_of_one(self, tmp_path, task, config, sweep, cells):
        # each run's loss owns its scratch; cells sharing any would diverge under two threads
        cfg = write_json(tmp_path / "cfg.json", config)
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert main(["run", task, "--config", cfg, "--sweep", sweep, "--out", str(out),
                         "--jobs", jobs]) == EXIT_OK
        files = sorted(path.relative_to(outs["1"]) for path in outs["1"].rglob("*.csv"))
        assert len(files) == 1 + 2 * cells
        for name in files:
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name

    def test_unknown_sweep_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        rc = main([
            "run", "sne", "--config", cfg, "--out", str(tmp_path / "o"),
            "--sweep", "wobble=1,2",
        ])
        assert rc == EXIT_CONFIG
        assert "unknown sweep keys: wobble" in capsys.readouterr().err

    def test_bad_sweep_value_fails_before_any_training(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "o"
        rc = main([
            "run", "sne", "--config", cfg, "--out", str(out),
            "--sweep", "divergence=TV,WAT",
        ])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_bad_data_sweep_value_fails_before_any_training(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "o"
        rc = main(["run", "sne", "--config", cfg, "--out", str(out), "--sweep", "data_seed=1,-1"])
        assert rc == EXIT_CONFIG
        assert "need seed >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("seed, sweep, message", [
        # cell 0 keeps the seed 2**63 - 1; cell 1's derived seed is 2**63
        (2**63 - 1, "divergence=KL,TV", "seed must lie in [-2**63, 2**63), got an integer of 64 bits"),
        (0, "task=sne,cluster", "config task 'cluster' does not match command 'sne'"),
    ], ids=["derived-seed-past-int64", "task-of-another-command"])
    def test_a_cell_that_resolves_only_in_the_sweep_fails_before_any_training(self, tmp_path, capsys, jobs,
                                                                              seed, sweep, message):
        cfg = write_json(tmp_path / "cfg.json", sne_config(seed=seed))
        out = tmp_path / "o"
        rc = main(["run", "sne", "--config", cfg, "--out", str(out), "--jobs", jobs, "--sweep", sweep])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep, message", [
        (["divergence=KL,KL"], "--sweep 'divergence=KL,KL' repeats a value or the key of another axis"),
        (["divergence=KL", "divergence=TV"], "--sweep 'divergence=TV' repeats a value or the key of another axis"),
    ], ids=["value-twice-in-an-axis", "key-in-two-axes"])
    def test_cells_sharing_a_directory_fail_before_any_training(self, tmp_path, capsys, sweep, message):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "o"
        args = ["run", "sne", "--config", cfg, "--out", str(out), "--jobs", "2"]
        rc = main(args + [flag for axis in sweep for flag in ("--sweep", axis)])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        rc = main([
            "run", "sne", "--config", cfg, "--out", str(tmp_path / "o"),
            "--sweep", "divergence=TV,JSD", "--jobs", "0",
        ])
        assert rc == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err


def run_files(out):
    """Each output file of a run directory by name, as bytes; the manifest
    without the fields that name the config file and output directory."""
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["out"], manifest["config_path"]
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each
    call; returns the list of calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepSharesInputs:
    """Each distinct dataset and one-off target of a sweep is built once and
    handed read-only to the cells that share it."""

    def test_shared_values_under_thread_contention(self):
        # eight threads on two cores, switching every microsecond: each key
        # is built once, every cell gets that one value, and the last
        # release of each key drops it
        keys = [i % 5 for i in range(40)]
        shared = cli._Shared(keys)
        builds, got, lock = [], [], threading.Lock()

        def build(key):
            with lock:
                builds.append(key)
            time.sleep(1e-3)
            return object()

        def cell(key):
            value = shared.get(key, lambda: build(key))
            with lock:
                got.append((key, value))
            shared.release(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda chunk=keys[i::8]: [cell(k) for k in chunk]) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(builds) == list(range(5))
        assert len(got) == 40 and len({(key, id(value)) for key, value in got}) == 5
        assert shared._entries == {}

    @pytest.mark.parametrize("task, config, sweep, knn, sne", [
        ("cluster", cluster_config(), ["divergence=KL,TV,JSD,Hellinger"], 1, 0),
        ("cluster", cluster_config(), ["k=5,10"], 2, 0),
        ("cluster", cluster_config(), ["data_seed=1,2"], 2, 0),
        ("cluster", cluster_config(), ["data_seed=1,2", "k=5,10", "divergence=KL,TV"], 4, 0),
        ("sne", sne_config(), ["divergence=KL,TV,JSD,Hellinger"], 0, 1),
        ("sne", sne_config(), ["perplexity=5,6", "divergence=KL,TV"], 0, 2),
        ("supcon", supcon_config(), ["divergence=KL,TV", "kernel=distance,angular"], 0, 0),
    ], ids=["cluster-divergence", "cluster-k", "cluster-data_seed", "cluster-grid", "sne-divergence",
            "sne-perplexity", "supcon"])
    def test_one_build_per_distinct_target(self, tmp_path, monkeypatch, task, config, sweep, knn, sne):
        graphs = counting(monkeypatch, trainers, "_knn_graph")
        rows = counting(monkeypatch, trainers, "supervisory_sne")
        datasets = counting(monkeypatch, cli, "generate")
        cfg = write_json(tmp_path / "cfg.json", config)
        argv = ["run", task, "--config", cfg, "--out", str(tmp_path / "o")]
        for axis in sweep:
            argv += ["--sweep", axis]
        assert main(argv + ["--jobs", "2"]) == EXIT_OK
        assert (len(graphs), len(rows)) == (knn, sne)
        assert len(datasets) == (2 if any(axis.startswith("data_seed") for axis in sweep) else 1)

    @pytest.mark.parametrize("task, config, array", [
        ("cluster", cluster_config(), "target"),
        ("sne", sne_config(), "target"),
        ("supcon", supcon_config(), "features"),
        ("cluster", cluster_config(), "labels"),
    ])
    def test_a_cell_that_writes_to_a_shared_array_raises(self, tmp_path, monkeypatch, task, config, array):
        engine = f"run_{task}"
        real = getattr(cli, engine)

        def writing(cfg, x, labels, target=None):
            {"target": target, "features": x, "labels": labels}[array][0] = 0
            return real(cfg, x, labels)

        monkeypatch.setattr(cli, engine, writing)
        cfg = write_json(tmp_path / "cfg.json", config)
        with pytest.raises(ValueError, match="read-only"):
            main(["run", task, "--config", cfg, "--out", str(tmp_path / "o"), "--sweep", "divergence=KL,TV"])

    @pytest.mark.parametrize("task, config, sweep", [
        ("sne", sne_config(), ["data_seed=1,2", "divergence=KL,Hellinger"]),
        ("cluster", cluster_config(), ["divergence=JSD,TV", "k=4,6"]),
        ("supcon", supcon_config(), ["kernel=distance,angular"]),
    ])
    def test_each_cell_writes_the_bytes_of_its_single_run(self, tmp_path, task, config, sweep):
        cfg = write_json(tmp_path / "cfg.json", config)
        argv = ["run", task, "--config", cfg, "--out", str(tmp_path / "sweep"), "--jobs", "2"]
        for axis in sweep:
            argv += ["--sweep", axis]
        assert main(argv) == EXIT_OK
        for index, name, overrides in sweep_cells(parse_sweep(sweep)):
            single = write_json(tmp_path / f"{index}.json", {**config, **overrides, "seed": config["seed"] + index})
            out = tmp_path / f"single{index}"
            assert main(["run", task, "--config", single, "--out", str(out)]) == EXIT_OK
            assert run_files(tmp_path / "sweep" / name) == run_files(out), name

    def test_targets_alive_at_once_stay_within_the_jobs(self, tmp_path, monkeypatch):
        # cells that share a target run one after another, and a target is
        # dropped after its last cell: with two jobs, at most three graphs
        # (two in use, one just built or about to be dropped) are alive
        lock = threading.Lock()
        alive, peak, built = [0], [0], []
        real = trainers._knn_graph

        def tracked(x, k):
            graph = real(x, k)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
                built.append(k)
            weakref.finalize(graph, lambda: alive.__setitem__(0, alive[0] - 1))
            return graph

        monkeypatch.setattr(trainers, "_knn_graph", tracked)
        cfg = write_json(tmp_path / "cfg.json", cluster_config(epochs=1))
        assert main(["run", "cluster", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2",
                     "--sweep", "divergence=KL,TV,JSD", "--sweep", "data_seed=1,2,3,4,5"]) == EXIT_OK
        assert len(built) == 5
        assert 1 <= peak[0] <= 3
        assert alive[0] == 0

    def test_a_failed_build_aborts_exactly_the_cells_that_share_it(self, tmp_path, monkeypatch, capsys):
        real = trainers.supervisory_sne
        calls = []

        def failing(x, perplexity):
            calls.append(perplexity)
            if perplexity == 6:
                raise NumericalError("bandwidth search did not converge", row=3)
            return real(x, perplexity)

        monkeypatch.setattr(trainers, "supervisory_sne", failing)
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        out = tmp_path / "o"
        rc = main(["run", "sne", "--config", cfg, "--out", str(out), "--jobs", "2",
                   "--sweep", "divergence=KL,TV", "--sweep", "perplexity=5,6"])
        assert rc == EXIT_NUMERICAL
        assert sorted(calls) == [5, 6]
        err = capsys.readouterr().err.splitlines()
        aborted = sorted(line.split(":")[0] for line in err if "numerical abort" in line)
        assert aborted == ["divergence=KL_perplexity=6", "divergence=TV_perplexity=6"]
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert sorted({line.split(",")[0] for line in lines}) == ["divergence=KL_perplexity=5",
                                                                 "divergence=TV_perplexity=5"]
        for name in ("divergence=KL_perplexity=5", "divergence=TV_perplexity=5"):
            assert (out / name / "checkpoint.bicn").is_file()
        for name in aborted:
            assert not (out / name).exists()


class TestEvalCommand:
    def _run_and_save_data(self, tmp_path, config):
        cfg_path = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "run"
        task = config.get("task", "sne")
        assert main(["run", task, "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        spec = DatasetSpec(
            generator=config["data_generator"],
            n=config["data_n"],
            d=config["data_d"],
            classes=config["data_classes"],
            separation=config["data_separation"],
            seed=config["data_seed"],
        )
        data_path = tmp_path / "data.csv"
        save_csv(generate(spec), data_path)
        return out, str(data_path)

    def _assert_eval_matches_final_snapshot(self, tmp_path, capsys, config, metrics):
        out, data_path = self._run_and_save_data(tmp_path, config)
        run_rows = read_metrics(out / "metrics.csv")
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", data_path, "--metrics", ",".join(metrics),
        ])
        assert rc == EXIT_OK
        capsys.readouterr()
        all_rows = read_metrics(out / "metrics.csv")
        appended = all_rows[len(run_rows):]
        by_name = dict((name, value) for name, value, _, _ in appended)
        run_by_name = dict((name, value) for name, value, _, _ in run_rows)
        assert sorted(by_name) == sorted(metrics)
        for name in metrics:
            assert by_name[name] == pytest.approx(run_by_name[name], abs=1e-12)
        # appended rows reuse the run manifest's hash and seed
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert all(row[2] == manifest["hash"] for row in appended)
        assert all(row[3] == manifest["config"]["seed"] for row in appended)

    def test_eval_matches_final_training_snapshot(self, tmp_path, capsys):
        self._assert_eval_matches_final_snapshot(tmp_path, capsys, sne_config(), ["knn", "silhouette"])

    @pytest.mark.parametrize("config, metrics", [
        ({**supcon_config(), "task": "supcon"}, ["knn"]),
        (sne_config(mode="parametric", encoder="mlp1", hidden=8, epochs=5), ["knn", "silhouette"]),
    ], ids=["supcon", "parametric-sne"])
    def test_eval_of_an_encoder_matches_final_training_snapshot(self, tmp_path, capsys, config, metrics):
        self._assert_eval_matches_final_snapshot(tmp_path, capsys, config, metrics)

    @pytest.mark.parametrize("config, metric, message", [
        ({**supcon_config(), "task": "supcon"}, "knn", "does not match W1"),
        ({**cluster_config(), "task": "cluster"}, "hungarian", "does not match W"),
    ], ids=["encoder", "head"])
    def test_eval_on_data_of_another_width_exits_2(self, tmp_path, capsys, config, metric, message):
        out, _ = self._run_and_save_data(tmp_path, config)
        wider = tmp_path / "wider.csv"
        save_csv(generate(DatasetSpec(n=config["data_n"], d=config["data_d"] + 1, classes=3, seed=4)), wider)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.bicn"), "--data", str(wider), "--metrics", metric])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_eval_hungarian_on_cluster_head(self, tmp_path, capsys):
        config = cluster_config()
        config["task"] = "cluster"
        out, data_path = self._run_and_save_data(tmp_path, config)
        run_by_name = dict((n, v) for n, v, _, _ in read_metrics(out / "metrics.csv"))
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", data_path, "--metrics", "hungarian",
        ])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        value = float(printed.split("hungarian=")[1].split()[0])
        assert value == pytest.approx(run_by_name["hungarian"], abs=1e-12)

    def test_eval_out_dir_gets_fresh_csv(self, tmp_path, capsys):
        out, data_path = self._run_and_save_data(tmp_path, sne_config())
        elsewhere = tmp_path / "elsewhere"
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", data_path, "--metrics", "knn", "--out", str(elsewhere),
        ])
        assert rc == EXIT_OK
        rows = read_metrics(elsewhere / "metrics.csv")
        assert [name for name, _, _, _ in rows] == ["knn"]

    def test_eval_rejects_unknown_metric(self, tmp_path, capsys):
        out, data_path = self._run_and_save_data(tmp_path, sne_config())
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", data_path, "--metrics", "knn,sharpness",
        ])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sharpness" in err
        assert "hungarian, knn, probe, silhouette" in err

    def test_eval_hungarian_needs_head_checkpoint(self, tmp_path, capsys):
        out, data_path = self._run_and_save_data(tmp_path, sne_config())
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", data_path, "--metrics", "hungarian",
        ])
        assert rc == EXIT_CONFIG
        assert "cluster-head" in capsys.readouterr().err

    def test_eval_rejects_mismatched_dataset_size(self, tmp_path, capsys):
        out, _ = self._run_and_save_data(tmp_path, sne_config())
        other = generate(DatasetSpec(generator="gaussian_blobs", n=30, d=2, classes=3, separation=8.0, seed=4))
        other_path = tmp_path / "other.csv"
        save_csv(other, other_path)
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", str(other_path), "--metrics", "knn",
        ])
        assert rc == EXIT_CONFIG
        assert "24" in capsys.readouterr().err

    def _eval_overflowing_features(self, tmp_path, capsys, metric):
        # a linear encoder carries a 1e200 feature into an embedding whose
        # squared norm overflows
        out, data_path = self._run_and_save_data(tmp_path, sne_config(mode="parametric", encoder="linear"))
        m = generate(DatasetSpec(generator="file", path=data_path))
        m.features[5, 0] = 1e200
        big = tmp_path / "big.csv"
        save_csv(m, big)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.bicn"), "--data", str(big), "--metrics", metric])
        assert rc == EXIT_CONFIG
        assert "squared norms and distances are finite" in capsys.readouterr().err

    def test_eval_knn_on_overflowing_features_exits_2(self, tmp_path, capsys):
        self._eval_overflowing_features(tmp_path, capsys, "knn")

    def test_eval_silhouette_on_overflowing_features_exits_2(self, tmp_path, capsys):
        self._eval_overflowing_features(tmp_path, capsys, "silhouette")

    def test_eval_probe_on_overflowing_features_exits_2(self, tmp_path, capsys):
        self._eval_overflowing_features(tmp_path, capsys, "probe")

    def test_eval_overflowing_checkpoint_shape_exits_2(self, tmp_path, capsys):
        # a free checkpoint declaring shape (2^40, 2^40) and no payload
        ckpt = tmp_path / "huge.bicn"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5q", 0, 1, 2, 2 ** 40, 2 ** 40))
        data_path = tmp_path / "data.csv"
        save_csv(generate(DatasetSpec(n=12, d=2, classes=2, seed=0)), data_path)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_path), "--metrics", "knn"])
        assert rc == EXIT_CONFIG
        assert "truncated checkpoint payload" in capsys.readouterr().err

    def test_eval_of_a_zero_cluster_head_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "head.bicn"
        save_checkpoint(ckpt, ClusterHead(np.ones((2, 0)), np.zeros(0)))
        data_path = tmp_path / "data.csv"
        save_csv(generate(DatasetSpec(n=12, d=2, classes=2, seed=0)), data_path)
        for metric in METRICS:
            rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_path), "--metrics", metric])
            assert rc == EXIT_CONFIG
            assert "zero or negative dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("rank-1 table", "must have rank 2"),
        ("non-finite table", "non-finite"),
        ("negative labels", "labels must be non-negative"),
        ("manifest not JSON", "manifest.json is not valid JSON"),
        ("manifest a list", "manifest.json is not an object with a 'config' object"),
        ("manifest seed a string", "manifest.json has seed 'abc', not an integer >= 0"),
        ("manifest hash with a newline", "manifest.json has hash 'x,y\\nz', not 16 lowercase hex digits"),
        ("manifest hash in upper case", "manifest.json has hash '0123456789ABCDEF', not 16 lowercase hex"),
    ])
    def test_eval_malformed_input_exits_2(self, tmp_path, capsys, case, message):
        manifests = {
            "manifest not JSON": "{\"config\": ",
            "manifest a list": "[]",
            "manifest seed a string": json.dumps({"config": {"seed": "abc"}}),
            "manifest hash with a newline": json.dumps({"config": {"seed": 0}, "hash": "x,y\nz"}),
            "manifest hash in upper case": json.dumps({"config": {"seed": 0}, "hash": "0123456789ABCDEF"}),
        }
        if case in manifests:
            (tmp_path / "manifest.json").write_text(manifests[case], encoding="utf-8")
        table = np.random.default_rng(0).normal(size=(12, 2))
        ckpt = tmp_path / "free.bicn"
        if case == "rank-1 table":
            # kind tag 0 (free), one tensor of rank 1 holding the same 24 floats
            ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<4q", 0, 1, 1, 24) + table.tobytes())
        else:
            if case == "non-finite table":
                table[3, 1] = np.nan
            save_checkpoint(ckpt, FreeEmbedding(table))
        m = generate(DatasetSpec(n=12, d=2, classes=2, seed=0))
        labels = -1 - m.labels if case == "negative labels" else m.labels
        data_path = tmp_path / "data.bin"
        save_binary(LabeledMatrix(m.features, labels), data_path)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_path), "--metrics", "knn"])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "bicon", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gradcheck" in proc.stdout
