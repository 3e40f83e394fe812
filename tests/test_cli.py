"""End-to-end command-line tests: exit codes, emitted artifacts, sweep
grids, and run/eval metric consistency."""

import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bicon import divergences
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
from bicon.errors import ConfigError
from bicon.gradcheck import SCOPES, TOL, run_scope
from bicon.model import CHECKPOINT_MAGIC, FreeEmbedding, save_checkpoint


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
        real = divergences.divergence_grad_rows

        def crooked(kind, p, q):
            grad = real(kind, p, q)
            return grad + 0.5 if kind == "KL" else grad

        monkeypatch.setattr(divergences, "divergence_grad_rows", crooked)
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

    def test_cluster_on_overflowing_features_exits_2(self, tmp_path, capsys):
        # 1e200 loads as a finite float, but its squared norm overflows
        m = generate(DatasetSpec(n=30, d=3, classes=3, separation=8.0, seed=2))
        m.features[4, 1] = 1e200
        data = tmp_path / "big.csv"
        save_csv(m, data)
        cfg = write_json(tmp_path / "cfg.json", cluster_config(data_generator="file", data_path=str(data)))
        rc = main(["run", "cluster", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "squared norms and distances are finite" in capsys.readouterr().err

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

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", sne_config())
        rc = main([
            "run", "sne", "--config", cfg, "--out", str(tmp_path / "o"),
            "--sweep", "divergence=TV,JSD", "--jobs", "0",
        ])
        assert rc == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err


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

    def test_eval_matches_final_training_snapshot(self, tmp_path, capsys):
        out, data_path = self._run_and_save_data(tmp_path, sne_config())
        run_rows = read_metrics(out / "metrics.csv")
        rc = main([
            "eval", "--checkpoint", str(out / "checkpoint.bicn"),
            "--data", data_path, "--metrics", "knn,silhouette",
        ])
        assert rc == EXIT_OK
        capsys.readouterr()
        all_rows = read_metrics(out / "metrics.csv")
        appended = all_rows[len(run_rows):]
        by_name = dict((name, value) for name, value, _, _ in appended)
        run_by_name = dict((name, value) for name, value, _, _ in run_rows)
        assert by_name["knn"] == pytest.approx(run_by_name["knn"], abs=1e-12)
        assert by_name["silhouette"] == pytest.approx(run_by_name["silhouette"], abs=1e-12)
        # appended rows reuse the run manifest's hash and seed
        digest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["hash"]
        assert all(row[2] == digest for row in appended)

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

    def test_eval_knn_on_overflowing_features_exits_2(self, tmp_path, capsys):
        # a linear encoder carries a 1e200 feature into an embedding whose
        # squared norm overflows
        out, data_path = self._run_and_save_data(tmp_path, sne_config(mode="parametric", encoder="linear"))
        m = generate(DatasetSpec(generator="file", path=data_path))
        m.features[5, 0] = 1e200
        big = tmp_path / "big.csv"
        save_csv(m, big)
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out / "checkpoint.bicn"), "--data", str(big), "--metrics", "knn"])
        assert rc == EXIT_CONFIG
        assert "squared norms and distances are finite" in capsys.readouterr().err

    def test_eval_overflowing_checkpoint_shape_exits_2(self, tmp_path, capsys):
        # a free checkpoint declaring shape (2^40, 2^40) and no payload
        ckpt = tmp_path / "huge.bicn"
        ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5q", 0, 1, 2, 2 ** 40, 2 ** 40))
        data_path = tmp_path / "data.csv"
        save_csv(generate(DatasetSpec(n=12, d=2, classes=2, seed=0)), data_path)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_path), "--metrics", "knn"])
        assert rc == EXIT_CONFIG
        assert "truncated checkpoint payload" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("rank-1 table", "must have rank 2"),
        ("non-finite table", "non-finite"),
        ("negative labels", "labels must be non-negative"),
        ("manifest not JSON", "manifest.json is not valid JSON"),
        ("manifest a list", "manifest.json is not an object with a 'config' object"),
        ("manifest seed a string", "manifest.json has seed 'abc', not an integer >= 0"),
    ])
    def test_eval_malformed_input_exits_2(self, tmp_path, capsys, case, message):
        manifests = {
            "manifest not JSON": "{\"config\": ",
            "manifest a list": "[]",
            "manifest seed a string": json.dumps({"config": {"seed": "abc"}}),
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

def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "bicon", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gradcheck" in proc.stdout
