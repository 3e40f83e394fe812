"""Dataset generation, matrix file IO, CSV/SVG emission, and damaged
input files."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bicon import DatasetSpec, generate, load_matrix
from bicon.data import (
    MATRIX_MAGIC,
    LabeledMatrix,
    _validate_spec,
    emit_report_csv,
    emit_scatter_svg,
    save_binary,
    save_csv,
)
from bicon.errors import ConfigError, DimensionError, ParseError, check_field_types
from bicon.evaluation import holdout_split, knn_accuracy
from bicon.model import ClusterHead, Encoder, FreeEmbedding, load_checkpoint, save_checkpoint


def blob_spec(**kw):
    base = dict(generator="gaussian_blobs", n=200, d=5, classes=4,
                separation=8.0, seed=0)
    base.update(kw)
    return DatasetSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        a = generate(blob_spec())
        b = generate(blob_spec())
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_output(self):
        a = generate(blob_spec())
        b = generate(blob_spec(seed=1))
        assert not np.array_equal(a.features, b.features)

    def test_label_counts_balanced(self):
        m = generate(blob_spec(n=202))
        counts = np.bincount(m.labels, minlength=4)
        assert counts.tolist() == [51, 51, 50, 50]

    def test_pairwise_mean_distances(self):
        # class means sit at pairwise distance separation (units of sigma)
        m = generate(blob_spec(n=4000, d=6, classes=3, separation=8.0))
        means = np.stack([m.features[m.labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(means[i] - means[j])
                assert d == pytest.approx(8.0, abs=0.3)

    def test_tiny_separation_knn_near_chance(self):
        m = generate(blob_spec(n=400, classes=2, separation=1e-4, seed=5))
        train, test = holdout_split(400, 0.25, seed=0)
        acc = knn_accuracy(m.features[train], m.labels[train],
                           m.features[test], m.labels[test], k=7)
        assert abs(acc - 0.5) < 3.0 * 0.5 / np.sqrt(len(test))

    def test_wide_separation_knn_high(self):
        m = generate(blob_spec(n=400, classes=3, separation=8.0, seed=6))
        train, test = holdout_split(400, 0.25, seed=0)
        acc = knn_accuracy(m.features[train], m.labels[train],
                           m.features[test], m.labels[test], k=7)
        assert acc >= 0.99

    def test_rings_are_radially_ordered(self):
        spec = DatasetSpec(generator="concentric_rings", n=300, d=2, classes=3,
                           separation=6.0, seed=0)
        m = generate(spec)
        radii = np.linalg.norm(m.features, axis=1)
        med = [np.median(radii[m.labels == c]) for c in range(3)]
        assert med[0] < med[1] < med[2]

    def test_unknown_generator(self):
        with pytest.raises(ConfigError):
            generate(DatasetSpec(generator="moons", n=100, d=2, classes=2,
                                 separation=1.0, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            generate(blob_spec(n=6, classes=4))  # n < classes * 2
        with pytest.raises(ConfigError):
            generate(blob_spec(separation=0.0))
        with pytest.raises(ConfigError):
            generate(blob_spec(d=1))

    @pytest.mark.parametrize("field, value", [
        ("n", 2**64), ("n", 2**63), ("n", -2**63 - 1), ("d", 2**63), ("separation", 10**400),
    ], ids=["n-2**64", "n-2**63", "n-below-int64", "d-2**63", "separation-10**400"])
    def test_spec_integer_past_int64_is_a_config_error(self, field, value):
        # the spec check only: generate with n = 2**64 may crash numpy itself
        with pytest.raises(ConfigError, match=rf"data_{field} must lie in \[-2\*\*63, 2\*\*63\)"):
            _validate_spec(blob_spec(**{field: value}))
        check_field_types(blob_spec(**{field: 2**63 - 1}), "data_")


class TestMatrixIO:
    def test_csv_round_trip(self, tmp_path):
        m = generate(blob_spec(n=40))
        path = tmp_path / "m.csv"
        save_csv(m, path)
        back = load_matrix(path)
        np.testing.assert_allclose(back.features, m.features, atol=1e-12)
        np.testing.assert_array_equal(back.labels, m.labels)

    def test_binary_round_trip_exact(self, tmp_path):
        m = generate(blob_spec(n=40))
        path = tmp_path / "m.bin"
        save_binary(m, path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.features, m.features)
        np.testing.assert_array_equal(back.labels, m.labels)

    def test_handcrafted_csv(self, tmp_path):
        path = tmp_path / "hand.csv"
        path.write_text("f0,f1,label\n1.5,-2.0,0\n0.25,3.0,1\n-1.0,0.0,0\n")
        m = load_matrix(path)
        np.testing.assert_array_equal(m.features, [[1.5, -2.0], [0.25, 3.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(m.labels, [0, 1, 0])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ParseError, match="header"):
            load_matrix(path)

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\nnot_a_number,1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("f0,label\ninf,0\n1.0,1\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_matrix(path)

    def test_truncated_binary(self, tmp_path):
        m = generate(blob_spec(n=10))
        path = tmp_path / "m.bin"
        save_binary(m, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_overflowing_binary_header(self, tmp_path):
        # n = d = 2^62: an int64 byte count wraps to the header length alone
        path = tmp_path / "huge.bin"
        path.write_bytes(MATRIX_MAGIC + np.array([2 ** 62, 2 ** 62, 1], dtype="<i8").tobytes())
        with pytest.raises(ParseError, match="bytes for the declared shape"):
            load_matrix(path)

    def test_negative_binary_label(self, tmp_path):
        m = LabeledMatrix(np.zeros((3, 2)), np.array([0, -1, 2]))
        path = tmp_path / "m.bin"
        save_binary(m, path)
        with pytest.raises(ParseError, match="labels must be non-negative"):
            load_matrix(path)

    @pytest.mark.parametrize("label", ["-1", str(2 ** 63)])
    def test_csv_label_out_of_range(self, tmp_path, label):
        path = tmp_path / "m.csv"
        path.write_text(f"f0,f1,label\n0.5,1.0,0\n1.0,2.0,{label}\n")
        with pytest.raises(ParseError, match="labels must be non-negative"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_generate_from_file(self, tmp_path):
        m = generate(blob_spec(n=30))
        path = tmp_path / "m.bin"
        save_binary(m, path)
        spec = DatasetSpec(generator="file", n=0, d=0, classes=0,
                           separation=1.0, seed=0, path=str(path))
        back = generate(spec)
        np.testing.assert_array_equal(back.features, m.features)


class TestScatterSvg:
    def test_one_point_one_circle(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_scatter_svg(np.array([[1.0, 2.0]]), np.array([0]), path)
        root = ET.fromstring(path.read_bytes())
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 1

    def test_two_classes_two_fills(self, tmp_path):
        path = tmp_path / "p.svg"
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        emit_scatter_svg(pts, np.array([0, 0, 1, 1]), path)
        root = ET.fromstring(path.read_bytes())
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        fills = {c.get("fill") for c in circles}
        assert len(circles) == 4
        assert len(fills) == 2

    def test_point_count_matches(self, tmp_path):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(37, 2))
        labels = rng.integers(0, 5, size=37)
        path = tmp_path / "p.svg"
        emit_scatter_svg(pts, labels, path)
        root = ET.fromstring(path.read_bytes())
        assert len(root.findall(".//{http://www.w3.org/2000/svg}circle")) == 37

    def test_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        emit_scatter_svg(pts, labels, a)
        emit_scatter_svg(pts, labels, b)
        assert a.read_bytes() == b.read_bytes()

    def test_requires_2d_points(self, tmp_path):
        with pytest.raises(DimensionError):
            emit_scatter_svg(np.zeros((4, 3)), np.zeros(4, dtype=int), tmp_path / "x.svg")

    def test_golden_bytes(self, tmp_path):
        # frozen tiny plot; any format change must be deliberate
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
        labels = np.array([0, 1, 0])
        path = tmp_path / "g.svg"
        emit_scatter_svg(pts, labels, path)
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden" / "scatter_tiny.svg"
        assert path.read_bytes() == golden.read_bytes()


class TestReportCsv:
    def make_report(self, labeled=False):
        from bicon.trainers import run_sne

        x = np.random.default_rng(17).normal(size=(12, 3))
        labels = np.repeat([0, 1], 6) if labeled else None
        cfg = {"task": "sne", "divergence": "TV", "lr": 0.05, "epochs": 3,
               "perplexity": 4.0, "eval_every": 2, "seed": 0}
        report, _ = run_sne(cfg, x, labels=labels)
        return report

    def test_one_row_per_step(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        emit_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0].startswith("step,loss,grad_embedding")

    def test_losses_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "r.csv"
        emit_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        got = [float(line.split(",")[1]) for line in lines[1:]]
        assert got == report.losses

    def test_snapshot_columns_blank_when_absent(self, tmp_path):
        report = self.make_report(labeled=True)
        path = tmp_path / "r.csv"
        emit_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "silhouette" in header and "knn" in header
        rows = [line.split(",") for line in lines[1:]]
        col = header.index("silhouette")
        assert rows[0][col] == ""  # step 0 carries no snapshot
        assert rows[1][col] != ""


@st.composite
def damaged(draw, blob):
    """blob after one to three edits, each a byte replaced, a byte
    inserted, or the tail cut off."""
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(("replace", "insert", "truncate")))
        at = draw(st.integers(0, max(len(blob) - 1, 0)))
        byte = bytes([draw(st.integers(0, 255))])
        if edit == "replace":
            blob = blob[:at] + byte + blob[at + 1:]
        elif edit == "insert":
            blob = blob[:at] + byte + blob[at:]
        else:
            blob = blob[:at]
    return blob


# each example overwrites the one file it reads, so tmp_path may be shared
damaged_files = settings(max_examples=300, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestDamagedFiles:
    """A damaged file either loads or raises ParseError, never anything else."""

    @pytest.mark.parametrize("model", [
        FreeEmbedding(np.arange(6.0).reshape(3, 2)),
        Encoder.init("linear", 3, 0, 2, np.random.default_rng(0)),
        Encoder.init("mlp1", 2, 3, 2, np.random.default_rng(1)),
        ClusterHead.init(3, 2, np.random.default_rng(2)),
    ], ids=lambda m: m.kind)
    @damaged_files
    @given(data=st.data())
    def test_checkpoint(self, tmp_path, model, data):
        path = tmp_path / "model.bicn"
        save_checkpoint(path, model)
        path.write_bytes(data.draw(damaged(path.read_bytes())))
        try:
            load_checkpoint(path)
        except ParseError:
            pass

    @pytest.mark.parametrize("save", [save_binary, save_csv], ids=["bimx1", "csv"])
    @damaged_files
    @given(data=st.data())
    def test_matrix(self, tmp_path, save, data):
        m = LabeledMatrix(np.array([[0.5, -1.25], [3.0, 1e-3], [-2.0, 7.5]]), np.array([0, 2, 1]))
        path = tmp_path / "matrix"
        save(m, path)
        path.write_bytes(data.draw(damaged(path.read_bytes())))
        try:
            load_matrix(path)
        except ParseError:
            pass
