import io
import tracemalloc
import warnings

import numpy as np
import pytest

from ccc.data import (CrowdDataset, _load_features_bin, _write_features_bin,
                      annotation_histogram, annotation_noise_rate,
                      confusion_distances, evaluate_accuracy, instance_noise_rate,
                      load_dataset, load_eval_set, make_blobs, save_dataset,
                      save_eval_set, true_confusion_matrices)
from ccc.errors import ContractError, DataFormatError
from ccc.models import init_classifier, loss_and_grads, sgd_step, single_label_ce
from ccc.rng import RngStream


def _ds(n, c, r, ann, truth=None, d=2):
    ann = np.asarray(ann, dtype=np.int64)
    return CrowdDataset(
        features=np.zeros((n, d)),
        class_count=c, annotator_count=r,
        ann_instance=ann[:, 0] if ann.size else np.empty(0, dtype=np.int64),
        ann_annotator=ann[:, 1] if ann.size else np.empty(0, dtype=np.int64),
        ann_label=ann[:, 2] if ann.size else np.empty(0, dtype=np.int64),
        truth=None if truth is None else np.asarray(truth, dtype=np.int64),
    )


class TestNoiseRates:
    def test_instance_rate_hand_case(self):
        # inst0 sees {0,1}, truth 0; inst1 sees {1}, truth 1 -> clean
        ds = _ds(2, 2, 2, [[0, 0, 0], [0, 1, 1], [1, 0, 1]], truth=[0, 1])
        assert instance_noise_rate(ds) == 0.0
        # flip inst1's only label -> half the instances miss their truth
        ds2 = _ds(2, 2, 2, [[0, 0, 0], [0, 1, 1], [1, 0, 0]], truth=[0, 1])
        assert instance_noise_rate(ds2) == 0.5

    def test_instance_rate_all_wrong(self):
        ds = _ds(2, 2, 1, [[0, 0, 1], [1, 0, 0]], truth=[0, 1])
        assert instance_noise_rate(ds) == 1.0

    def test_annotation_rate_hand_case(self):
        ds = _ds(2, 2, 2, [[0, 0, 0], [0, 1, 1], [1, 0, 1]], truth=[0, 1])
        assert annotation_noise_rate(ds) == pytest.approx(1 / 3)

    def test_annotation_rate_all_correct(self):
        ds = _ds(2, 2, 1, [[0, 0, 1], [1, 0, 0]], truth=[1, 0])
        assert annotation_noise_rate(ds) == 0.0

    def test_requires_truth(self):
        ds = _ds(1, 2, 1, [[0, 0, 0]])
        with pytest.raises(ContractError):
            instance_noise_rate(ds)
        with pytest.raises(ContractError):
            annotation_noise_rate(ds)


class TestTrueConfusionMatrix:
    def test_perfect_annotator_identity(self):
        ann = [[i, 0, i % 3] for i in range(9)]
        ds = _ds(9, 3, 1, ann, truth=[i % 3 for i in range(9)])
        assert np.array_equal(true_confusion_matrices(ds)[0], np.eye(3))

    def test_hand_counts_with_zero_row(self):
        # annotator saw four true-0 instances, reported [0, 0, 1, 0]
        ann = [[0, 0, 0], [1, 0, 0], [2, 0, 1], [3, 0, 0]]
        ds = _ds(4, 2, 1, ann, truth=[0, 0, 0, 0])
        cm = true_confusion_matrices(ds)[0]
        assert np.allclose(cm[0], [0.75, 0.25])
        assert np.array_equal(cm[1], [0.0, 0.0])

    def test_row_sums_one_or_zero(self):
        rng = RngStream(3)
        n = 60
        truth = rng.gen.integers(0, 4, n)
        ann = [[i, 0, int(rng.gen.integers(0, 4))] for i in range(n) if i % 2 == 0]
        ds = _ds(n, 4, 1, ann, truth=truth)
        sums = true_confusion_matrices(ds)[0].sum(axis=1)
        assert all(s == pytest.approx(1.0) or s == 0.0 for s in sums)

    def test_matches_per_annotator_count_oracle(self):
        # one matrix per annotator, each equal to its own count-and-normalize
        # oracle; annotator 2 has no labels and keeps an all-zero matrix
        rng = RngStream(4)
        n, C, R = 50, 3, 4
        truth = rng.gen.integers(0, C, n)
        ann = [[i, r, int(rng.gen.integers(0, C))] for i in range(n) for r in (i % 2, 3)]
        ds = _ds(n, C, R, ann, truth=truth)
        cms = true_confusion_matrices(ds)
        assert cms.shape == (R, C, C)
        for r in range(R):
            want = np.zeros((C, C))
            for i, a, y in ann:
                if a == r:
                    want[truth[i], y] += 1.0
            rows = want.sum(axis=1, keepdims=True)
            np.divide(want, rows, out=want, where=rows > 0)
            assert np.array_equal(cms[r], want)
        assert not cms[2].any()

    def test_requires_truth(self):
        with pytest.raises(ContractError):
            true_confusion_matrices(_ds(1, 2, 1, [[0, 0, 0]]))

    def test_annotator_out_of_range(self):
        # a label from annotator 1 in a one-annotator dataset has no matrix
        for bad in (1, -1):
            ds = _ds(1, 2, 1, [[0, bad, 0]], truth=[0])
            with pytest.raises(ContractError):
                true_confusion_matrices(ds)


class TestConfusionDistance:
    def test_zero_on_equal(self):
        a = RngStream(0).normal((3, 3))
        assert np.array_equal(confusion_distances(np.stack([a, a])), np.zeros((2, 2)))

    def test_symmetric(self):
        a, b = RngStream(1).normal((4, 4)), RngStream(2).normal((4, 4))
        dist = confusion_distances(np.stack([a, b]))
        assert dist[0, 1] == dist[1, 0]
        assert np.diag(dist).tolist() == [0.0, 0.0]

    def test_hand_value(self):
        dist = confusion_distances(np.stack([np.eye(2), np.full((2, 2), 0.5)]))
        assert dist[0, 1] == 0.25

    def test_matches_pairwise_mean_squared_difference(self):
        cms = RngStream(5).normal((6, 3, 3))
        dist = confusion_distances(cms)
        for a in range(6):
            for b in range(6):
                assert dist[a, b] == ((cms[a] - cms[b]) ** 2).mean()

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            confusion_distances([np.eye(2), np.eye(3)])
        with pytest.raises(ContractError):
            confusion_distances(np.zeros((2, 2, 3)))
        with pytest.raises(ContractError):
            confusion_distances(np.eye(2))


class TestAnnotationHistogram:
    def test_empty(self):
        ds = _ds(1, 2, 3, np.empty((0, 3)))
        assert annotation_histogram(ds).tolist() == [0, 0, 0]

    def test_hand_spread(self):
        ann = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 1], [1, 1, 0]]
        ds = _ds(3, 2, 3, ann)
        assert annotation_histogram(ds).tolist() == [3, 2, 0]

    def test_sums_to_total(self):
        ann = [[i, i % 4, 0] for i in range(40)]
        ds = _ds(40, 2, 4, ann)
        assert annotation_histogram(ds).sum() == 40


class TestEvaluateAccuracy:
    def test_uniform_tie_breaks_to_class_zero(self):
        clf = init_classifier("linear", 2, 0, 3, RngStream(0))
        clf.params["W"][:] = 0.0
        X = RngStream(1).normal((10, 2))
        assert evaluate_accuracy(clf, X, np.zeros(10, dtype=int)) == 1.0
        assert evaluate_accuracy(clf, X, np.ones(10, dtype=int)) == 0.0

    def test_hand_three_of_four(self):
        clf = init_classifier("linear", 2, 0, 2, RngStream(0))
        clf.params["W"][:] = np.array([[10.0, -10.0], [0.0, 0.0]])
        X = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [-1.0, 0]])
        labels = np.array([0, 0, 0, 0])  # last one predicted as 1
        assert evaluate_accuracy(clf, X, labels) == 0.75


class TestIO:
    def _sample(self):
        rng = RngStream(5)
        ann = [[i, r, int(rng.gen.integers(0, 3))]
               for i in range(8) for r in (i % 2, 2 + i % 2)]
        return _ds(8, 3, 4, ann, truth=[i % 3 for i in range(8)], d=3)

    def test_roundtrip_identity_and_byte_identical_resave(self, tmp_path):
        ds = self._sample()
        ds.features = RngStream(6).normal((8, 3))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_dataset(ds, d1)
        loaded = load_dataset(d1)
        save_dataset(loaded, d2)
        for name in ("meta.json", "features.csv", "annotations.csv", "truth.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert np.array_equal(loaded.features, ds.features)
        assert loaded.class_count == 3 and loaded.annotator_count == 4

    def test_binary_features_roundtrip(self, tmp_path):
        ds = self._sample()
        ds.features = RngStream(7).normal((8, 3))
        save_dataset(ds, tmp_path / "bin", features_format="bin")
        loaded = load_dataset(tmp_path / "bin")
        assert np.array_equal(loaded.features, ds.features)

    def test_binary_features_load_holds_the_file_once(self, tmp_path):
        features = RngStream(8).normal((20_000, 8))
        path = tmp_path / "features.bin"
        _write_features_bin(path, features)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = _load_features_bin(path, 20_000, 8)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded, features)
        assert peak < 1.5 * features.nbytes

    @pytest.mark.parametrize("cut, message", [
        (lambda b: b"XXXX" + b[4:], "bad features magic"),
        (lambda b: b[:10], "truncated features header"),
        (lambda b: b[:-8], "features payload size mismatch"),
        (lambda b: b + b"\0", "features payload size mismatch"),
    ], ids=["magic", "header", "short-payload", "long-payload"])
    def test_binary_features_damage_rejected(self, tmp_path, cut, message):
        path = tmp_path / "features.bin"
        _write_features_bin(path, RngStream(9).normal((5, 3)))
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(DataFormatError, match=message):
            _load_features_bin(path, 5, 3)

    def test_annotator_id_out_of_range_rejected(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 2)[0] + ",4,0"  # annotator id == R
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="annotator id 4 out of range"):
            load_dataset(tmp_path / "d")

    def test_duplicate_rejected(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        content = path.read_text().splitlines()
        content.append(content[1])
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(DataFormatError, match="duplicate annotation"):
            load_dataset(tmp_path / "d")

    def test_missing_annotations_file(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "annotations.csv").unlink()
        with pytest.raises(DataFormatError, match="missing annotations.csv"):
            load_dataset(tmp_path / "d")

    def test_malformed_row_names_file_and_line(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_text().splitlines()
        lines[3] = "not,a,number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r"annotations\.csv:4"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("name, bad_row, message", [
        ("annotations.csv", "0,x,1", "annotator id is not an integer: 'x'"),
        ("annotations.csv", "0,9,1", "annotator id 9 out of range [0, 4)"),
        ("annotations.csv", "0,1", "expected 3 fields"),
        ("annotations.csv", "0,1,2.7", "label is not an integer: '2.7'"),
        ("annotations.csv", "1e0,1,2", "instance id is not an integer: '1e0'"),
        ("truth.csv", "1,x", "label is not an integer: 'x'"),
        ("truth.csv", "1,7", "label 7 out of range"),
        ("features.csv", "1,0.5,x,0.25", "non-numeric feature value"),
        ("features.csv", "1.0,x,0.5,0.25", "instance id is not an integer: '1.0'"),
        ("features.csv", "2,0.5,0.5,0.25", "ids must be 0..N-1 in order, got 2"),
        ("features.csv", "5,0.5,x,0.25", "ids must be 0..N-1 in order, got 5"),
    ])
    def test_blank_lines_before_bad_row_keep_its_line(self, tmp_path, name, bad_row,
                                                       message):
        ds = self._sample()
        ds.features = RngStream(6).normal((8, 3))
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / name
        lines = path.read_text().splitlines()
        # header, first row, two blank lines, then the bad row on line 5
        path.write_text("\n".join([lines[0], lines[1], "", "", bad_row] + lines[3:]) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value).startswith(message)
        assert info.value.line == 5 and info.value.path.endswith(name)

    def test_integer_written_as_float_is_rejected_where_numpy_only_warns(
            self, tmp_path, monkeypatch):
        # Some numpy releases read "2.7" as the int 2 with a DeprecationWarning.
        real = np.loadtxt

        def truncating_loadtxt(src, *args, **kwargs):
            text = src.read()
            if b"2.7" in text:
                warnings.warn("Parsing an integer via a float is deprecated",
                              DeprecationWarning)
                text = text.replace(b"2.7", b"2")
            return real(io.BytesIO(text), *args, **kwargs)

        save_dataset(self._sample(), tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_text().splitlines()
        lines[3] = "1,1,2.7"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value).startswith("label is not an integer: '2.7'")
        assert info.value.line == 4

    @pytest.mark.parametrize("newline, whole_file", [
        (b"\r\n", False), (b"\r", False), (b"\r\n", True), (b"\r", True),
    ], ids=["\r\n", "\r", "whole-file-\r\n", "whole-file-\r"])
    def test_crlf_and_cr_row_ends_load_the_same(self, tmp_path, newline, whole_file):
        ds = self._sample()
        ds.features = RngStream(6).normal((8, 3))
        save_dataset(ds, tmp_path / "d")
        want = load_dataset(tmp_path / "d")
        for name in ("features.csv", "annotations.csv", "truth.csv"):
            path = tmp_path / "d" / name
            header, body = path.read_bytes().split(b"\n", 1)
            header_end = newline if whole_file else b"\n"
            path.write_bytes(header + header_end + body.replace(b"\n", newline))
        got = load_dataset(tmp_path / "d")
        assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
        for name in ("ann_instance", "ann_annotator", "ann_label", "truth"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_line_of_only_cr_is_a_row_not_a_blank(self, tmp_path):
        save_dataset(self._sample(), tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:3] + ["\r"] + lines[3:]))
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value).startswith("expected 3 fields") and info.value.line == 4

    def test_label_out_of_range_rejected(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_text().splitlines()
        first = lines[1].split(",")
        lines[1] = f"{first[0]},{first[1]},3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="label 3 out of range"):
            load_dataset(tmp_path / "d")

    def test_uncovered_instance_rejected(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = [row for row in path.read_text().splitlines()
                 if not row.startswith("0,")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="at least one annotation"):
            load_dataset(tmp_path / "d")

    def test_eval_set_roundtrip(self, tmp_path):
        for n in (5, 0):  # n = 0 writes header-only csv files
            X = RngStream(8).normal((n, 2))
            y = np.array([0, 1, 2, 0, 1][:n])
            save_eval_set(X, y, tmp_path / f"ev{n}", class_count=3)
            X2, y2, c = load_eval_set(tmp_path / f"ev{n}")
            assert X2.shape == (n, 2) and y2.shape == (n,)
            assert np.array_equal(X, X2) and np.array_equal(y, y2) and c == 3


class TestMakeBlobs:
    def test_zero_spread_degenerate(self):
        X, y = make_blobs(12, 3, 5, 0.0, RngStream(0))
        for c in range(3):
            pts = X[y == c]
            assert np.array_equal(pts, np.repeat(pts[:1], len(pts), axis=0))

    def test_balanced_within_one(self):
        _, y = make_blobs(100, 7, 8, 0.1, RngStream(1))
        counts = np.bincount(y, minlength=7)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        a, _ = make_blobs(50, 4, 6, 0.2, RngStream(3))
        b, _ = make_blobs(50, 4, 6, 0.2, RngStream(3))
        assert np.array_equal(a, b)

    def test_separable_blobs_reach_99pct_train_accuracy(self):
        spread = 0.15
        X, y = make_blobs(300, 5, 8, spread, RngStream(4))
        # separability oracle: class means far apart relative to spread
        means = np.stack([X[y == c].mean(axis=0) for c in range(5)])
        dist = np.sqrt(((means[:, None] - means[None]) ** 2).sum(-1))
        assert dist[~np.eye(5, dtype=bool)].min() > 6 * spread

        clf = init_classifier("linear", 8, 0, 5, RngStream(5))
        ld = single_label_ce(y)
        for _ in range(200):
            _, grads = loss_and_grads(clf, X, ld)
            sgd_step(clf, grads, lr=1.0, momentum=0.9, weight_decay=0.0)
        assert evaluate_accuracy(clf, X, y) >= 0.99
