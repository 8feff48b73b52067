import io
import itertools
import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccc import data
from ccc.data import (CrowdDataset, _load_features_bin, _write_features_bin,
                      annotation_histogram, annotation_noise_rate,
                      confusion_distances, evaluate_accuracy, instance_noise_rate,
                      load_dataset, load_eval_set, make_blobs, save_dataset,
                      save_eval_set, true_confusion_matrices, write_csv, write_json)
from ccc.errors import ContractError, DataFormatError
from ccc.models import init_classifier, loss_and_grads, save_model, sgd_step
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


def _assert_same_arrays(got, want):
    assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
    for name in ("ann_instance", "ann_annotator", "ann_label", "truth"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


class TestValidate:
    ANN = [[0, 0, 0], [1, 1, 1], [2, 0, 2]]

    def test_valid_dataset_passes(self):
        _ds(3, 3, 2, self.ANN, truth=[0, 1, 2]).validate()

    @pytest.mark.parametrize("ann, truth, break_it, message", [
        (ANN, None, lambda ds: setattr(ds, "ann_label", ds.ann_label[:-1]), "one length"),
        ([[0, 0, 0], [1, 1, 1], [3, 0, 2]], None, None, "instance id out of range"),
        ([[0, 0, 0], [1, 1, 1], [-1, 0, 2]], None, None, "instance id out of range"),
        ([[0, 0, 0], [1, 2, 1], [2, 0, 2]], None, None, "annotator id out of range"),
        ([[0, 0, 0], [1, 1, 3], [2, 0, 2]], None, None, "label out of range"),
        ([[0, 0, 0], [1, 1, 1], [2, 0, 2], [1, 1, 0]], None, None, "duplicate"),
        ([[0, 0, 0], [1, 1, 1]], None, None, "at least one annotation"),
        (ANN, [0, 1], None, "truth length"),
        (ANN, [0, 1, 3], None, "truth label out of range"),
    ], ids=["lengths", "instance-high", "instance-negative", "annotator", "label",
            "duplicate", "coverage", "truth-length", "truth-range"])
    def test_each_rule_rejects(self, ann, truth, break_it, message):
        ds = _ds(3, 3, 2, ann, truth=truth)
        if break_it is not None:
            break_it(ds)
        with pytest.raises(ContractError, match=message):
            ds.validate()

    def test_duplicate_reported_before_coverage(self):
        ds = _ds(3, 3, 2, [[0, 0, 0], [1, 1, 1], [1, 1, 0]])  # instance 2 uncovered too
        with pytest.raises(ContractError, match="^duplicate"):
            ds.validate()


def repeats_oracle(key):
    """The np.unique-based mask _repeats replaced: True on each row whose
    key already appeared in an earlier row."""
    out = np.ones(key.size, dtype=bool)
    out[np.unique(key, return_index=True)[1]] = False  # first occurrences
    return out


def validate_oracle(ds):
    """The message of the np.unique-based pair and coverage checks that
    validate ran before, for a dataset whose ids are in range."""
    pairs = ds.ann_instance * ds.annotator_count + ds.ann_annotator
    if np.unique(pairs).size != pairs.size:
        return "duplicate (instance, annotator) annotation"
    if np.unique(ds.ann_instance).size != ds.n:
        return "every instance needs at least one annotation"
    return None


_KEYS = st.one_of(
    st.lists(st.integers(-2**40, 2**40), max_size=60),  # unsorted, negative, few repeats
    st.lists(st.integers(-3, 3), max_size=60),           # many repeats
    st.lists(st.integers(-3, 3), max_size=60).map(sorted),
    st.builds(lambda v, n: [v] * n, st.integers(-5, 5), st.integers(0, 20)),  # all equal
).map(lambda values: np.array(values, dtype=np.int64))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_KEYS)
@example(np.empty(0, dtype=np.int64))
@example(np.array([7]))
@example(np.array([-4, -4, -4]))
@example(np.array([3, -1, 3, 2, -1, 3]))
def test_repeats_equals_unique_oracle(key):
    got = data._repeats(key)
    assert got.dtype == bool and np.array_equal(got, repeats_oracle(key))


@st.composite
def _in_range_datasets(draw):
    n, r = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, r - 1)),
                          max_size=12)) if n else []
    return _ds(n, 2, r, [(i, a, 0) for i, a in pairs])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_in_range_datasets())
def test_validate_pair_and_coverage_rules_match_unique_oracle(ds):
    want = validate_oracle(ds)
    if want is None:
        ds.validate()
    else:
        with pytest.raises(ContractError) as info:
            ds.validate()
        assert str(info.value) == want


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(st.floats(0, 1), min_size=r * c * c, max_size=r * c * c).map(
            lambda v: np.array(v).reshape(r, c, c)))))
    def test_bitwise_symmetric_with_a_positive_zero_diagonal(self, cms):
        # write_distances formats the upper triangle only and mirrors its text
        dist = confusion_distances(cms)
        assert dist.tobytes() == np.ascontiguousarray(dist.T).tobytes()
        assert np.diag(dist).tobytes() == np.zeros(len(cms)).tobytes()

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
    def test_empty_eval_set_rejected(self):
        clf = init_classifier("linear", 2, 0, 3, RngStream(0))
        with pytest.raises(ContractError, match="nonempty"):
            evaluate_accuracy(clf, np.zeros((0, 2)), np.zeros(0, dtype=int))

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
        ("annotations.csv", " \t", "expected 3 fields, got 1"),
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
            if isinstance(text, str):  # the streamed file, opened as latin-1 text
                text = text.encode("latin-1")
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

    def _long_annotations(self, tmp_path, rows):
        """A saved 3,000-row annotations.csv whose lines given as keys hold the values."""
        ann = [[i, r, (i + r) % 3] for i in range(1000) for r in range(3)]
        save_dataset(_ds(1000, 3, 3, ann), tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_text().splitlines()
        for line, text in rows.items():
            lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("line, text, message", [
        (2, "0,0,x", "label is not an integer: 'x'"),
        (2950, "982,1,2.7", "label is not an integer: '2.7'"),
        (3001, "1e0,2,0", "instance id is not an integer: '1e0'"),
    ])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["\n", "\r\n"])
    def test_unreadable_row_is_found_from_numpy_row_hint(self, tmp_path, monkeypatch,
                                                         line, text, message, newline):
        path = self._long_annotations(tmp_path, {line: text})
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        calls = []
        reads_as = data._reads_as
        monkeypatch.setattr(data, "_reads_as", lambda *args: calls.append(1) or reads_as(*args))
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value).startswith(message) and info.value.line == line
        # At most the two rows the hint may name, then one per field of the bad row.
        assert len(calls) <= 5

    def test_wrong_row_hint_falls_back_to_a_scan(self, tmp_path, monkeypatch):
        self._long_annotations(tmp_path, {40: "13,0,x", 2950: "982,1,2.7"})
        loadtxt = np.loadtxt

        def misleading(*args, **kwargs):
            try:
                return loadtxt(*args, **kwargs)
            except ValueError as exc:  # names the second bad row, not the first
                raise ValueError(re.sub(r"at row \d+", "at row 2948", str(exc))) from None

        monkeypatch.setattr(np, "loadtxt", misleading)
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value).startswith("label is not an integer: 'x'")
        assert info.value.line == 40

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
        _assert_same_arrays(load_dataset(tmp_path / "d"), want)

    def test_numbers_may_carry_spaces_and_tabs(self, tmp_path):
        ds = self._sample()
        ds.features = RngStream(6).normal((8, 3))
        save_dataset(ds, tmp_path / "d")
        want = load_dataset(tmp_path / "d")
        pads = itertools.cycle([(b" ", b""), (b"", b" "), (b"\t", b""), (b" \t", b"\t ")])
        for name in ("features.csv", "annotations.csv", "truth.csv"):
            path = tmp_path / "d" / name
            header, *rows = path.read_bytes().splitlines()
            rows = [b",".join(left + field + right for field, (left, right)
                              in zip(row.split(b","), pads)) for row in rows]
            path.write_bytes(b"\n".join([header] + rows) + b"\n")
        _assert_same_arrays(load_dataset(tmp_path / "d"), want)
        # Read a line at a time, as after a bad row, padded rows read the same.
        with open(tmp_path / "d" / "annotations.csv", "ab") as fh:
            fh.write(b"0,x,1\n")
        with pytest.raises(DataFormatError, match="annotator id is not an integer") as info:
            load_dataset(tmp_path / "d")
        assert info.value.line == 2 + want.annotation_count

    @pytest.mark.parametrize("blank", [b"\r\n", b"\r", b"\r\n\r\n", b"\r\r\n"],
                             ids=["\r\n", "\r", "two-\r\n", "\r-then-\r\n"])
    def test_crlf_or_cr_only_line_is_skipped_like_a_blank(self, tmp_path, blank):
        ds = self._sample()
        ds.features = RngStream(6).normal((8, 3))
        save_dataset(ds, tmp_path / "d")
        want = load_dataset(tmp_path / "d")
        for name in ("features.csv", "annotations.csv", "truth.csv"):
            path = tmp_path / "d" / name
            lines = path.read_bytes().split(b"\n")
            path.write_bytes(b"\n".join(lines[:3]) + b"\n" + blank + b"\n".join(lines[3:]))
        _assert_same_arrays(load_dataset(tmp_path / "d"), want)

    @pytest.mark.parametrize("blank", [b"\r\n", b"\r"], ids=["\r\n", "\r"])
    def test_crlf_or_cr_only_line_keeps_the_next_rows_line(self, tmp_path, blank):
        save_dataset(self._sample(), tmp_path / "d")
        path = tmp_path / "d" / "annotations.csv"
        lines = path.read_bytes().split(b"\n")
        lines[3] = b"0,1"  # line 5 once the blank line is in
        path.write_bytes(b"\n".join(lines[:3]) + b"\n" + blank + b"\n".join(lines[3:]))
        with pytest.raises(DataFormatError) as info:
            load_dataset(tmp_path / "d")
        assert str(info.value).startswith("expected 3 fields") and info.value.line == 5

    def test_crlf_file_streams_without_the_line_path(self, tmp_path, monkeypatch):
        ds = self._sample()
        ds.features = RngStream(6).normal((8, 3))
        save_dataset(ds, tmp_path / "lf")
        want = load_dataset(tmp_path / "lf")

        def no_lines(self):
            raise AssertionError(f"{self.path.name} was read a line at a time")

        monkeypatch.setattr(data.CsvRows, "_lines", no_lines)
        for name, newline in (("crlf", b"\r\n"), ("cr", b"\r")):  # the header's too
            directory = tmp_path / name
            directory.mkdir()
            for path in (tmp_path / "lf").iterdir():
                (directory / path.name).write_bytes(
                    path.read_bytes().replace(b"\n", newline) if path.suffix == ".csv"
                    else path.read_bytes())
            _assert_same_arrays(load_dataset(directory), want)

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
            save_eval_set(X, y, tmp_path / f"ev{n}", class_count=3, seed=n)
            # a dataset directory with no annotators and no annotations.csv
            assert sorted(p.name for p in (tmp_path / f"ev{n}").iterdir()) == [
                "features.csv", "meta.json", "truth.csv"]
            assert json.loads((tmp_path / f"ev{n}" / "meta.json").read_text()) == {
                "n": n, "d": 2, "c": 3, "r": 0, "preset": None, "seed": n,
                "format_version": 1, "features_file": "features.csv"}
            X2, y2, c = load_eval_set(tmp_path / f"ev{n}")
            assert X2.shape == (n, 2) and y2.shape == (n,)
            assert np.array_equal(X, X2) and np.array_equal(y, y2) and c == 3

    def test_truthless_save_removes_a_stale_truth_file(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        assert (tmp_path / "d" / "truth.csv").exists()
        save_dataset(replace(ds, truth=None), tmp_path / "d")
        assert not (tmp_path / "d" / "truth.csv").exists()
        assert load_dataset(tmp_path / "d").truth is None

    def test_eval_set_saved_over_a_dataset_removes_its_annotations(self, tmp_path):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "notes.txt").write_text("mine")
        save_eval_set(ds.features, ds.truth, tmp_path / "d", class_count=3)
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "features.csv", "meta.json", "notes.txt", "truth.csv"]

    @pytest.mark.parametrize("column, row, value, message", [
        ("ann_label", 0, 3, "annotation label out of range"),
        ("ann_annotator", 1, 0, "duplicate (instance, annotator) annotation"),
        ("ann_annotator", 0, 4, "annotation annotator id out of range"),
    ], ids=["label-C", "duplicate-pair", "annotator-r"])
    def test_rejected_save_keeps_the_earlier_dataset(self, tmp_path, column, row, value,
                                                      message):
        # save_dataset checks with validate() before it clears the directory,
        # so that it never writes a dataset that load_dataset rejects.
        ds = self._sample()  # instance 0's annotators are 0 and 2
        save_dataset(ds, tmp_path / "d")
        before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()}
        bad = getattr(ds, column).copy()
        bad[row] = value
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            save_dataset(replace(ds, **{column: bad}), tmp_path / "d")
        assert {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir()} == before
        _assert_same_arrays(load_dataset(tmp_path / "d"), ds)

    @pytest.mark.parametrize("first, second", [("csv", "bin"), ("bin", "csv")])
    def test_save_removes_the_other_formats_features_file(self, tmp_path, first, second):
        ds = self._sample()
        save_dataset(ds, tmp_path / "d", features_format=first)
        save_dataset(ds, tmp_path / "d", features_format=second)
        assert not (tmp_path / "d" / f"features.{first}").exists()
        assert (tmp_path / "d" / f"features.{second}").exists()
        _assert_same_arrays(load_dataset(tmp_path / "d"), ds)


def _model_without_bias():
    clf = init_classifier("linear", 2, 0, 2, RngStream(0))
    del clf.params["b"]  # save_model raises after writing W
    return clf


def _blocks_then_raise():
    yield (np.arange(3), np.arange(3))
    raise RuntimeError("disk full")


class TestAtomicWrites:
    @pytest.mark.parametrize("write", [
        lambda path: write_csv(path, "a,b", _blocks_then_raise()),
        lambda path: write_json(path, {"a": 1, "b": object()}),
        lambda path: save_model(_model_without_bias(), path),
        lambda path: _write_features_bin(path, np.array([[0.5, "x"]], dtype=object)),
    ], ids=["write_csv", "write_json", "save_model", "features.bin"])
    def test_failed_write_keeps_the_earlier_file_and_leaves_no_tmp(self, tmp_path, write):
        path = tmp_path / "artifact"
        path.write_bytes(b"earlier")
        with pytest.raises(Exception):
            write(path)
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_write_replaces_the_file_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"earlier")
        write_csv(path, "a,b", [(np.arange(2), np.arange(2))])
        assert path.read_text() == "a,b\n0,0\n1,1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def _hide_fork(mp):
    import multiprocessing
    mp.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])


def _count_starts(mp):
    """Record each child process started from now on."""
    import multiprocessing
    started, start = [], multiprocessing.process.BaseProcess.start

    def recording(proc):
        started.append(proc)
        start(proc)

    mp.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return started


def _written(path, write, fork=True, split=True):
    """The bytes write() leaves at path and the count of child processes it
    started, with fork available or hidden, or with no block large enough
    to split."""
    with pytest.MonkeyPatch.context() as mp:
        if not fork:
            _hide_fork(mp)
        if not split:
            mp.setattr(data, "_SPLIT_FIELDS", 10**18)
        started = _count_starts(mp)
        write()
    return path.read_bytes(), len(started)


def _csv_bytes(path, header, make_blocks, **how) -> bytes:
    return _written(path, lambda: write_csv(path, header, make_blocks()), **how)[0]


_CELLS = {
    "int": st.integers(-2**63, 2**63 - 1),
    "float": st.floats(),
    "str": st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
}
_DTYPES = {"int": np.int64, "float": np.float64, "str": str}


@st.composite
def _csv_tables(draw):
    """Blocks sharing one column layout: int, float and str columns, 1-D or 2-D."""
    layout = draw(st.lists(st.tuples(st.sampled_from(sorted(_CELLS)), st.sampled_from([0, 1, 3])),
                           min_size=1, max_size=3))
    blocks = []
    for rows in draw(st.lists(st.integers(0, 13), min_size=1, max_size=3)):
        block = []
        for kind, width in layout:
            values = draw(st.lists(_CELLS[kind], min_size=rows * max(width, 1),
                                   max_size=rows * max(width, 1)))
            col = np.array(values, dtype=_DTYPES[kind])
            block.append(col.reshape(rows, width) if width else col)
        blocks.append(tuple(block))
    return blocks


def _str_oracle(header, blocks) -> bytes:
    """The table write_csv must write, from str of each value's Python object."""
    lines = [header]
    for block in blocks:
        cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, block)]
        lines += [",".join(str(v) for c in cols for v in c[k].tolist())
                  for k in range(cols[0].shape[0])]
    return ("\n".join(lines) + "\n").encode()


_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _int_tables(draw, least=0):
    """Blocks of integer columns of one layout, any int or uint dtype, 1-D or
    2-D, with values at or above least (and at digit-count edges)."""
    layout = draw(st.lists(st.tuples(st.sampled_from(_INT_DTYPES), st.sampled_from([0, 1, 3])),
                           min_size=1, max_size=3))
    blocks = []
    for rows in draw(st.lists(st.integers(0, 13), min_size=0, max_size=3)):
        block = []
        for dtype, width in layout:
            top = np.iinfo(dtype).max
            edges = st.sampled_from([v for v in (0, 9, 10, 99, 100, 2**63 - 1, top)
                                     if least <= v <= top])
            cells = st.one_of(st.integers(max(least, np.iinfo(dtype).min), top), edges)
            values = draw(st.lists(cells, min_size=rows * max(width, 1),
                                   max_size=rows * max(width, 1)))
            col = np.array(values, dtype=dtype)
            block.append(col.reshape(rows, width) if width else col)
        blocks.append(tuple(block))
    return blocks


def _count_digit_writes(mp):
    calls, digit_rows = [], data._digit_rows
    mp.setattr(data, "_digit_rows", lambda cols: calls.append(1) or digit_rows(cols))
    return calls


class TestDigitWrite:
    """A block of integers in [0, 2**63) is written from a digit matrix, and
    its bytes are those of str; any other integer block takes the row path."""

    @settings(max_examples=150, deadline=None)
    @given(blocks=_int_tables(), chunk=st.integers(1, 5), as_generator=st.booleans())
    def test_equals_str_of_each_value(self, tmp_path_factory, blocks, chunk, as_generator):
        path = tmp_path_factory.mktemp("digits") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_DIGIT_ROWS", chunk)
            write_csv(path, "h", iter(blocks) if as_generator else blocks)
        assert path.read_bytes() == _str_oracle("h", blocks)

    @settings(max_examples=100, deadline=None)
    @given(blocks=_int_tables(least=-2**63))
    def test_a_block_with_a_value_outside_the_range_takes_the_row_path(self, tmp_path_factory,
                                                                      blocks):
        path = tmp_path_factory.mktemp("rows") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_digit_writes(mp)
            write_csv(path, "h", blocks)
        assert path.read_bytes() == _str_oracle("h", blocks)
        # the digit path runs once per block whose columns it can take
        assert len(calls) == sum(all(np.asarray(c).min(initial=0) >= 0
                                     and int(np.asarray(c).max(initial=0)) < 2**63 for c in b)
                                 for b in blocks)

    @pytest.mark.parametrize("value", [-1, 2**63, 2**64 - 1])
    def test_out_of_range_values_are_written_by_the_row_path(self, tmp_path, monkeypatch, value):
        dtype = np.int64 if value < 0 else np.uint64
        blocks = [(np.array([value, 0, 7], dtype=dtype), np.arange(3))]
        calls = _count_digit_writes(monkeypatch)
        write_csv(tmp_path / "t.csv", "a,b", blocks)
        assert (tmp_path / "t.csv").read_bytes() == _str_oracle("a,b", blocks)
        assert calls == []

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_edges(self, tmp_path, delta):
        rows = data._DIGIT_ROWS + delta
        blocks = [(np.arange(rows), np.arange(rows, dtype=np.uint8),
                   np.arange(2 * rows, dtype=np.uint16).reshape(rows, 2))]
        write_csv(tmp_path / "t.csv", "a,b,c,d", blocks)
        assert (tmp_path / "t.csv").read_bytes() == _str_oracle("a,b,c,d", blocks)

    def test_digit_count_edges_and_empty_blocks(self, tmp_path):
        edges = np.array([0, 9, 10, 99, 100, 2**63 - 1])
        blocks = [(edges, edges[::-1].astype(np.uint64)), (edges[:0], edges[:0]), (edges, edges)]
        write_csv(tmp_path / "t.csv", "a,b", blocks)
        assert (tmp_path / "t.csv").read_bytes() == _str_oracle("a,b", blocks)
        assert (tmp_path / "t.csv").read_text().splitlines()[1:3] == ["0,9223372036854775807",
                                                                      "9,100"]


class TestWriteDistances:
    @pytest.mark.parametrize("R", [1, 2, 3, 250])
    def test_equals_the_write_csv_table(self, tmp_path, R):
        dist = confusion_distances(RngStream(R).normal((R, 3, 3)))
        ids = np.arange(R)
        write_csv(tmp_path / "want.csv", "annotator_a,annotator_b,mse",
                  [(np.repeat(ids, R), np.tile(ids, R), dist.ravel())])
        data.write_distances(tmp_path / "got.csv", dist)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSplitWrite:
    """A block of _SPLIT_FIELDS fields or more that holds a float or str column
    is formatted on two processes, into the same bytes as in one; an integer
    block is never split."""

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_threshold_edges_equal_in_process(self, tmp_path, delta):
        rows = data._SPLIT_FIELDS + delta  # odd, even, odd
        path = tmp_path / "t.csv"
        write = lambda: write_csv(path, "x", [(np.arange(rows) / 4,)])  # noqa: E731
        in_process, _ = _written(path, write, fork=False)
        assert _written(path, write, split=False) == (in_process, 0)
        assert _written(path, write) == (in_process, int(delta >= 0))
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_an_integer_block_starts_no_child(self, tmp_path):
        rows = data._SPLIT_FIELDS // 3 + 1
        blocks = [(np.arange(rows), np.arange(rows) % 250, np.arange(rows, dtype=np.uint8) % 10)]
        path = tmp_path / "t.csv"
        assert _written(path, lambda: write_csv(path, "i,a,l", blocks)) == (
            _str_oracle("i,a,l", blocks), 0)

    @settings(max_examples=40, deadline=None)
    @given(blocks=_csv_tables(), threshold=st.integers(1, 40), as_generator=st.booleans())
    def test_split_equals_in_process(self, tmp_path_factory, blocks, threshold, as_generator):
        path = tmp_path_factory.mktemp("split") / "t.csv"
        make = (lambda: iter(blocks)) if as_generator else (lambda: blocks)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_SPLIT_FIELDS", threshold)
            in_process = _csv_bytes(path, "h", make, fork=False)
            assert _csv_bytes(path, "h", make, split=False) == in_process
            assert _csv_bytes(path, "h", make) == in_process
        assert [p.name for p in path.parent.iterdir()] == ["t.csv"]

    def test_criterion_1_features_csv_has_the_in_process_digest(self, tmp_path):
        import hashlib

        X, _ = make_blobs(45_000, 10, 16, 0.29, RngStream(1))
        path = tmp_path / "features.csv"
        digests, starts = set(), []
        for fork, split in ((False, True), (True, False), (True, True)):
            text, started = _written(path, lambda: data._write_features_csv(path, X),
                                     fork=fork, split=split)
            digests.add(hashlib.sha256(text).hexdigest())
            starts.append(started)
        assert len(digests) == 1
        assert starts == [0, 0, 1]

    @staticmethod
    def _table():
        return [(np.arange(101), np.linspace(0, 1, 202).reshape(101, 2))]

    def test_failed_child_gives_the_same_bytes(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setattr(data, "_SPLIT_FIELDS", 10)
        in_process = _csv_bytes(tmp_path / "t.csv", "a,b,c", self._table, split=False)

        parent, write_rows = os.getpid(), data._write_rows

        def dying_in_the_child(fh, cols, line):
            if os.getpid() == parent:
                return write_rows(fh, cols, line)
            fh.write("half a row,")
            fh.flush()
            os._exit(1)

        # The fork inherits the patched module.
        monkeypatch.setattr(data, "_write_rows", dying_in_the_child)
        started = _count_starts(monkeypatch)
        write_csv(tmp_path / "t.csv", "a,b,c", self._table())
        assert (tmp_path / "t.csv").read_bytes() == in_process
        assert [p.exitcode for p in started] == [1]
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_error_in_the_parents_half_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        import os

        parent, write_rows = os.getpid(), data._write_rows

        def failing(fh, cols, line):
            if os.getpid() == parent:
                raise OSError("disk full")
            write_rows(fh, cols, line)

        monkeypatch.setattr(data, "_SPLIT_FIELDS", 10)
        monkeypatch.setattr(data, "_write_rows", failing)
        started = _count_starts(monkeypatch)
        path = tmp_path / "artifact"
        path.write_bytes(b"earlier")
        with pytest.raises(OSError, match="disk full"):
            write_csv(path, "a,b,c", self._table())
        assert len(started) == 1
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_without_fork_no_child_is_started(self, tmp_path, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(data, "_SPLIT_FIELDS", 10)
        forked = _csv_bytes(tmp_path / "t.csv", "a,b,c", self._table)
        started = []
        _hide_fork(monkeypatch)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            lambda proc: started.append(proc))
        write_csv(tmp_path / "t.csv", "a,b,c", self._table())
        assert (tmp_path / "t.csv").read_bytes() == forked
        assert started == []

    def test_a_daemon_process_writes_in_process(self, tmp_path, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(data, "_SPLIT_FIELDS", 10)
        want = _csv_bytes(tmp_path / "want.csv", "a,b,c", self._table, fork=False)
        # A daemon may start no child: write_csv must not try.
        proc = multiprocessing.get_context("fork").Process(
            target=write_csv, args=(tmp_path / "t.csv", "a,b,c", self._table()), daemon=True)
        proc.start()
        proc.join(timeout=60)
        assert not proc.is_alive() and proc.exitcode == 0
        assert (tmp_path / "t.csv").read_bytes() == want


class TestForked:
    """files.forked: a daemon child that ignores Ctrl-C and never outlives the block."""

    def test_child_ignores_ctrl_c(self):
        import signal
        from multiprocessing import Pipe

        from ccc.files import forked

        conn, child_end = Pipe()
        with conn, child_end, forked(
                lambda: child_end.send(signal.getsignal(signal.SIGINT) == signal.SIG_IGN)) as proc:
            assert proc.daemon
            assert conn.poll(30) and conn.recv() is True

    def test_busy_child_is_terminated_on_exit(self):
        import signal
        import time

        from ccc.files import forked

        t0 = time.perf_counter()
        with forked(time.sleep, 60) as proc:
            pass
        assert time.perf_counter() - t0 < 10
        assert not proc.is_alive() and proc.exitcode == -signal.SIGTERM


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
        for _ in range(200):
            _, grads = loss_and_grads(clf, X, y)
            sgd_step(clf, grads, lr=1.0, momentum=0.9, weight_decay=0.0)
        assert evaluate_accuracy(clf, X, y) >= 0.99
