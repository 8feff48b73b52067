"""Property tests: dataset and eval-set files round-trip bit for bit.

Loading a saved directory must give back the same arrays (features
compared as raw bits, so -0.0 and subnormals count), and saving the
loaded data again must write byte-identical files, for csv and bin
features alike. A damaged csv file must load the same, arrays or fault,
whether numpy's reader streams it or the codec reads it a line at a
time, and whatever mix of \n, \r\n and \r ends its lines.
"""

import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ccc import data as ccc_data
from ccc.data import (CrowdDataset, load_dataset, load_eval_set, save_dataset,
                      save_eval_set)
from ccc.errors import DataFormatError

# Values whose text form is an edge of the float codec: signed zeros,
# subnormals, reprs in scientific notation and the largest magnitudes.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-05, -1e-05,
               0.0001, 1e+16, 1e+15, -1.7976931348623157e+308,
               123456789012345678.0, 0.1, 1 / 3]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


def _features(n, d):
    return arrays(np.float64, (n, d), elements=FLOATS)


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


@st.composite
def crowd_datasets(draw):
    """N instances with k distinct annotators each, in shuffled order."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    c = draw(st.integers(2, 5))
    r = draw(st.integers(1, 6))
    k = draw(st.integers(1, r))
    rows = []
    for i in range(n):
        annotators = draw(st.permutations(range(r)))[:k]
        rows += [(i, a, draw(st.integers(0, c - 1))) for a in annotators]
    rows = draw(st.permutations(rows))
    ai, ar, al = (np.array(col, dtype=np.int64) for col in zip(*rows))
    truth = draw(st.one_of(st.none(), arrays(np.int64, n, elements=st.integers(0, c - 1))))
    ds = CrowdDataset(features=draw(_features(n, d)), class_count=c, annotator_count=r,
                      ann_instance=ai, ann_annotator=ar, ann_label=al, truth=truth,
                      preset=draw(st.sampled_from([None, "IND-I", "COR-II"])),
                      seed=draw(st.one_of(st.none(), st.integers(0, 2**31))))
    ds.validate()
    return ds


@settings(max_examples=150, deadline=None)
@given(ds=crowd_datasets(), fmt=st.sampled_from(["csv", "bin"]))
def test_dataset_roundtrip_is_bitwise_and_resave_byte_identical(ds, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save_dataset(ds, first, features_format=fmt)
        loaded = load_dataset(first)

        assert loaded.features.dtype == np.float64
        assert np.array_equal(_bits(loaded.features), _bits(ds.features))
        order = np.lexsort((ds.ann_annotator, ds.ann_instance))
        for got, want in ((loaded.ann_instance, ds.ann_instance[order]),
                          (loaded.ann_annotator, ds.ann_annotator[order]),
                          (loaded.ann_label, ds.ann_label[order])):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        if ds.truth is None:
            assert loaded.truth is None
        else:
            assert loaded.truth.dtype == np.int64
            assert np.array_equal(loaded.truth, ds.truth)
        assert (loaded.class_count, loaded.annotator_count, loaded.preset, loaded.seed) == \
            (ds.class_count, ds.annotator_count, ds.preset, ds.seed)

        save_dataset(loaded, second, features_format=fmt)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 4), c=st.integers(2, 5))
def test_eval_set_roundtrip_is_bitwise_and_resave_byte_identical(data, n, d, c):
    X = data.draw(_features(n, d))
    y = data.draw(arrays(np.int64, n, elements=st.integers(0, c - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        save_eval_set(X, y, first, class_count=c, seed=3)
        X2, y2, c2 = load_eval_set(first)
        assert np.array_equal(_bits(X2), _bits(X))
        assert y2.dtype == np.int64 and np.array_equal(y2, y) and c2 == c
        save_eval_set(X2, y2, second, class_count=c2, seed=3)
        for name in ("meta.json", "features.csv", "truth.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# Field texts that numpy's reader may or may not take as a number.
JUNK = st.sampled_from(["x", "", " ", " 7 ", "1.5", "1e0", "--1", "0x1", "1_0", "nan", "-inf",
                        "\u0663", "\x00", "'1'", "+4", "1e400"])


def _outcome(directory: Path):
    """The loaded arrays as raw bits, or the fault's message and file:line."""
    try:
        ds = load_dataset(directory)
    except DataFormatError as exc:
        return str(exc).replace(str(directory), "<dir>"), exc.line
    return [_bits(ds.features).tolist(), ds.ann_instance.tolist(), ds.ann_annotator.tolist(),
            ds.ann_label.tolist(), None if ds.truth is None else ds.truth.tolist()]


def _save_damaged(ds, data, directory: Path) -> None:
    """Save ds, then damage one row of one of its csv files, or none."""
    save_dataset(ds, directory)
    name = data.draw(st.sampled_from(sorted(p.name for p in directory.glob("*.csv"))))
    lines = (directory / name).read_text(encoding="utf-8").split("\n")[:-1]
    k = data.draw(st.integers(1, len(lines) - 1))
    fields = lines[k].split(",")
    ints = 1 if name == "features.csv" else len(fields)
    kinds = ["none", "junk int", "field count", "id", "duplicate", "blank lines"]
    kind = data.draw(st.sampled_from(kinds + ["junk float"] * (ints < len(fields))))
    if kind == "junk int":
        fields[data.draw(st.integers(0, ints - 1))] = data.draw(JUNK)
    elif kind == "junk float":
        fields[data.draw(st.integers(ints, len(fields) - 1))] = data.draw(JUNK)
    elif kind == "field count":
        fields = fields[:-1] if data.draw(st.booleans()) else fields + ["0"]
    elif kind == "id":
        fields[data.draw(st.integers(0, ints - 1))] = str(data.draw(st.integers(-2, 20)))
    lines[k] = ",".join(fields)
    if kind == "duplicate":
        lines.insert(k, lines[data.draw(st.integers(1, len(lines) - 1))])
    elif kind == "blank lines":
        lines[k:k] = [""] * data.draw(st.integers(1, 3))
    (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _line_path_outcome(directory: Path):
    """_outcome with numpy's streaming read failing, so every csv file is read a
    line at a time (the fault finder parses its lines from a BytesIO)."""
    loadtxt = ccc_data._loadtxt

    def no_stream(src, dtype):
        if not isinstance(src, io.BytesIO):
            raise ValueError("streaming read refused")
        return loadtxt(src, dtype)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ccc_data, "_loadtxt", no_stream)
        return _outcome(directory)


@settings(max_examples=150, deadline=None)
@given(ds=crowd_datasets(), data=st.data())
def test_damaged_file_loads_the_same_on_the_fast_and_the_line_path(ds, data):
    with tempfile.TemporaryDirectory() as tmp:
        _save_damaged(ds, data, Path(tmp))
        assert _line_path_outcome(Path(tmp)) == _outcome(Path(tmp))


@settings(max_examples=150, deadline=None)
@given(ds=crowd_datasets(), data=st.data())
def test_any_mix_of_line_ends_loads_as_the_lf_copy(ds, data):
    with tempfile.TemporaryDirectory() as tmp:
        lf, mixed = Path(tmp, "lf"), Path(tmp, "mixed")
        _save_damaged(ds, data, lf)
        shutil.copytree(lf, mixed)
        for path in mixed.glob("*.csv"):
            out, end = [], b"\n"
            for text in path.read_bytes().split(b"\n")[:-1]:
                # A \n after a \r that ends the line before would join it into
                # one \r\n line end, and a blank line would be lost.
                ends = [b"\r", b"\r\n"] if end == b"\r" and not text else [b"\n", b"\r\n", b"\r"]
                end = data.draw(st.sampled_from(ends))
                out.append(text + end)
            path.write_bytes(b"".join(out))
        assert _outcome(mixed) == _outcome(lf)
