"""Crowd-labeled dataset model, diagnostics, and file formats.

Class indices are 0-based everywhere, including on disk.

A dataset directory contains:
    meta.json        {"n", "d", "c", "r", "preset", "seed",
                      "format_version": 1, "features_file": ...}
    features.csv     header "id,f0,...,f{D-1}", ids 0..N-1 in order
      or features.bin  magic "CCCD", u32 version, u32 N, u32 D, f64 LE row-major
    annotations.csv  header "instance,annotator,label", no duplicates
    truth.csv        optional, header "instance,label"

An evaluation set (features + truth, no annotations) uses the same
layout with r = 0 and no annotations.csv; see save_eval_set.

Every csv file goes through one codec: write_csv writes a table a block
of rows at a time, and CsvRows parses one with numpy's reader, streamed
from disk or, for a file with a \r or a bad row, from its lines, then
checks it with array expressions. Numbers are plain ASCII decimals and
feature values must be finite.
"""

from __future__ import annotations

import io
import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataFormatError
from .models import Classifier, batch_forward
from .rng import RngStream

FORMAT_VERSION = 1
FEATURES_FORMATS = ("csv", "bin")
_FEATURES_MAGIC = b"CCCD"
BLOBS_DEFAULTS = {"spread": 0.28, "radius": 1.0}  # what a blobs: source may leave out


@dataclass
class CrowdDataset:
    features: np.ndarray       # (N, D)
    class_count: int
    annotator_count: int
    ann_instance: np.ndarray   # (A,) int64
    ann_annotator: np.ndarray  # (A,) int64
    ann_label: np.ndarray      # (A,) int64
    truth: np.ndarray | None = None
    preset: str | None = None
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def annotation_count(self) -> int:
        return self.ann_instance.shape[0]

    def validate(self) -> None:
        n, r, c = self.n, self.annotator_count, self.class_count
        ai, ar, al = self.ann_instance, self.ann_annotator, self.ann_label
        if ai.shape != ar.shape or ai.shape != al.shape:
            raise ContractError("annotation arrays must share one length")
        if ai.size and (ai.min() < 0 or ai.max() >= n):
            raise ContractError("annotation instance id out of range")
        if ar.size and (ar.min() < 0 or ar.max() >= r):
            raise ContractError("annotation annotator id out of range")
        if al.size and (al.min() < 0 or al.max() >= c):
            raise ContractError("annotation label out of range")
        pairs = ai * r + ar
        if np.unique(pairs).size != pairs.size:
            raise ContractError("duplicate (instance, annotator) annotation")
        if np.unique(ai).size != n:
            raise ContractError("every instance needs at least one annotation")
        if self.truth is not None:
            if self.truth.shape[0] != n:
                raise ContractError("truth length must equal instance count")
            if self.truth.size and (self.truth.min() < 0 or self.truth.max() >= c):
                raise ContractError("truth label out of range")

    def instance_slices(self):
        """CSR view of annotations grouped by instance.

        Returns (order-applied arrays sorted by (instance, annotator),
        ptr) where annotations of instance i live at [ptr[i], ptr[i+1]).
        """
        order = np.lexsort((self.ann_annotator, self.ann_instance))
        ai = self.ann_instance[order]
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.add.at(ptr, ai + 1, 1)
        np.cumsum(ptr, out=ptr)
        return ai, self.ann_annotator[order], self.ann_label[order], ptr


@dataclass
class MetaSet:
    """Class-balanced distilled instances with pseudo-labels."""
    features: np.ndarray  # (M', D)
    labels: np.ndarray    # (M',) int64

    @property
    def size(self) -> int:
        return self.labels.shape[0]


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def instance_noise_rate(ds: CrowdDataset) -> float:
    """Fraction of instances whose annotation set misses the true label."""
    if ds.truth is None:
        raise ContractError("instance_noise_rate requires truth labels")
    hit = np.zeros(ds.n, dtype=bool)
    correct = ds.ann_label == ds.truth[ds.ann_instance]
    hit[ds.ann_instance[correct]] = True
    return float(1.0 - hit.mean())


def annotation_noise_rate(ds: CrowdDataset) -> float:
    """Fraction of individual annotations that disagree with truth."""
    if ds.truth is None:
        raise ContractError("annotation_noise_rate requires truth labels")
    if ds.annotation_count == 0:
        return 0.0
    wrong = ds.ann_label != ds.truth[ds.ann_instance]
    return float(wrong.mean())


def true_confusion_matrices(ds: CrowdDataset) -> np.ndarray:
    """Empirical confusion of every annotator against truth, (R, C, C).

    Entry [r, p, q] counts how often r reported q on a true-p instance,
    normalized per row. Rows with no labeled instance are all-zero.
    """
    if ds.truth is None:
        raise ContractError("true_confusion_matrices requires truth labels")
    R, C = ds.annotator_count, ds.class_count
    ar = ds.ann_annotator
    if ar.size and (ar.min() < 0 or ar.max() >= R):
        raise ContractError(f"annotator id out of range [0, {R})")
    cell = (ds.ann_annotator * C + ds.truth[ds.ann_instance]) * C + ds.ann_label
    cm = np.bincount(cell, minlength=R * C * C).astype(np.float64).reshape(R, C, C)
    rowsum = cm.sum(axis=2, keepdims=True)
    np.divide(cm, rowsum, out=cm, where=rowsum > 0)
    return cm


def confusion_distances(cms: np.ndarray) -> np.ndarray:
    """Mean squared difference between every pair of stacked matrices, (R, R).

    Entry [a, b] compares cms[a] with cms[b]. One row of the table is
    built at a time, so the working set stays at one stack's size.
    """
    try:
        cms = np.asarray(cms, dtype=np.float64)
    except ValueError:
        raise ContractError("confusion matrices must share one shape") from None
    if cms.ndim != 3 or cms.shape[1] != cms.shape[2]:
        raise ContractError(f"expected a (R, C, C) stack, got shape {cms.shape}")
    flat = cms.reshape(cms.shape[0], -1)
    out = np.empty((flat.shape[0], flat.shape[0]))
    for a, row in enumerate(flat):
        out[a] = ((row - flat) ** 2).mean(axis=1)
    return out


def annotation_histogram(ds: CrowdDataset) -> np.ndarray:
    """Label count per annotator; sums to the total annotation count."""
    return np.bincount(ds.ann_annotator, minlength=ds.annotator_count).astype(np.int64)


def evaluate_accuracy(clf: Classifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; argmax ties break toward the lowest class index."""
    _, _, P = batch_forward(clf, features)
    pred = P.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


# ---------------------------------------------------------------------------
# synthetic features
# ---------------------------------------------------------------------------

def make_blobs(N: int, C: int, D: int, spread: float, rng: RngStream,
               radius: float = BLOBS_DEFAULTS["radius"]):
    """Class-balanced Gaussian clumps with deterministic means.

    Means sit on scaled coordinate axes when D >= C, otherwise on a
    circle in the first two feature dimensions. Classes are assigned
    round-robin so counts are balanced within one.
    """
    if N < 1 or C < 1 or D < 1:
        raise ContractError("N, C, D must be >= 1")
    if D < C and D < 2:
        raise ContractError("circle placement needs D >= 2")
    means = np.zeros((C, D))
    if D >= C:
        means[np.arange(C), np.arange(C)] = radius
    else:
        ang = 2.0 * np.pi * np.arange(C) / C
        means[:, 0] = radius * np.cos(ang)
        means[:, 1] = radius * np.sin(ang)
    truth = (np.arange(N) % C).astype(np.int64)
    features = means[truth] + spread * rng.normal((N, D))
    return features, truth


# ---------------------------------------------------------------------------
# csv codec
# ---------------------------------------------------------------------------

_ROWS_PER_WRITE = 256  # rows turned into text at once; bounds the live Python objects


def _chunks(fh):
    """The rest of a binary file, 64 KiB at a time."""
    return iter(lambda: fh.read(1 << 16), b"")


def write_csv(path, header: str, blocks) -> None:
    """Write a header line, then one line per row of each block.

    A block is a tuple of equal-length columns; a 2-D column gives one
    field per column. Values are written from their Python objects
    (tolist): ints and strings with str, floats with repr, the shortest
    text that reads back to the same bits (str of a Python float is its
    repr).
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for block in blocks:
            cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, block)]
            line = ",".join(["{}"] * sum(c.shape[1] for c in cols)) + "\n"
            for lo in range(0, cols[0].shape[0], _ROWS_PER_WRITE):
                fields = [f for c in cols for f in c[lo:lo + _ROWS_PER_WRITE].T.tolist()]
                fh.writelines(map(line.format, *fields))


def _loadtxt(src, dtype) -> np.ndarray:
    """numpy's reader over src, one row per nonempty line; ValueError if a row is unreadable.

    Some numpy releases read an integer field written as a float ("2.7")
    by truncating it, with only a DeprecationWarning; here that field is
    unreadable, as it is in the releases that raise. Input without a row
    gives an empty array, without numpy's warning.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(src, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None


def _reads_as(text: bytes, dtype) -> bool:
    """Whether numpy's reader reads the text as exactly one row of dtype."""
    try:
        return _loadtxt(io.BytesIO(text), dtype).size == 1
    except ValueError:
        return False


class CsvRows:
    r"""The rows of one csv table, parsed by numpy's reader.

    The file is a header line, then one row per nonblank line. Lines end
    at \n, \r\n or \r, the header's too. Only a line that is exactly \n
    is blank, so one that holds only a \r is a row of one empty field.
    `ints` names the leading integer fields, and `floats` feature values
    follow them. columns holds one int64 array per integer field, then a
    (rows, floats) float64 array when floats > 0.

    A file without a \r is parsed as it streams from disk, and a file
    with one is parsed from its lines, each line end made a \n. If the
    reader rejects the file, the rows before the first wrong field count
    are parsed at once, and only if that fails is each row parsed on its
    own to find the first unreadable one.

    A row that cannot be read (a wrong field count, or a value that is not
    a plain ASCII decimal) ends the table: columns hold the rows before
    it, and check() reports it unless it finds a fault in an earlier row,
    so an error always names the first bad line. count_fault words a wrong
    field count from `width` and `got`.
    """

    def __init__(self, path: Path, what: str, header: str, ints, floats: int = 0,
                 count_fault: str = "expected {width} fields"):
        self.path = path
        self.ints = tuple(ints)
        self.width = len(self.ints) + floats
        self.count_fault = count_fault
        fields = [(f"i{j}", np.int64) for j in range(len(self.ints))]
        if floats:
            fields.append(("f", np.float64, (floats,)))
        self._dtype = np.dtype(fields)
        self._fault = None
        with open(path, "rb") as fh:
            # numpy's reader cannot end a line at a lone \r and skips a line
            # of only \r\n, which this format reads as a row of one empty
            # field, so a file with a \r is read a line at a time.
            fast = not any(b"\r" in chunk for chunk in _chunks(fh))
            fh.seek(0)
            head = (fh.readline().splitlines() or [b""])[0]
            if head != header.encode():
                raise DataFormatError(f"bad {what} header {head.decode(errors='replace')!r}",
                                      path, 1)
            try:
                table = _loadtxt(fh, self._dtype) if fast else self._parse(self._lines()[1])
            except ValueError:
                table = self._read_to_fault()
        self.columns = [np.ascontiguousarray(table[name]) for name in self._dtype.names]

    def _lines(self):
        """The line numbers, and the texts without line ends, of the rows' lines."""
        lines = self.path.read_bytes().splitlines(True)[1:]
        return ([no for no, line in enumerate(lines, 2) if line != b"\n"],
                [line.rstrip(b"\r\n") for line in lines if line != b"\n"])

    def _parse(self, texts) -> np.ndarray:
        """One row of the table per text; ValueError if one is unreadable."""
        table = _loadtxt(io.BytesIO(b"\n".join(texts)), self._dtype)
        if table.size != len(texts):  # the reader skips an empty line
            raise ValueError("a row is empty")
        return table

    def _read_to_fault(self):
        """The rows before the first unreadable one, whose fault check() raises."""
        numbers, texts = self._lines()
        counts = [text.count(b",") + 1 for text in texts]
        cut = next((k for k, got in enumerate(counts) if got != self.width), len(texts))
        try:
            table = self._parse(texts[:cut])
        except ValueError:
            k = next(k for k, text in enumerate(texts) if not _reads_as(text, self._dtype))
            self._fault, field = self._field_fault(texts[k], numbers[k])
            if field < len(self.ints):
                return self._parse(texts[:k])
            # A row's integers are checked before its features are read, so
            # check() sees this row's integers, with its features as 0.
            row = texts[k].split(b",")[:len(self.ints)] + [b"0"] * (self.width - len(self.ints))
            return self._parse(texts[:k] + [b",".join(row)])
        if cut < len(texts):
            self._fault = DataFormatError(
                self.count_fault.format(width=self.width, got=counts[cut]), self.path,
                numbers[cut])
        return table

    def _field_fault(self, line: bytes, lineno: int):
        """The fault of an unreadable row, and the index of its first bad field."""
        fields = line.split(b",")
        for j, text in enumerate(fields):
            if j < len(self.ints) and not _reads_as(text, np.int64):
                field = text.decode(errors="replace")
                return DataFormatError(f"{self.ints[j]} is not an integer: {field!r}",
                                       self.path, lineno), j
            if j >= len(self.ints) and not _reads_as(text, np.float64):
                return DataFormatError("non-numeric feature value", self.path, lineno), j
        return DataFormatError(f"unreadable row {line.decode(errors='replace')!r}",
                               self.path, lineno), len(fields)

    def check(self, *faults) -> None:
        """Raise at the first bad row, else for the row that ended the table.

        faults are (bad, message) pairs in the order one row is checked
        in: bad masks the rows, and message(k) describes row k.
        """
        firsts = [(int(np.argmax(bad)), order)
                  for order, (bad, _) in enumerate(faults) if bad.any()]
        if firsts:
            k, order = min(firsts)
            raise DataFormatError(faults[order][1](k), self.path, self._lines()[0][k])
        if self._fault is not None:
            raise self._fault


def _repeats(key: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key already appeared in an earlier row."""
    out = np.ones(key.size, dtype=bool)
    out[np.unique(key, return_index=True)[1]] = False  # first occurrences
    return out


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _features_header(d: int) -> str:
    return "id," + ",".join(f"f{j}" for j in range(d))


def write_json(path, payload: dict) -> None:
    """Write payload as sorted, indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_features_csv(path: Path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    write_csv(path, _features_header(features.shape[1]),
              [(np.arange(features.shape[0]), features)])


def _write_features_bin(path: Path, features: np.ndarray) -> None:
    N, D = features.shape
    with open(path, "wb") as fh:
        fh.write(_FEATURES_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, N, D))
        fh.write(np.ascontiguousarray(features, dtype="<f8").tobytes())


def write_dense_labels(path, dense: np.ndarray) -> None:
    """Write an (N, R) label table as rows (instance, annotator, label), row-major."""
    N, R = dense.shape
    blocks = ((np.repeat(np.arange(lo, min(lo + _ROWS_PER_WRITE, N)), R),
               np.tile(np.arange(R), min(_ROWS_PER_WRITE, N - lo)),
               dense[lo:lo + _ROWS_PER_WRITE].ravel())
              for lo in range(0, N, _ROWS_PER_WRITE))
    write_csv(path, "instance,annotator,label", blocks)


def _write_truth(path: Path, labels) -> None:
    labels = np.asarray(labels)
    write_csv(path, "instance,label", [(np.arange(labels.shape[0]), labels)])


def save_dataset(ds: CrowdDataset, directory, features_format: str = "csv") -> None:
    """Write the dataset directory; annotations in (instance, annotator) order."""
    if features_format not in FEATURES_FORMATS:
        raise ContractError(f"unknown features format {features_format!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    features_file = "features.csv" if features_format == "csv" else "features.bin"
    write_json(directory / "meta.json", {
        "n": ds.n, "d": ds.d, "c": ds.class_count, "r": ds.annotator_count,
        "preset": ds.preset, "seed": ds.seed,
        "format_version": FORMAT_VERSION, "features_file": features_file,
    })
    if features_format == "csv":
        _write_features_csv(directory / "features.csv", ds.features)
    else:
        _write_features_bin(directory / "features.bin", ds.features)
    order = np.lexsort((ds.ann_annotator, ds.ann_instance))
    write_csv(directory / "annotations.csv", "instance,annotator,label",
              [(ds.ann_instance[order], ds.ann_annotator[order], ds.ann_label[order])])
    if ds.truth is not None:
        _write_truth(directory / "truth.csv", ds.truth)


def _load_features_csv(path: Path, n: int, d: int) -> np.ndarray:
    if not path.exists():
        raise DataFormatError("missing features file", path)
    rows = CsvRows(path, "features", _features_header(d), ["instance id"], floats=d,
                   count_fault="expected {width} fields, got {got}")
    ids = rows.columns[0]
    features = rows.columns[1] if d else np.empty((ids.size, 0))
    rows.check(
        (ids != np.arange(ids.size), lambda k: f"ids must be 0..N-1 in order, got {ids[k]}"),
        (ids >= n, lambda k: f"instance id {ids[k]} out of range"),
        (~np.isfinite(features).all(axis=1),
         lambda k: f"non-finite feature value for instance {k}"))
    if ids.size != n:
        raise DataFormatError(f"expected {n} feature rows, found {ids.size}", path)
    return features


def _load_features_bin(path: Path, n: int, d: int) -> np.ndarray:
    if not path.exists():
        raise DataFormatError("missing features file", path)
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != _FEATURES_MAGIC:
            raise DataFormatError("bad features magic", path)
        if len(head) < 16:
            raise DataFormatError("truncated features header", path)
        version, bn, bd = struct.unpack("<III", head[4:])
        if version != FORMAT_VERSION:
            raise DataFormatError(f"unsupported features version {version}", path)
        if (bn, bd) != (n, d):
            raise DataFormatError(f"features shape ({bn}, {bd}) != meta ({n}, {d})", path)
        if path.stat().st_size != 16 + 8 * n * d:
            raise DataFormatError("features payload size mismatch", path)
        features = np.fromfile(fh, dtype="<f8", count=n * d).reshape(n, d)
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        raise DataFormatError(
            f"non-finite feature value for instance {int(np.argmax(bad))}", path)
    return features


def _load_features(directory: Path, meta: dict) -> np.ndarray:
    name = meta.get("features_file", "features.csv")
    load = _load_features_bin if name.endswith(".bin") else _load_features_csv
    return load(directory / name, meta["n"], meta["d"])


def _load_meta(directory: Path) -> dict:
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise DataFormatError("missing meta.json", meta_path)
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"meta.json is not valid JSON: {exc}", meta_path) from None
    if not isinstance(meta, dict):
        raise DataFormatError("meta.json must hold a JSON object", meta_path)
    for key in ("n", "d", "c", "r", "format_version"):
        if key not in meta:
            raise DataFormatError(f"meta.json missing field {key!r}", meta_path)
    for key in ("n", "d", "c", "r"):
        if type(meta[key]) is not int or meta[key] < 0:  # bool is not a count
            raise DataFormatError(
                f"meta.json field {key!r} must be a non-negative integer, got {meta[key]!r}",
                meta_path)
    if type(meta["format_version"]) is not int:
        raise DataFormatError(
            f"meta.json field 'format_version' must be an integer, "
            f"got {meta['format_version']!r}", meta_path)
    if meta["format_version"] != FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported format_version {meta['format_version']}", meta_path)
    if not isinstance(meta.get("features_file", ""), str):
        raise DataFormatError("meta.json field 'features_file' must be a string", meta_path)
    return meta


def _load_truth(path: Path, n: int, c: int) -> np.ndarray:
    rows = CsvRows(path, "truth", "instance,label", ["instance id", "label"])
    i, y = rows.columns
    rows.check(((i < 0) | (i >= n), lambda k: f"instance id {i[k]} out of range"),
               ((y < 0) | (y >= c), lambda k: f"label {y[k]} out of range"),
               (_repeats(i), lambda k: f"duplicate truth row for instance {i[k]}"))
    truth = np.full(n, -1, dtype=np.int64)
    truth[i] = y
    if (truth == -1).any():
        raise DataFormatError("truth.csv does not cover every instance", path)
    return truth


def _load_annotations(path: Path, n: int, r: int, c: int):
    if not path.exists():
        raise DataFormatError("missing annotations.csv", path)
    rows = CsvRows(path, "annotations", "instance,annotator,label",
                   ["instance id", "annotator id", "label"])
    i, a, y = rows.columns
    rows.check(((i < 0) | (i >= n), lambda k: f"instance id {i[k]} out of range [0, {n})"),
               ((a < 0) | (a >= r), lambda k: f"annotator id {a[k]} out of range [0, {r})"),
               ((y < 0) | (y >= c), lambda k: f"label {y[k]} out of range [0, {c})"),
               # i * r + a collides falsely only through an out-of-range id,
               # whose range fault is on the same row or an earlier one
               (_repeats(i * r + a), lambda k: f"duplicate annotation ({i[k]}, {a[k]})"))
    return i, a, y


def load_dataset(directory) -> CrowdDataset:
    """Load and fully validate a crowd dataset directory."""
    directory = Path(directory)
    meta = _load_meta(directory)
    n, c, r = meta["n"], meta["c"], meta["r"]
    features = _load_features(directory, meta)
    ai, ar, al = _load_annotations(directory / "annotations.csv", n, r, c)
    truth = None
    truth_path = directory / "truth.csv"
    if truth_path.exists():
        truth = _load_truth(truth_path, n, c)

    ds = CrowdDataset(
        features=features, class_count=c, annotator_count=r,
        ann_instance=ai, ann_annotator=ar, ann_label=al,
        truth=truth, preset=meta.get("preset"), seed=meta.get("seed"),
    )
    try:
        ds.validate()
    except ContractError as exc:
        raise DataFormatError(str(exc), directory) from None
    return ds


def save_eval_set(features: np.ndarray, labels: np.ndarray, directory,
                  class_count: int, seed: int | None = None) -> None:
    """Write a labeled feature set (no annotations) for testing/eval."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, d = features.shape
    write_json(directory / "meta.json", {
        "n": n, "d": d, "c": class_count, "r": 0,
        "preset": None, "seed": seed,
        "format_version": FORMAT_VERSION, "features_file": "features.csv",
    })
    _write_features_csv(directory / "features.csv", features)
    _write_truth(directory / "truth.csv", labels)


def load_eval_set(directory):
    """Load (features, labels, class_count) from an eval-set directory."""
    directory = Path(directory)
    meta = _load_meta(directory)
    features = _load_features(directory, meta)
    truth_path = directory / "truth.csv"
    if not truth_path.exists():
        raise DataFormatError("eval set requires truth.csv", truth_path)
    return features, _load_truth(truth_path, meta["n"], meta["c"]), meta["c"]
