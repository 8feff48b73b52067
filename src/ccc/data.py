"""Crowd-labeled dataset model, diagnostics, and file formats.

Class indices are 0-based everywhere, including on disk.

A dataset directory contains:
    meta.json        {"n", "d", "c", "r", "preset", "seed",
                      "format_version": 1, "features_file": ...}
    features.csv     header "id,f0,...,f{D-1}", ids 0..N-1 in order
      or features.bin  magic "CCCD", u32 version, u32 N, u32 D, f64 LE row-major
    annotations.csv  header "instance,annotator,label", no duplicates
    truth.csv        optional, header "instance,label"

An evaluation set is a dataset directory with r = 0 and no
annotations.csv: meta.json, features.csv and truth.csv (save_eval_set).

Every csv file goes through one codec: write_csv writes a table's bytes a
block of rows at a time (write_distances writes the same bytes for the
symmetric cm_distances.csv), and CsvRows parses one with numpy's reader as
it streams from disk, whether its lines end at \n, \r\n or \r, and from
its lines only to find a bad row, then checks it with array expressions.
A line with nothing before its line end is blank; one of only spaces or
tabs is a row of one field. Numbers are plain ASCII decimals, with or
without whitespace (what str.isspace accepts in latin-1) around them, and
feature values must be finite. Each file is written to path.tmp, then
moved onto path (files.atomic_open), so a failed write tears nothing;
save_dataset first clears DATASET_FILES (files.clear) and writes
meta.json last, so a failed save does not load.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import struct
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataFormatError
from .files import atomic_open, clear, forked
from .models import Classifier, batch_forward
from .rng import RngStream

FORMAT_VERSION = 1
# Every file save_dataset may write, its marker first
DATASET_FILES = ("meta.json", "features.csv", "features.bin", "annotations.csv", "truth.csv")
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
        """Raise ContractError at the first broken rule, checked in this
        order: lengths, ranges, a repeated (instance, annotator) pair, an
        uncovered instance (the file loaders' two rules), then truth."""
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
        if _repeats(ai * r + ar).any():
            raise ContractError("duplicate (instance, annotator) annotation")
        if not np.bincount(ai, minlength=n).all():
            raise ContractError("every instance needs at least one annotation")
        if self.truth is not None:
            if self.truth.shape[0] != n:
                raise ContractError("truth length must equal instance count")
            if self.truth.size and (self.truth.min() < 0 or self.truth.max() >= c):
                raise ContractError("truth label out of range")

    def annotation_order(self) -> np.ndarray | None:
        """None if already in (instance, annotator) order, else the stable argsort into it."""
        key = self.ann_instance * self.annotator_count + self.ann_annotator
        return None if (key[1:] > key[:-1]).all() else np.argsort(key, kind="stable")

    def instance_slices(self):
        """CSR view of annotations grouped by instance.

        Returns (annotators, labels, ptr) in (instance, annotator) order, the
        dataset's own arrays if already so: instance i's at [ptr[i], ptr[i+1]).
        """
        order = self.annotation_order()
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.ann_instance, minlength=self.n), out=ptr[1:])
        ar, al = self.ann_annotator, self.ann_label
        return (ar, al, ptr) if order is None else (ar[order], al[order], ptr)


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

    Entry [a, b] compares cms[a] with cms[b]. One row of the upper
    triangle is built at a time, so the working set stays at one stack's size.
    """
    try:
        cms = np.asarray(cms, dtype=np.float64)
    except ValueError:
        raise ContractError("confusion matrices must share one shape") from None
    if cms.ndim != 3 or cms.shape[1] != cms.shape[2]:
        raise ContractError(f"expected a (R, C, C) stack, got shape {cms.shape}")
    flat = cms.reshape(cms.shape[0], -1)
    out = np.empty((flat.shape[0], flat.shape[0]))
    for a, row in enumerate(flat):  # (x - y)**2 is symmetric: each pair once, mirrored
        out[a, a:] = ((row - flat[a:]) ** 2).mean(axis=1)
        out[a:, a] = out[a, a:]
    return out


def annotation_histogram(ds: CrowdDataset) -> np.ndarray:
    """Label count per annotator; sums to the total annotation count."""
    return np.bincount(ds.ann_annotator, minlength=ds.annotator_count).astype(np.int64)


def evaluate_accuracy(clf: Classifier, features: np.ndarray, labels: np.ndarray,
                      ws=None) -> float:
    """Argmax accuracy; argmax ties break toward the lowest class index."""
    if len(labels) == 0:
        raise ContractError("accuracy needs a nonempty eval set")
    _, P = batch_forward(clf, features, ws)
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
_DIGIT_ROWS = 4096  # rows of an integer block turned into one digit matrix at once
# A block of this many fields or more is formatted on two processes: 4x the
# measured break-even (about 100,000), since a fork also slows what follows it.
_SPLIT_FIELDS = 400_000


def write_csv(path, header: str, blocks) -> None:
    """Write a header line, then one line per row of each block, as bytes.

    A block is a tuple of equal-length columns; a 2-D column gives one
    field per column. Each value is written as the text of its Python
    object (tolist): ints and strings by str, floats by repr, the shortest
    text that reads back to the same bits. A block of integers in [0, 2**63)
    alone, of any int or uint dtype, is turned into digits by numpy
    (_digit_rows), in this process: it never forks. Any other block is
    formatted a row at a time, and one of _SPLIT_FIELDS fields or more is
    split by rows: a forked child formats the second half into an unnamed
    file beside path and this process appends it, or formats it too if the
    child fails. Text is encoded as UTF-8.
    """
    with atomic_open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in blocks:
            cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, block)]
            width = sum(c.shape[1] for c in cols)
            rows = cols[0].shape[0]
            if width and all(c.dtype.kind in "iu" and (c.size == 0 or c.min() >= 0
                                                       and int(c.max()) < 2**63) for c in cols):
                fh.writelines(_digit_rows(cols))
                continue
            line = ",".join(["{}"] * width) + "\n"
            if rows * width < _SPLIT_FIELDS:
                _write_rows(fh, cols, line)
                continue
            tail_cols = [c[rows // 2:] for c in cols]
            with (tempfile.TemporaryFile(dir=Path(path).absolute().parent) as tail,
                  forked(_write_rows, tail, tail_cols, line) as child):
                _write_rows(fh, [c[:rows // 2] for c in cols], line)
                if child:
                    child.join()
                if child and child.exitcode == 0:
                    tail.seek(0)
                    shutil.copyfileobj(tail, fh, 1 << 20)
                else:
                    _write_rows(fh, tail_cols, line)


def _digit_rows(cols):
    """The csv lines of columns of integers in [0, 2**63), as str writes them, one byte
    array per _DIGIT_ROWS rows: a (chars, rows) matrix holds each field's digits, as many
    places as its largest value has, and a separator; leading zeros are masked out."""
    for lo in range(0, cols[0].shape[0], _DIGIT_ROWS):
        fields = np.concatenate([c[lo:lo + _DIGIT_ROWS].T for c in cols], dtype=np.int64)
        places = [len(str(top)) for top in fields.max(axis=1).tolist()]
        text = np.empty((sum(places) + len(places), fields.shape[1]), dtype=np.uint8)
        keep = np.ones(text.shape, dtype=bool)
        at = 0
        for values, n in zip(fields, places):
            high = -ord("0")  # 10 x the leading digits before this place, less "0"
            for k in range(n - 1, 0, -1):
                lead = values // 10**k  # the digits before place k
                np.subtract(lead, high, out=text[at], casting="unsafe")
                np.greater(lead, 0, out=keep[at])
                high = lead * 10 - ord("0")
                at += 1
            np.subtract(values, high, out=text[at], casting="unsafe")
            text[at + 1] = ord(",")
            at += 2
        text[-1] = ord("\n")
        yield text.T[keep.T]


def _write_rows(fh, cols, line: str) -> None:
    """Write the rows of cols, one encode per _ROWS_PER_WRITE rows, then flush, so that a
    forked child's bytes reach its file."""
    for lo in range(0, cols[0].shape[0], _ROWS_PER_WRITE):
        fields = [f for c in cols for f in c[lo:lo + _ROWS_PER_WRITE].T.tolist()]
        fh.write("".join(map(line.format, *fields)).encode())
    fh.flush()


def write_distances(path, dist: np.ndarray) -> None:
    """Write a symmetric (R, R) table as write_csv writes rows (a, b, dist[a, b]), row-major,
    under cm_distances.csv's header. repr runs once per unordered pair (upper triangle);
    `above` holds column a's texts, as bytes, from start[a] until row a repeats them."""
    R = dist.shape[0]
    start = np.arange(R) * (np.arange(R) - 1) // 2
    above = np.empty(R * (R - 1) // 2, dtype="S24")  # a float's repr has at most 24 characters
    line = np.empty(R, dtype="S24")
    prefixes = [b"%d," % a for a in range(R)]
    with atomic_open(path, "wb") as fh:
        fh.write(b"annotator_a,annotator_b,mse\n")
        for a, head in enumerate(prefixes):
            line[:a] = above[start[a]:start[a] + a]
            line[a:] = list(map(repr, dist[a, a:].tolist()))
            above[start[a + 1:] + a] = line[a + 1:]
            fh.write(head + (b"\n" + head).join(map(bytes.__add__, prefixes, line.tolist()))
                     + b"\n")


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
    at \n, \r\n or \r, the header's too, and a line with nothing before
    its line end is blank. `ints` names the leading integer fields, and
    `floats` feature values follow them. columns holds one int64 array
    per integer field, then a (rows, floats) float64 array when floats > 0.

    The reader parses the file as it streams from disk, opened with
    universal newlines, so every line reaches it ending at \n, and as
    latin-1, so every byte is one character. A file the reader rejects
    is parsed from its lines instead; if those fail to parse, the row
    numpy's error names is checked, and only if it is not the first
    unreadable one is each row parsed on its own.

    A row that cannot be read (a wrong field count, or a value that is not
    a plain ASCII decimal with or without whitespace around it) ends the
    table: columns hold the rows before it, and check() reports it unless
    it finds a fault in an earlier row, so an error always names the first
    bad line. A wrong field count reads "expected {width} fields, got {got}".
    """

    def __init__(self, path: Path, what: str, header: str, ints, floats: int = 0):
        self.path = path
        self.ints = tuple(ints)
        self.width = len(self.ints) + floats
        fields = [(f"i{j}", np.int64) for j in range(len(self.ints))]
        if floats:
            fields.append(("f", np.float64, (floats,)))
        self._dtype = np.dtype(fields)
        self._fault = None
        with open(path, encoding="latin-1", newline=None) as fh:
            head = fh.readline().removesuffix("\n")
            if head != header:
                head = head.encode("latin-1").decode(errors="replace")
                raise DataFormatError(f"bad {what} header {head!r}", path, 1)
            try:
                table = _loadtxt(fh, self._dtype)
            except ValueError:
                table = self._read_lines()
        self.columns = [np.ascontiguousarray(table[name]) for name in self._dtype.names]

    def _lines(self):
        """The line numbers, and the texts without line ends, of the rows' lines."""
        lines = self.path.read_bytes().splitlines()
        del lines[0]
        return [no for no, text in enumerate(lines, 2) if text], [text for text in lines if text]

    def _parse(self, texts) -> np.ndarray:
        """One row of the table per text; ValueError if one is unreadable."""
        return _loadtxt(io.BytesIO(b"\n".join(texts)), self._dtype)

    def _read_lines(self):
        """The table of the rows' lines, up to the first unreadable one, whose fault
        check() raises."""
        numbers, texts = self._lines()
        try:
            return self._parse(texts)
        except ValueError as exc:
            k, table = self._first_unreadable(texts, str(exc))
        self._fault, field = self._field_fault(texts[k], numbers[k])
        if field < len(self.ints):
            return table
        # A row's integers are checked before its features are read, so
        # check() sees this row's integers, with its features as 0.
        row = texts[k].split(b",")[:len(self.ints)] + [b"0"] * (self.width - len(self.ints))
        return self._parse(texts[:k] + [b",".join(row)])

    def _first_unreadable(self, texts, message: str):
        """The first unreadable text's index, and the table of the texts before it.

        numpy's message names the row, from 0 or 1 by message; it is taken
        if unreadable with the rows before it parsing, else a scan finds it.
        """
        hint = re.search(r" at row (\d+)", message)
        for k in (int(hint[1]), int(hint[1]) - 1) if hint else ():
            if 0 <= k < len(texts) and not _reads_as(texts[k], self._dtype):
                try:
                    return k, self._parse(texts[:k])
                except ValueError:
                    break
        k = next(k for k, text in enumerate(texts) if not _reads_as(text, self._dtype))
        return k, self._parse(texts[:k])

    def _field_fault(self, line: bytes, lineno: int):
        """The fault of an unreadable row, and the index of its first bad field (0 for a
        wrong field count)."""
        fields = line.split(b",")
        if len(fields) != self.width:
            return DataFormatError(f"expected {self.width} fields, got {len(fields)}",
                                   self.path, lineno), 0
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
    """Mask of the rows whose key already appeared in an earlier row: a
    stable sort keeps equal keys in row order, so in each run of equal
    keys every row but the first is a repeat."""
    order = np.argsort(key, kind="stable")
    run = key[order]
    out = np.zeros(key.size, dtype=bool)
    out[order[1:]] = run[1:] == run[:-1]
    return out


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _features_header(d: int) -> str:
    return "id," + ",".join(f"f{j}" for j in range(d))


def write_json(path, payload: dict) -> None:
    """Write payload as sorted, indented JSON with a trailing newline."""
    with atomic_open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_features_csv(path: Path, features: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    write_csv(path, _features_header(features.shape[1]),
              [(np.arange(features.shape[0]), features)])


def _write_features_bin(path: Path, features: np.ndarray) -> None:
    N, D = features.shape
    with atomic_open(path, "wb") as fh:
        fh.write(_FEATURES_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, N, D))
        fh.write(np.ascontiguousarray(features, dtype="<f8"))


def write_dense_labels(path, dense: np.ndarray) -> None:
    """Write an (N, R) label table as rows (instance, annotator, label), row-major."""
    N, R = dense.shape
    blocks = ((np.repeat(np.arange(lo, min(lo + _ROWS_PER_WRITE, N)), R),
               np.tile(np.arange(R), min(_ROWS_PER_WRITE, N - lo)),
               dense[lo:lo + _ROWS_PER_WRITE].ravel())
              for lo in range(0, N, _ROWS_PER_WRITE))
    write_csv(path, "instance,annotator,label", blocks)


def save_dataset(ds: CrowdDataset, directory, features_format: str = "csv") -> None:
    """Write the dataset directory: annotations.csv, in (instance, annotator)
    order, only when r > 0, and truth.csv only with truth. A dataset with r > 0
    is first checked by ds.validate(); then DATASET_FILES are cleared and
    meta.json is written last, so a directory whose write failed does not load."""
    features_file = f"features.{features_format}"
    if features_file not in _FEATURES:
        raise ContractError(f"unknown features format {features_format!r}")
    if ds.annotator_count:
        ds.validate()
    directory = clear(directory, DATASET_FILES)
    _FEATURES[features_file][0](directory / features_file, ds.features)
    if ds.annotator_count:
        columns, order = (ds.ann_instance, ds.ann_annotator, ds.ann_label), ds.annotation_order()
        write_csv(directory / "annotations.csv", "instance,annotator,label",
                  [columns if order is None else tuple(c[order] for c in columns)])
    if ds.truth is not None:
        truth = np.asarray(ds.truth)
        write_csv(directory / "truth.csv", "instance,label", [(np.arange(truth.shape[0]), truth)])
    write_json(directory / "meta.json", {
        "n": ds.n, "d": ds.d, "c": ds.class_count, "r": ds.annotator_count,
        "preset": ds.preset, "seed": ds.seed,
        "format_version": FORMAT_VERSION, "features_file": features_file,
    })


def _load_features_csv(path: Path, n: int, d: int) -> np.ndarray:
    if not path.exists():
        raise DataFormatError("missing features file", path)
    rows = CsvRows(path, "features", _features_header(d), ["instance id"], floats=d)
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


# The features files a dataset directory may name, with their (writer, loader).
_FEATURES = {"features.csv": (_write_features_csv, _load_features_csv),
             "features.bin": (_write_features_bin, _load_features_bin)}
FEATURES_FORMATS = tuple(name.removeprefix("features.") for name in _FEATURES)


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
    name = meta.setdefault("features_file", "features.csv")
    if not (isinstance(name, str) and name in _FEATURES):
        raise DataFormatError(f"meta.json field 'features_file' must be "
                              f"{' or '.join(_FEATURES)}, got {name!r}", meta_path)
    return meta


def _load_features(directory: Path, meta: dict) -> np.ndarray:
    name = meta["features_file"]
    return _FEATURES[name][1](directory / name, meta["n"], meta["d"])


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
    # with i.size >= n the count table is no larger than the file's rows
    if i.size < n or not np.bincount(i, minlength=n).all():
        raise DataFormatError("every instance needs at least one annotation", path)
    return i, a, y


def load_dataset(directory) -> CrowdDataset:
    """Load a crowd dataset directory; its file loaders check what validate() would."""
    directory = Path(directory)
    meta = _load_meta(directory)
    n, c, r = meta["n"], meta["c"], meta["r"]
    features = _load_features(directory, meta)
    ai, ar, al = _load_annotations(directory / "annotations.csv", n, r, c)
    truth = None
    truth_path = directory / "truth.csv"
    if truth_path.exists():
        truth = _load_truth(truth_path, n, c)

    return CrowdDataset(
        features=features, class_count=c, annotator_count=r,
        ann_instance=ai, ann_annotator=ar, ann_label=al,
        truth=truth, preset=meta.get("preset"), seed=meta.get("seed"),
    )


def save_eval_set(features: np.ndarray, labels: np.ndarray, directory,
                  class_count: int, seed: int | None = None) -> None:
    """Write a labeled feature set for testing/eval: a csv dataset directory
    with r = 0 and no annotations.csv."""
    none = np.empty(0, dtype=np.int64)
    save_dataset(CrowdDataset(features, class_count, 0, none, none, none,
                              truth=labels, seed=seed), directory)


def remove_eval_set(directory) -> None:
    """Clear DATASET_FILES from directory if it holds an eval set (its
    meta.json loads, with r = 0), then the directory if that left it
    empty. Any other file, and any other directory, stays."""
    directory = Path(directory)
    try:
        if _load_meta(directory)["r"] != 0:
            return
    except DataFormatError:
        return
    clear(directory, DATASET_FILES)
    if not any(directory.iterdir()):
        directory.rmdir()


def load_eval_set(directory):
    """Load (features, labels, class_count) from an eval-set directory."""
    directory = Path(directory)
    meta = _load_meta(directory)
    features = _load_features(directory, meta)
    truth_path = directory / "truth.csv"
    if not truth_path.exists():
        raise DataFormatError("eval set requires truth.csv", truth_path)
    return features, _load_truth(truth_path, meta["n"], meta["c"]), meta["c"]
