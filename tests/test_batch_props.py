"""Property tests: make_batch's CSR gather against a naive per-instance
gather, the annotation order against np.lexsort, and the np.bincount
scatter-adds against np.add.at.

The gather oracle scans every annotation for each batch position in turn
and orders an instance's annotations by annotator id, the canonical
(instance, annotator) order the trainers rely on for reproducible sums.
The scatter-add oracle adds each term into zeros in annotation order,
which np.bincount must match bit for bit.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from ccc.data import CrowdDataset, save_dataset, write_csv
from ccc.training import (VOTES_SMOOTHING, aggregate_majority, init_confusion_votes,
                          make_batch)


@st.composite
def crowd_and_index(draw):
    """A small dataset with shuffled annotations, plus a batch index set.

    Every instance has 1 to R annotations from distinct annotators. The
    index set may be empty and may repeat instances.
    """
    n = draw(st.integers(1, 8))
    R = draw(st.integers(1, 5))
    C = draw(st.integers(2, 4))
    D = draw(st.integers(1, 3))
    rows = []
    for i in range(n):
        annotators = draw(st.lists(st.integers(0, R - 1), min_size=1, max_size=R,
                                   unique=True))
        rows += [(i, r, draw(st.integers(0, C - 1))) for r in annotators]
    rows = draw(st.permutations(rows))
    ai, ar, al = (np.array(col, dtype=np.int64) for col in zip(*rows))
    ds = CrowdDataset(features=np.arange(n * D, dtype=np.float64).reshape(n, D),
                      class_count=C, annotator_count=R, ann_instance=ai,
                      ann_annotator=ar, ann_label=al,
                      truth=np.arange(n, dtype=np.int64) % C)
    ds.validate()
    idx = np.array(draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.int64)
    return ds, idx


def naive_gather(ds, idx):
    ann_instance, ann_annotator, ann_label = [], [], []
    for b, i in enumerate(idx.tolist()):
        own = sorted((r, y) for inst, r, y in zip(ds.ann_instance.tolist(),
                                                  ds.ann_annotator.tolist(),
                                                  ds.ann_label.tolist()) if inst == i)
        for r, y in own:
            ann_instance.append(b)
            ann_annotator.append(r)
            ann_label.append(y)
    features = np.array([ds.features[i] for i in idx.tolist()]).reshape(-1, ds.d)
    return (features, np.array(ann_instance, dtype=np.int64),
            np.array(ann_annotator, dtype=np.int64), np.array(ann_label, dtype=np.int64))


@given(crowd_and_index())
@settings(max_examples=300, deadline=None)
def test_make_batch_matches_naive_gather(case):
    ds, idx = case
    batch = make_batch(ds, idx, ds.instance_slices())
    features, ann_instance, ann_annotator, ann_label = naive_gather(ds, idx)
    assert np.array_equal(batch.features, features)
    for got, want in ((batch.ann_instance, ann_instance),
                      (batch.ann_annotator, ann_annotator),
                      (batch.ann_label, ann_label)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


@given(crowd_and_index())
@settings(max_examples=100, deadline=None)
def test_annotation_order_matches_a_lexsort_oracle(case):
    shuffled, _ = case
    columns = (shuffled.ann_instance, shuffled.ann_annotator, shuffled.ann_label)
    ai, ar, al = (c[np.lexsort((shuffled.ann_annotator, shuffled.ann_instance))]
                  for c in columns)
    ordered = replace(shuffled, ann_instance=ai, ann_annotator=ar, ann_label=al)
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp, "oracle.csv"), "instance,annotator,label", [(ai, ar, al)])
        want = Path(tmp, "oracle.csv").read_bytes()
        for ds in (shuffled, ordered):
            got_ar, got_al, _ = ds.instance_slices()
            assert np.array_equal(got_ar, ar) and np.array_equal(got_al, al)
            save_dataset(ds, Path(tmp, "ds"))
            assert Path(tmp, "ds", "annotations.csv").read_bytes() == want
    assert ordered.annotation_order() is None
    got_ar, got_al, _ = ordered.instance_slices()
    assert np.shares_memory(got_ar, ordered.ann_annotator)
    assert np.shares_memory(got_al, ordered.ann_label)


@given(crowd_and_index())
@settings(max_examples=200, deadline=None)
def test_scatter_adds_match_an_add_at_oracle(case):
    ds, _ = case
    N, C, R = ds.n, ds.class_count, ds.annotator_count
    ai, ar, al = ds.ann_instance, ds.ann_annotator, ds.ann_label
    ptr = np.zeros(N + 1, dtype=np.int64)
    np.add.at(ptr, ai + 1, 1)
    assert np.array_equal(ds.instance_slices()[2], np.cumsum(ptr))
    counts = np.zeros((N, C))
    np.add.at(counts, (ai, al), 1.0)
    assert np.array_equal(aggregate_majority(ds), counts.argmax(axis=1))
    Qa = (counts / counts.sum(axis=1, keepdims=True))[ai]
    num, den = np.zeros((R, C, C)), np.zeros((R, C))
    for p in range(C):
        np.add.at(num[:, p, :], (ar, al), Qa[:, p])
        np.add.at(den[:, p], ar, Qa[:, p])
    want = np.log((num + VOTES_SMOOTHING) / (den + C * VOTES_SMOOTHING)[:, :, None])
    assert init_confusion_votes(ds).tobytes() == want.tobytes()
