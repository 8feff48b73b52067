"""Property test: make_batch's CSR gather against a naive per-instance gather.

The oracle scans every annotation for each batch position in turn and
orders an instance's annotations by annotator id, the canonical
(instance, annotator) order the trainers rely on for reproducible sums.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ccc.data import CrowdDataset
from ccc.training import make_batch


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
    batch = make_batch(ds, idx)
    features, ann_instance, ann_annotator, ann_label = naive_gather(ds, idx)
    assert np.array_equal(batch.features, features)
    for got, want in ((batch.ann_instance, ann_instance),
                      (batch.ann_annotator, ann_annotator),
                      (batch.ann_label, ann_label)):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    assert np.array_equal(batch.labels, ds.truth[idx])
    assert np.array_equal(make_batch(ds, idx, ds.instance_slices()).ann_label, ann_label)
