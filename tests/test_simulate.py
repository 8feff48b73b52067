import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccc.data import (annotation_histogram, annotation_noise_rate,
                      save_dataset, true_confusion_matrices)
from ccc.errors import ConfigError, ContractError
from ccc.kernels import draw_labels, select_k
from ccc.rng import RngStream
from ccc.simulate import (PRESETS, AnnotatorPool, PatternSpec, build_pool,
                          generate, pattern_matrix)


class TestPatternMatrix:
    def test_symmetric_03_ten_classes(self):
        mat = pattern_matrix(PatternSpec("symmetric", epsilon=0.3), 10)
        assert np.allclose(np.diag(mat), 0.7)
        off = mat[~np.eye(10, dtype=bool)]
        assert np.allclose(off, 0.3 / 9)

    def test_dummy_uniform(self):
        assert np.allclose(pattern_matrix(PatternSpec("dummy"), 4), 0.25)

    def test_classwise_rows(self):
        mat = pattern_matrix(PatternSpec("classwise", good_classes=(0,)), 3)
        assert np.array_equal(mat[0], [1.0, 0.0, 0.0])
        assert np.allclose(mat[1], 1 / 3)
        assert np.allclose(mat[2], 1 / 3)

    def test_pair_cyclic_default(self):
        mat = pattern_matrix(PatternSpec("pair", epsilon=0.6), 4)
        assert np.allclose(np.diag(mat), 0.4)
        assert np.allclose(mat[np.arange(4), (np.arange(4) + 1) % 4], 0.6)

    def test_all_patterns_row_stochastic(self):
        specs = [PatternSpec("symmetric", epsilon=0.41),
                 PatternSpec("pair", epsilon=0.77),
                 PatternSpec("classwise", good_classes=(1, 4)),
                 PatternSpec("dummy")]
        for spec in specs:
            mat = pattern_matrix(spec, 6)
            assert (mat >= 0).all()
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_correlated_kind_rejected(self):
        with pytest.raises(ContractError):
            pattern_matrix(PatternSpec("copy"), 3)

    def test_invalid_epsilon(self):
        with pytest.raises(ContractError):
            PatternSpec("symmetric", epsilon=1.5)


def _dense_labels(specs, C, true_label, n, seed):
    """Phase-1 labels (n, R) of a k=1 pool on n instances of one true class."""
    pool = build_pool(specs, C, k=1, rng=RngStream(seed))
    truth = np.full(n, true_label, dtype=np.int64)
    _, dense = generate(truth, np.zeros((n, 1)), pool, RngStream(seed).split("labels"),
                        return_dense=True)
    return dense


class TestIndependentSampling:
    def test_noiseless_always_truth(self):
        dense = _dense_labels([PatternSpec("symmetric", epsilon=0.0)], 5, 2, 50, 0)
        assert (dense[:, 0] == 2).all()

    def test_dummy_uniform_frequencies(self):
        dense = _dense_labels([PatternSpec("dummy")], 10, 3, 100_000, 1)
        freq = np.bincount(dense[:, 0], minlength=10) / dense.shape[0]
        assert np.abs(freq - 0.1).max() < 0.01

    def test_pair_frequencies(self):
        dense = _dense_labels([PatternSpec("pair", epsilon=0.6)], 10, 2, 100_000, 2)
        freq = np.bincount(dense[:, 0], minlength=10) / dense.shape[0]
        assert abs(freq[3] - 0.6) < 0.01
        assert abs(freq[2] - 0.4) < 0.01


class TestCorrelatedSampling:
    # Annotator 0 is the independent target; annotator 1 reacts to it.
    def test_copy(self):
        # pair-1.0 always reports 2 on class 1
        specs = [PatternSpec("pair", epsilon=1.0), PatternSpec("copy", target=0)]
        dense = _dense_labels(specs, 10, 1, 50, 0)
        assert (dense[:, 0] == 2).all()
        assert (dense[:, 1] == 2).all()

    def test_supportive_with_correct_target(self):
        specs = [PatternSpec("symmetric", epsilon=0.0), PatternSpec("supportive", target=0)]
        dense = _dense_labels(specs, 10, 4, 50, 1)
        assert (dense[:, 0] == 4).all()
        assert (dense[:, 1] == 4).all()

    def test_opposite_with_correct_target_is_uniform(self):
        specs = [PatternSpec("symmetric", epsilon=0.0), PatternSpec("opposite", target=0)]
        dense = _dense_labels(specs, 10, 4, 100_000, 2)
        assert (dense[:, 0] == 4).all()
        freq = np.bincount(dense[:, 1], minlength=10) / dense.shape[0]
        assert np.abs(freq - 0.1).max() < 0.01


class TestBuildPool:
    def test_preset_ind1_composition(self):
        pool = build_pool("IND-I", 10, rng=RngStream(0))
        assert pool.annotator_count == 250
        kinds = [(s.kind, s.epsilon, s.good_classes) for s in pool.specs]
        assert kinds[:50] == [("symmetric", 0.3, None)] * 50
        assert kinds[50:100] == [("symmetric", 0.5, None)] * 50
        assert kinds[100:150] == [("pair", 0.6, None)] * 50
        assert kinds[150:200] == [("classwise", None, (1, 3, 4, 6, 8))] * 50
        assert kinds[200:250] == [("dummy", None, None)] * 50

    def test_preset_cor2_composition(self):
        pool = build_pool("COR-II", 10, rng=RngStream(0))
        groups = [pool.specs[g * 50].kind for g in range(5)]
        assert groups == ["pair", "classwise", "supportive", "opposite", "copy"]
        assert pool.specs[0].epsilon == 0.5
        assert pool.specs[50].good_classes == (0, 6, 8)

    def test_all_presets_have_five_groups(self):
        assert set(PRESETS) == {"IND-I", "IND-II", "IND-III", "IND-IV",
                                "COR-I", "COR-II", "COR-III", "COR-IV"}
        for groups in PRESETS.values():
            assert len(groups) == 5

    def test_same_seed_same_pool(self):
        a = build_pool("COR-I", 10, rng=RngStream(4))
        b = build_pool("COR-I", 10, rng=RngStream(4))
        assert np.array_equal(a.propensities, b.propensities)
        assert [s.target for s in a.specs] == [s.target for s in b.specs]

    def test_propensities_in_unit_interval(self):
        pool = build_pool("IND-I", 10, rng=RngStream(5))
        assert (pool.propensities > 0).all() and (pool.propensities < 1).all()

    def test_correlated_targets_are_independent_annotators(self):
        pool = build_pool("COR-III", 10, rng=RngStream(6))
        for spec in pool.specs:
            if not spec.independent:
                assert pool.specs[spec.target].independent

    def test_all_correlated_rejected(self):
        specs = [PatternSpec("copy"), PatternSpec("supportive")]
        with pytest.raises(ContractError):
            build_pool(specs, 10, k=1, rng=RngStream(0))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_pool("IND-V", 10, rng=RngStream(0))

    def test_preset_pool_size_checked_before_its_name(self):
        with pytest.raises(ConfigError, match="preset pools need R divisible by 5, got 7"):
            build_pool("IND-V", 10, R=7, rng=RngStream(0))

    @pytest.mark.parametrize("R", [5, 50, 250])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_is_its_expanded_pattern_list(self, name, R):
        by_name = build_pool(name, 10, R=R, rng=RngStream(11))
        listed = build_pool([proto for proto in PRESETS[name] for _ in range(R // 5)], 10,
                            rng=RngStream(11))
        key = [(s.kind, s.epsilon, s.good_classes, s.target) for s in by_name.specs]
        assert key == [(s.kind, s.epsilon, s.good_classes, s.target) for s in listed.specs]
        assert np.array_equal(by_name.propensities, listed.propensities)
        assert np.array_equal(by_name.group_of, listed.group_of)
        # the first-appearance numbering is the preset's group index
        assert np.array_equal(by_name.group_of, np.repeat(np.arange(5), R // 5))

    def test_scaled_pool_size(self):
        pool = build_pool("IND-I", 10, R=50, k=3, rng=RngStream(7))
        assert pool.annotator_count == 50
        assert (np.bincount(pool.group_of) == 10).all()

    def test_k_exceeds_pool(self):
        with pytest.raises(ConfigError):
            build_pool([PatternSpec("dummy")] * 2, 10, k=3, rng=RngStream(0))

    def test_k_above_the_positive_propensities_rejected(self):
        # alpha 0.001 underflows most Beta draws to exactly 0.0
        pool = build_pool("IND-I", 10, R=250, k=3, alpha=0.001, rng=RngStream(0))
        positive = int((pool.propensities > 0.0).sum())
        assert 3 <= positive < 250
        with pytest.raises(ConfigError, match=f"k={positive + 1} exceeds the {positive} "
                           r"positive propensities drawn from Beta\(alpha=0.001, beta=3.0\)"):
            build_pool("IND-I", 10, R=250, k=positive + 1, alpha=0.001, rng=RngStream(0))

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError, match="k must be between 1 and the pool size 2, got 0"):
            build_pool([PatternSpec("dummy")] * 2, 10, k=0, rng=RngStream(0))


def _balanced_truth(n, c):
    return (np.arange(n) % c).astype(np.int64)


class TestGenerate:
    def test_perfect_pool_keeps_truth(self):
        specs = [PatternSpec("symmetric", epsilon=0.0)] * 3
        pool = build_pool(specs, 4, k=2, rng=RngStream(0))
        truth = _balanced_truth(40, 4)
        ds = generate(truth, np.zeros((40, 2)), pool, RngStream(1))
        assert np.array_equal(ds.ann_label, truth[ds.ann_instance])
        assert (annotation_histogram(ds).sum()) == 80
        assert (np.bincount(ds.ann_instance) == 2).all()

    def test_exactly_k_annotations_per_instance(self):
        pool = build_pool("IND-I", 10, R=50, k=3, rng=RngStream(2))
        truth = _balanced_truth(200, 10)
        ds = generate(truth, np.zeros((200, 1)), pool, RngStream(3))
        assert (np.bincount(ds.ann_instance, minlength=200) == 3).all()
        assert ds.annotation_count == 600

    def test_zero_propensity_annotator_gets_nothing(self):
        specs = [PatternSpec("dummy")] * 4
        pool = build_pool(specs, 5, k=2, rng=RngStream(4))
        pool.propensities = np.array([0.5, 0.0, 0.5, 0.5])
        ds = generate(_balanced_truth(100, 5), np.zeros((100, 1)), pool, RngStream(5))
        assert annotation_histogram(ds)[1] == 0

    def test_byte_identical_under_seed(self, tmp_path):
        for sub in ("a", "b"):
            master = RngStream(11)
            pool = build_pool("COR-II", 10, R=25, k=3, rng=master.split("pool"))
            truth = _balanced_truth(150, 10)
            feats = np.zeros((150, 2))
            ds = generate(truth, feats, pool, master.split("labels"))
            save_dataset(ds, tmp_path / sub)
        assert (tmp_path / "a" / "annotations.csv").read_bytes() == \
            (tmp_path / "b" / "annotations.csv").read_bytes()

    def test_copy_agreement_in_dense_output(self):
        specs = [PatternSpec("dummy")] * 2 + [PatternSpec("copy")] * 2
        pool = build_pool(specs, 6, k=2, rng=RngStream(6))
        truth = _balanced_truth(500, 6)
        ds, dense = generate(truth, np.zeros((500, 1)), pool, RngStream(7),
                             return_dense=True)
        for r, spec in enumerate(pool.specs):
            if spec.kind == "copy":
                assert np.array_equal(dense[:, r], dense[:, spec.target])

    def test_peak_memory_below_half_an_int64_table(self):
        # Criterion-1 shape at 20,000 instances: an int64 phase-1 table
        # alone would take N * R * 8 bytes.
        N, R = 20_000, 250
        pool = build_pool("COR-I", 10, R=R, rng=RngStream(14))
        truth = _balanced_truth(N, 10)
        features = np.zeros((N, 1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            generate(truth, features, pool, RngStream(15))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < N * R * 8 / 2

    def test_peak_memory_below_a_uint8_table_at_criterion_1_scale(self):
        # 45,000 x 250 COR-I: phase 1 keeps one label array per annotator,
        # so not even a uint8 (R, N) table of N * R bytes may be built.
        N, R = 45_000, 250
        pool = build_pool("COR-I", 10, R=R, rng=RngStream(18))
        truth = _balanced_truth(N, 10)
        features = np.zeros((N, 1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            generate(truth, features, pool, RngStream(19))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < N * R

    @pytest.mark.parametrize("C, dtype", [(10, np.uint8), (300, np.uint16)])
    def test_dense_table_in_narrowest_class_dtype(self, C, dtype):
        specs = [PatternSpec("symmetric", epsilon=0.5)] * 3 + [PatternSpec("opposite")]
        pool = build_pool(specs, C, k=2, rng=RngStream(16))
        truth = _balanced_truth(600, C)
        ds, dense = generate(truth, np.zeros((600, 1)), pool, RngStream(17),
                             return_dense=True)
        assert dense.dtype == dtype and ds.ann_label.dtype == np.int64
        assert np.array_equal(ds.ann_label, dense[ds.ann_instance, ds.ann_annotator])
        assert dense.max() == C - 1  # the top class survives the narrow store

    def test_symmetric_empirical_cm_matches_theory(self):
        # one symmetric-0.3 annotator plus a dummy, equal propensities, k=1
        specs = [PatternSpec("symmetric", epsilon=0.3), PatternSpec("dummy")]
        pool = AnnotatorPool(specs, np.array([0.5, 0.5]), k=1, alpha=1.5,
                             beta=3.0, class_count=10)
        truth = _balanced_truth(100_000, 10)
        ds = generate(truth, np.zeros((100_000, 1)), pool, RngStream(8))
        hist = annotation_histogram(ds)
        assert hist.min() >= 5000
        cm_sym, cm_dummy = true_confusion_matrices(ds)
        theory = np.full((10, 10), 0.3 / 9)
        np.fill_diagonal(theory, 0.7)
        assert np.abs(cm_sym - theory).max() < 0.02
        assert np.abs(cm_dummy - 0.1).max() < 0.02

    def test_symmetric_noise_rate_converges_to_epsilon(self):
        eps = 0.35
        specs = [PatternSpec("symmetric", epsilon=eps)] * 3
        pool = build_pool(specs, 8, k=2, rng=RngStream(9))
        truth = _balanced_truth(5000, 8)
        ds = generate(truth, np.zeros((5000, 1)), pool, RngStream(10))
        assert ds.annotation_count == 10_000
        assert abs(annotation_noise_rate(ds) - eps) < 0.015

    def test_ind1_noise_matches_group_mix(self):
        # per-group error rates: sym .3, sym .5, pair .6, classwise .45, dummy .9
        pool = build_pool("IND-I", 10, R=250, k=3, rng=RngStream(12))
        truth = _balanced_truth(6000, 10)
        ds = generate(truth, np.zeros((6000, 1)), pool, RngStream(13))
        expected = np.mean([0.3, 0.5, 0.6, 0.45, 0.9])
        assert abs(annotation_noise_rate(ds) - expected) < 0.03

    def test_k_exceeds_pool_size(self):
        specs = [PatternSpec("dummy")] * 2
        pool = AnnotatorPool(specs, np.array([0.5, 0.5]), k=5, alpha=1.5,
                             beta=3.0, class_count=4)
        with pytest.raises(ContractError):
            generate(_balanced_truth(10, 4), np.zeros((10, 1)), pool, RngStream(0))

    def test_k_exceeds_positive_propensities(self):
        specs = [PatternSpec("dummy")] * 3
        pool = AnnotatorPool(specs, np.array([0.5, 0.0, 0.5]), k=3, alpha=1.5,
                             beta=3.0, class_count=4)
        with pytest.raises(ContractError, match="k=3 exceeds the annotators with positive"):
            generate(_balanced_truth(10, 4), np.zeros((10, 1)), pool, RngStream(0))

    def test_empty_truth_rejected(self):
        pool = build_pool([PatternSpec("dummy")], 4, k=1, rng=RngStream(0))
        with pytest.raises(ContractError):
            generate(np.empty(0, dtype=np.int64), np.zeros((0, 1)), pool, RngStream(0))


def generate_oracle(truth, pool, rng):
    """The dense recipe: label every (instance, annotator) pair in phase 1,
    then keep pool.k per instance. Returns (ann_instance, ann_annotator,
    ann_label, dense (N, R))."""
    N, R, C = truth.shape[0], pool.annotator_count, pool.class_count
    dense = np.empty((R, N), dtype=np.min_scalar_type(C - 1))
    for r, spec in enumerate(pool.specs):
        if not spec.independent:
            continue
        cum = np.cumsum(pattern_matrix(spec, C), axis=1)
        dense[r] = draw_labels(cum, truth, rng.uniform(N))
    for r, spec in enumerate(pool.specs):
        if spec.independent:
            continue
        target = dense[spec.target]
        if spec.kind == "copy":
            dense[r] = target
            continue
        u = rng.uniform(N)
        uniform_label = np.minimum((u * C).astype(np.int64), C - 1)
        right = target == truth
        keep_truth = right if spec.kind == "supportive" else ~right
        dense[r] = np.where(keep_truth, truth, uniform_label)
    picks = np.sort(select_k(pool.propensities, rng.uniform((N, pool.k))), axis=1)
    ann_instance = np.repeat(np.arange(N, dtype=np.int64), pool.k)
    ann_annotator = picks.reshape(-1)
    return ann_instance, ann_annotator, dense[ann_annotator, ann_instance], dense.T


@st.composite
def generate_cases(draw):
    # Pattern lists of every kind, C from 2, zero propensities and k up
    # to the number of positive ones.
    C = draw(st.integers(2, 5))
    independent = st.one_of(
        st.builds(PatternSpec, st.sampled_from(["symmetric", "pair"]),
                  epsilon=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)),
        st.builds(PatternSpec, st.just("classwise"), good_classes=st.lists(
            st.integers(0, C - 1), min_size=1, max_size=C, unique=True).map(tuple)),
        st.just(PatternSpec("dummy")))
    correlated = st.sampled_from(["copy", "supportive", "opposite"]).map(PatternSpec)
    specs = draw(st.lists(independent, min_size=1, max_size=4))
    specs += draw(st.lists(correlated, max_size=4))
    specs = draw(st.permutations(specs))
    R = len(specs)
    weight = st.sampled_from([0.0, 0.2, 1.0]) | st.floats(1e-3, 1.0)
    propensities = np.array(draw(st.lists(weight, min_size=R, max_size=R)))
    if not (propensities > 0.0).any():
        propensities[draw(st.integers(0, R - 1))] = 0.5
    k = draw(st.integers(1, int((propensities > 0.0).sum())))
    N = draw(st.integers(1, 40))
    truth = np.array(draw(st.lists(st.integers(0, C - 1), min_size=N, max_size=N)))
    seed = draw(st.integers(0, 2**32 - 1))
    return specs, C, propensities, k, truth, seed, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(generate_cases())
def test_generate_equals_dense_oracle(case):
    specs, C, propensities, k, truth, seed, return_dense = case
    pool = build_pool(specs, C, k=1, rng=RngStream(seed, ("pool",)))
    pool.propensities, pool.k = propensities, k
    rng = RngStream(seed, ("labels",))
    got = generate(truth, np.zeros((truth.size, 1)), pool, rng, return_dense=return_dense)
    ds, dense = got if return_dense else (got, None)
    want = generate_oracle(truth, pool, RngStream(seed, ("labels",)))
    assert np.array_equal(ds.ann_instance, want[0])
    assert np.array_equal(ds.ann_annotator, want[1])
    assert ds.ann_label.dtype == np.int64 and np.array_equal(ds.ann_label, want[2])
    if return_dense:
        assert dense.dtype == want[3].dtype and np.array_equal(dense, want[3])
    # the stream ends as if every phase-1 label and selection uniform was drawn
    drawing = sum(spec.kind != "copy" for spec in pool.specs)
    sequential = RngStream(seed, ("labels",))
    sequential.uniform(truth.size * (drawing + k))
    assert rng.gen.bit_generator.state == sequential.gen.bit_generator.state
