import numpy as np
import pytest

from ccc.data import (annotation_histogram, annotation_noise_rate,
                      save_dataset, true_confusion_matrix)
from ccc.errors import ConfigError, ContractError
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

    def test_pair_map_override(self):
        mat = pattern_matrix(PatternSpec("pair", epsilon=0.5), 2, pair_map=[1, 0])
        assert np.allclose(mat, [[0.5, 0.5], [0.5, 0.5]])

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


def _dense_labels(specs, C, true_label, n, seed, pair_map=None):
    """Phase-1 labels (n, R) of a k=1 pool on n instances of one true class."""
    pool = build_pool(specs, C, k=1, rng=RngStream(seed), pair_map=pair_map)
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
        # pair-1.0 with 1 -> 7 always reports 7 on class 1
        pair_map = [1, 7, 3, 4, 5, 6, 7, 8, 9, 0]
        specs = [PatternSpec("pair", epsilon=1.0), PatternSpec("copy", target=0)]
        dense = _dense_labels(specs, 10, 1, 50, 0, pair_map=pair_map)
        assert (dense[:, 0] == 7).all()
        assert (dense[:, 1] == 7).all()

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

    def test_scaled_pool_size(self):
        pool = build_pool("IND-I", 10, R=50, k=3, rng=RngStream(7))
        assert pool.annotator_count == 50
        assert (np.bincount(pool.group_of) == 10).all()

    def test_k_exceeds_pool(self):
        with pytest.raises(ContractError):
            build_pool([PatternSpec("dummy")] * 2, 10, k=3, rng=RngStream(0))


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

    def test_symmetric_empirical_cm_matches_theory(self):
        # one symmetric-0.3 annotator plus a dummy, equal propensities, k=1
        specs = [PatternSpec("symmetric", epsilon=0.3), PatternSpec("dummy")]
        pool = AnnotatorPool(specs, np.array([0.5, 0.5]), k=1, alpha=1.5,
                             beta=3.0, class_count=10)
        truth = _balanced_truth(100_000, 10)
        ds = generate(truth, np.zeros((100_000, 1)), pool, RngStream(8))
        hist = annotation_histogram(ds)
        assert hist.min() >= 5000
        cm_sym = true_confusion_matrix(ds, 0)
        theory = np.full((10, 10), 0.3 / 9)
        np.fill_diagonal(theory, 0.7)
        assert np.abs(cm_sym - theory).max() < 0.02
        cm_dummy = true_confusion_matrix(ds, 1)
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

    def test_empty_truth_rejected(self):
        pool = build_pool([PatternSpec("dummy")], 4, k=1, rng=RngStream(0))
        with pytest.raises(ContractError):
            generate(np.empty(0, dtype=np.int64), np.zeros((0, 1)), pool, RngStream(0))
