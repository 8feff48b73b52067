"""Learning-from-crowds toolkit.

Simulates sparse crowd annotations with per-annotator confusion patterns
and Beta-distributed labeling propensities, and trains classifiers under
them with majority vote, per-annotator transition matrices, or coupled
confusion correction (two models exchanging distilled meta sets that
steer per-group correction matrices through an exact last-layer
hypergradient).
"""

__version__ = "0.1.0"

from .data import CrowdDataset, MetaSet, load_dataset, make_blobs, save_dataset
from .models import Classifier, init_classifier
from .rng import RngStream
from .simulate import AnnotatorPool, PatternSpec, build_pool, generate
from .training import TrainConfig, train

__all__ = [
    "AnnotatorPool",
    "Classifier",
    "CrowdDataset",
    "MetaSet",
    "PatternSpec",
    "RngStream",
    "TrainConfig",
    "build_pool",
    "generate",
    "init_classifier",
    "load_dataset",
    "make_blobs",
    "save_dataset",
    "train",
    "__version__",
]
