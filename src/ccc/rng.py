"""Seeded, splittable random streams.

Every stochastic operation in this package draws from an RngStream. A
stream is identified by (seed, lineage); identical seed plus an identical
sequence of split/draw calls reproduces identical values, which is what
makes whole simulate/train runs byte-reproducible.

Streams are single-owner: never draw from one stream on two threads.
Parallel work must operate on independent children from split().
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_key(seed: int, lineage: tuple[str, ...]) -> int:
    payload = repr((int(seed),) + lineage).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")


class RngStream:
    __slots__ = ("seed", "lineage", "gen")

    def __init__(self, seed: int, lineage: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.lineage = tuple(str(t) for t in lineage)
        self.gen = np.random.default_rng(_derive_key(self.seed, self.lineage))

    def split(self, tag: str) -> "RngStream":
        """Independent child stream; the tag becomes part of its identity."""
        return RngStream(self.seed, self.lineage + (str(tag),))

    # Thin draw wrappers. Sizes are explicit so consumption is auditable.

    def uniform(self, size=None) -> np.ndarray | float:
        return self.gen.random(size)

    def normal(self, size=None) -> np.ndarray | float:
        return self.gen.standard_normal(size)

    def uniform_range(self, low: float, high: float, size=None):
        return self.gen.uniform(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def beta(self, alpha: float, beta: float, size=None):
        return self.gen.beta(alpha, beta, size)

    def __repr__(self):
        path = "/".join(self.lineage)
        return f"RngStream(seed={self.seed}, lineage={path!r})"
