"""Whole-file writes: a failed write leaves no torn file behind."""

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write path.tmp, then move it onto path; if the write raises, path is untouched."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
