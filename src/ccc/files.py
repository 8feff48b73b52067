"""Whole-file writes, the one remover of a command's earlier outputs, and forked children."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write path.tmp, then move it onto path; if the write raises, path is untouched."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def clear(directory, names) -> Path:
    """Make directory and remove each of names in it, in order: a command lists
    its marker first and writes it last, so a failed run does not load."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        (directory / name).unlink(missing_ok=True)
    return directory


@contextmanager
def forked(target, *args):
    """A started forked daemon running target(*args), or None without fork or
    inside a daemon. On exit it gets a second to end, then is terminated."""
    import multiprocessing  # here: only a command that starts a child imports it
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        yield None
        return
    proc = multiprocessing.get_context("fork").Process(target=_child, args=(target, *args),
                                                       daemon=True)
    proc.start()
    try:
        yield proc
    finally:
        proc.join(timeout=1)
        proc.terminate()  # a no-op once the child has exited
        proc.join()


def _child(target, *args) -> None:
    import signal
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, and so this
    target(*args)
