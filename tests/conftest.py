import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process (a ccc worker) is still running."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(autouse=True)
def no_tmp_file_left(tmp_path_factory):
    """Fail a test that leaves a *.tmp file (an atomic_open write that was
    neither moved into place nor removed) in a directory it created: its
    tmp_path, or a tmp_path_factory directory. Only those are scanned."""
    base = tmp_path_factory.getbasetemp()
    before = set(base.iterdir())
    yield
    made = [path for path in set(base.iterdir()) - before if not path.is_symlink()]
    left = [tmp for path in made for tmp in path.rglob("*.tmp")]
    assert not left, f"*.tmp files left: {left}"
