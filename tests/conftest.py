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
