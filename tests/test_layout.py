"""Rules about where code lives, checked on the source of src/ccc.

Only files.py removes files: files.clear is the one remover of a command's
earlier outputs, and files.atomic_open drops its own temporary file. Every
other module asks files.clear, so that each command keeps one rule for
what it removes and in what order.

Only files.py starts a process, through files.forked, which two callers
use: write_csv's split (data.py) and ccc's model2 worker (training.py).
These are the program's only two forked children.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccc"


def _calls(path: Path):
    """(name, owner, line) of each call in path, owner being the plain name
    before the call's dot, if any."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            yield func.attr, owner, node.lineno
        else:
            yield getattr(func, "id", None), None, node.lineno


def _removals(path: Path) -> list[int]:
    """Line numbers of the unlink, os.remove and shutil.rmtree calls in path."""
    return sorted(line for name, owner, line in _calls(path)
                  if name in ("unlink", "rmtree") or (name == "remove" and owner == "os"))


def test_only_files_py_removes_files():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "files.py" for line in _removals(path)]
    assert found == []


def test_the_scan_sees_the_removals_in_files_py():
    source = (SRC / "files.py").read_text().splitlines()
    seen = [source[line - 1].strip() for line in _removals(SRC / "files.py")]
    assert seen == ["os.remove(tmp)", "(directory / name).unlink(missing_ok=True)"]


def test_only_the_csv_split_and_the_model2_worker_fork():
    starts = [(path.name, name) for path in sorted(SRC.glob("*.py"))
              for name, _, _ in _calls(path) if name in ("forked", "Process", "fork", "Popen")]
    assert starts == [("data.py", "forked"), ("files.py", "Process"), ("training.py", "forked")]
