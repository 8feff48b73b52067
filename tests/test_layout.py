"""Rules about where code lives, checked on the source of src/ccc.

Only files.py removes files: files.clear is the one remover of a command's
earlier outputs, and files.atomic_open drops its own temporary file. Every
other module asks files.clear, so that each command keeps one rule for
what it removes and in what order.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccc"


def _removals(path: Path) -> list[int]:
    """Line numbers of the unlink, os.remove and shutil.rmtree calls in path."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            owner = func.value.id if isinstance(func.value, ast.Name) else None
        else:
            name, owner = getattr(func, "id", None), None
        if name in ("unlink", "rmtree") or (name == "remove" and owner == "os"):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_files_py_removes_files():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "files.py" for line in _removals(path)]
    assert found == []


def test_the_scan_sees_the_removals_in_files_py():
    source = (SRC / "files.py").read_text().splitlines()
    seen = [source[line - 1].strip() for line in _removals(SRC / "files.py")]
    assert seen == ["os.remove(tmp)", "(directory / name).unlink(missing_ok=True)"]
