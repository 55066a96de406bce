"""Static hygiene of the package and its tests: every imported name is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "symsq").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(tree) -> list:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = {path.relative_to(ROOT).as_posix(): names for path in SOURCES
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}
