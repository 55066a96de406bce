"""Static hygiene of the package and its tests: every imported name is used,
and every tol parameter is a sign-test margin."""

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


def _loose_tolerances(tree) -> list:
    """Functions whose parameter named tol defaults to anything but SIGN_TOL."""
    loose = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                         *zip(a.kwonlyargs, a.kw_defaults)]
            if any(p.arg == "tol" and d is not None and ast.unparse(d) != "SIGN_TOL"
                   for p, d in defaulted):
                loose.append(node.name)
    return loose


def test_every_tol_parameter_is_a_sign_test():
    """A tol parameter is either required or defaults to SIGN_TOL, the margin
    that SYMSQ_TOL overrides; every other tolerance is a module constant."""
    loose = {path.name: names for path in sorted((ROOT / "src" / "symsq").glob("*.py"))
             if (names := _loose_tolerances(ast.parse(path.read_text())))}
    assert loose == {}
