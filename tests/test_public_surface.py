"""Every public library name has a user outside the tests.

A public module-level function, class or constant, and a public method of a
library class (named ``Class.method``), must be read, as an AST ``Name`` or
``Attribute``, by library code (its own module included), a demo, the bench
or the acceptance suite.  Methods are matched by name alone, so a method
counts as used when any attribute of that name is read.  A name only unit
tests call is dead API: delete it and test the behaviour through the API
that survives, or list it in ``KEPT`` with the reason it stays.
"""

import ast
from pathlib import Path

import matchforge

PACKAGE = Path(matchforge.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

KEPT = {
    # Reads the documented matching format that ``matchforge opt --out`` writes.
    "load_matching",
}


def _public_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.rpartition(".")[2].startswith("_")}


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_public_name_has_a_user_outside_the_tests():
    library = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    users = [*library, *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    used = set()
    for path in users:
        used |= _used_names(ast.parse(path.read_text(), filename=str(path)))
    unused = []
    for path in library:
        defined = _public_names(ast.parse(path.read_text(), filename=str(path)))
        unused += [f"{path.stem}.{name}" for name in sorted(defined - KEPT)
                   if name.rpartition(".")[2] not in used]
    assert unused == []


def test_kept_names_exist():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= _public_names(ast.parse(path.read_text(), filename=str(path)))
    assert KEPT <= defined
