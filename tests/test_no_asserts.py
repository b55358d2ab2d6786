"""Library checks must not depend on ``assert``: ``python -O`` strips them."""

import ast
from pathlib import Path

import matchforge


def test_library_has_no_assert_statements():
    package = Path(matchforge.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
