"""Library and demo checks must not depend on ``assert``: ``python -O`` strips
them."""

import ast
from pathlib import Path

import matchforge

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def asserts_in(directory: Path) -> list[str]:
    found = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    return found


def test_library_has_no_assert_statements():
    assert asserts_in(Path(matchforge.__file__).resolve().parent) == []


def test_demos_have_no_assert_statements():
    assert list(DEMOS.glob("*.py")), "no demos found"
    assert asserts_in(DEMOS) == []
