import ast
from pathlib import Path

import subsemi


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so none may guard a result
    package = Path(subsemi.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
