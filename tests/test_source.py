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


def test_only_the_cli_reads_the_environment():
    # settings reach the library as arguments; only cli.py reads them
    package = Path(subsemi.__file__).parent
    readers = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("environ", "getenv"):
                readers.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert readers and all(r.startswith("cli.py:") for r in readers)


def test_no_module_level_empty_container():
    # a module-level dict, list or set that code fills is state shared by
    # every caller in the process; a process-wide cache must be a functools
    # cache keyed on its arguments
    package = Path(subsemi.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            empty = (isinstance(value, ast.Dict) and not value.keys
                     or isinstance(value, ast.List) and not value.elts
                     or isinstance(value, ast.Call) and not value.args
                     and not value.keywords and isinstance(value.func, ast.Name)
                     and value.func.id in ("dict", "list", "set"))
            if empty:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
