import ast
from pathlib import Path

import subsemi


def _package_modules():
    """(path, syntax tree) of every module of the package, in path order."""
    for path in sorted(Path(subsemi.__file__).parent.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so none may guard a result
    found = []
    for path, tree in _package_modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_dataclasses_or_typing():
    # records are namedtuples or __slots__ classes: dataclasses costs every
    # cold start the import of inspect, and typing annotates nothing here.
    # A check of sys.modules cannot see typing, which site may load first
    found = []
    for path, tree in _package_modules():
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_only_the_cli_reads_the_environment():
    # settings reach the library as arguments; only cli.py reads them
    readers = []
    for path, tree in _package_modules():
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("environ", "getenv"):
                readers.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert readers and all(r.startswith("cli.py:") for r in readers)


def test_package_init_imports_no_submodule():
    # `import subsemi` loads none of its modules; the package's __getattr__
    # imports each on first use
    tree = next(tree for path, tree in _package_modules() if path.name == "__init__.py")
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "subsemi"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "subsemi":
                found.append(f"{'.' * node.level}{node.module or ''}:{node.lineno}")
        todo.extend(ast.iter_child_nodes(node))
    assert found == []


def test_no_module_level_empty_container():
    # a module-level dict, list or set that code fills is state shared by
    # every caller in the process; a process-wide cache must be a functools
    # cache keyed on its arguments
    found = []
    for path, tree in _package_modules():
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


def test_no_poset_attribute():
    # a JoinSemilattice is a Poset, so no code reaches an order through a
    # wrapped .poset field
    found = []
    for path, tree in _package_modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "poset"]
    assert found == []


def test_one_function_constructs_the_process_pool():
    # a run opens one pool and hands it on; a second constructor call would
    # be a second pool
    sites = []

    def visit(path, node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("ProcessPoolExecutor", "Pool"):
                sites.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(path, child, owner)

    for path, tree in _package_modules():
        visit(path, tree, "<module>")
    assert sites == ["enumeration.py:process_pool"]


def test_every_module_is_imported_by_another():
    # a module that no other module of the package imports serves only the
    # tests, and belongs under tests/; __init__ and __main__ are entry points
    modules = {}
    for path, tree in _package_modules():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        modules[f"subsemi.{path.stem}"] = imported
    unused = [name for name in modules
              if name not in ("subsemi.__init__", "subsemi.__main__")
              and not any(name in imported for other, imported in modules.items()
                          if other != name)]
    assert unused == []


def _names_used(tree):
    """Each name a Name, an Attribute or an imported alias uses in tree, with
    the names of the functions it is used in."""
    uses = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name.split(".")[-1] if isinstance(node, ast.alias) else None)
        if name is not None:
            uses.append((name, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return uses


def test_every_public_function_has_a_caller():
    # a public function or method that no command, no module of the package
    # and no benchmark calls serves only the tests, and belongs under tests/;
    # a use inside its own def is no caller, and neither is its name in a
    # string, such as _EXPORTS' entries or a docstring
    defined = []
    for path, tree in _package_modules():
        bodies = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        defined += [(path.name, node.name) for body in bodies for node in body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")]
    perfbench = Path(subsemi.__file__).resolve().parents[2] / "perfbench"
    trees = [tree for _, tree in _package_modules()]
    trees += [ast.parse(path.read_text(), filename=str(path))
              for path in sorted(perfbench.rglob("*.py"))]
    used = {name for tree in trees for name, inside in _names_used(tree)
            if name not in inside}
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []


def _counting_functions_naming(functions, names):
    """(the functions of counting.py found among functions, the uses of any
    of names inside them as function:line)."""
    tree = next(tree for path, tree in _package_modules() if path.name == "counting.py")
    found, users = set(), []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            found.add(node.name)
            users += [f"{node.name}:{n.lineno}" for n in ast.walk(node)
                      if isinstance(n, ast.Name) and n.id in names]
    return found, users


def test_split_counter_does_not_use_the_kernel():
    # the case-split counter is the independent check on the kernel's count
    split = {"_propagate", "_count", "_pivot_split", "count_subuniverses_split",
             "split_parts", "check_split_agrees"}
    assert _counting_functions_naming(split, {"kernel"}) == (split, [])


def test_trace_bound_lists_nothing():
    # the trace bound counts fixpoints of the closure over H; listing Sub(L)
    # again would cost the 2^n scan the bound exists to avoid
    bound = {"_close", "_count_traces", "sigma_trace_bound"}
    assert _counting_functions_naming(bound, {"kernel", "enumerate_subuniverses"}) \
        == (bound, [])


def test_verifier_neither_decodes_nor_scans():
    # the worker that generates a structure counts it from its parent, so
    # the verifier reads the run's counts and decodes no code to recount it
    tree = next(tree for path, tree in _package_modules() if path.name == "verifier.py")
    names = [(getattr(node, "id", None) or getattr(node, "attr", None)
              or getattr(node, "name", None) or getattr(node, "module", None))
             for node in ast.walk(tree)]
    assert {"poset_from_code", "kernel"} & set(names) == set()
