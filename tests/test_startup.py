"""What a cold start loads: each check runs in a fresh interpreter, because
this one has long since imported every module of the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the names `import subsemi` offers
PUBLIC = {
    "CanonicalForm", "EnumerationRun", "JoinSemilattice", "NamedStructure",
    "PartialBinaryAlgebra", "Poset", "SubuniverseReport",
    "build_family_member", "build_named", "canonical_form", "catalog_ids", "chain",
    "count_subuniverses_bruteforce", "count_subuniverses_split",
    "enumerate_semilattices", "enumerate_subuniverses", "glued_sum",
    "matches_family", "narrows", "ordinal_sum", "rank",
    "reconstruct_figure_structures", "sigma", "sigma_trace_bound",
    "split_parts", "to_semilattice", "verify_lemmas", "verify_theorem",
}

POOL_MODULES = {"concurrent.futures", "multiprocessing"}

# dataclasses imports inspect, and inspect imports ast, dis and tokenize; no
# command the audit starts needs any of them
RECORD_MODULES = {"dataclasses", "inspect"}


def _fresh(source):
    """The JSON that source prints as its last line, run in a new interpreter
    with the package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_by_command(*argv):
    """(exit code, modules loaded) of `python -m subsemi ARGV` in a new interpreter."""
    result = _fresh(
        "import contextlib, io, json, runpy, sys\n"
        f"sys.argv = ['subsemi', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('subsemi', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    return result[0], set(result[1])


def test_import_loads_no_submodule():
    loaded = set(_fresh("import json, sys\nimport subsemi\n"
                        "print(json.dumps(sorted(sys.modules)))"))
    assert {m for m in loaded if m.startswith("subsemi.")} == set()
    assert loaded & POOL_MODULES == set()


def test_public_names_resolve_to_their_modules():
    result = _fresh(
        "import json, sys\n"
        "import subsemi\n"
        "owners = {}\n"
        "for name in subsemi.__all__:\n"
        "    obj = getattr(subsemi, name)\n"
        "    owner = sys.modules[obj.__module__]\n"
        "    owners[name] = [obj.__module__, getattr(owner, name) is obj]\n"
        "star = {}\n"
        "exec('from subsemi import *', star)\n"
        "print(json.dumps({'all': subsemi.__all__, 'owners': owners,\n"
        "                  'dir': dir(subsemi), 'star': sorted(star),\n"
        "                  'kernel': subsemi.kernel.__name__,\n"
        "                  'missing': hasattr(subsemi, 'no_such_name')}))")
    assert set(result["all"]) == PUBLIC
    for name, (module, same) in result["owners"].items():
        assert module.startswith("subsemi.") and same, name
    assert PUBLIC <= set(result["dir"])
    assert PUBLIC <= set(result["star"])
    assert result["kernel"] == "subsemi.kernel"
    assert result["missing"] is False


def test_count_from_file_loads_no_enumeration(tmp_path):
    path = tmp_path / "h5.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c", "d", "1"],
                                "covers": [["a", "b"], ["b", "c"], ["c", "1"],
                                           ["d", "1"]]}))
    code, loaded = _loaded_by_command("count", "--input", str(path))
    assert code == 0
    assert "subsemi.jsonio" in loaded
    assert loaded & {"subsemi.verifier", "subsemi.enumeration", "subsemi.analysis",
                     "concurrent.futures"} == set()
    assert loaded & RECORD_MODULES == set()


def test_named_count_loads_no_enumeration():
    # only the figure-only ids enumerate, when their shapes are rebuilt
    code, loaded = _loaded_by_command("count", "--named", "K3")
    assert code == 0
    assert "subsemi.catalog" in loaded
    assert "subsemi.enumeration" not in loaded
    assert loaded & RECORD_MODULES == set()


@pytest.mark.parametrize("workers, pooled", [("1", False), ("2", True)])
def test_only_a_pooled_run_loads_the_pool(workers, pooled):
    code, loaded = _loaded_by_command("verify-theorem", "--n", "5", "--workers", workers)
    assert code == 0
    assert loaded & POOL_MODULES == (POOL_MODULES if pooled else set())
    assert loaded & RECORD_MODULES == set()


def test_file_formats_load_no_dataclasses():
    loaded = set(_fresh("import json, sys\nimport subsemi.jsonio\n"
                        "print(json.dumps(sorted(sys.modules)))"))
    assert "subsemi.order" in loaded and "subsemi.counting" in loaded
    assert loaded & RECORD_MODULES == set()
