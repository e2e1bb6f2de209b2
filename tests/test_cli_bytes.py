"""Byte pins for the commands that print catalog values, counts, relative
counts and family matches: the stdout and exit code of each command line,
run through cli.main, against tests/reference/cli_bytes.json.

Regenerate the reference only for an intended output change:
    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from subsemi.catalog import build_named, catalog_ids
from subsemi.cli import main
from subsemi.order import JoinSemilattice

REFERENCE = Path(__file__).resolve().parent / "reference" / "cli_bytes.json"


def pinned_argvs():
    argvs = [["catalog", "--json"], ["verify-lemmas", "--json"]]
    for id_ in catalog_ids():
        argvs += [["count", "--named", id_, "--json"], ["sigma", "--named", id_]]
    argvs += [["classify", "--named", id_] for id_ in catalog_ids()
              if isinstance(build_named(id_).structure, JoinSemilattice)]
    return argvs


def capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": buf.getvalue()}


def test_pinned_commands_print_the_reference_bytes():
    reference = json.loads(REFERENCE.read_text())
    assert [r["argv"] for r in reference] == pinned_argvs()
    differ = [r["argv"] for r in reference if capture(r["argv"]) != r]
    assert differ == []


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps([capture(a) for a in pinned_argvs()], indent=1) + "\n")
