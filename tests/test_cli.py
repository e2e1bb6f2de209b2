import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subsemi import catalog, cli, enumeration, verifier
from subsemi.cli import main
from subsemi.counting import BRUTE_MAX_N
from subsemi.jsonio import structure_from_dict
from subsemi.order import canonical_form

H5_DOC = {"labels": ["a", "b", "c", "d", "1"],
          "covers": [["a", "b"], ["b", "c"], ["c", "1"], ["d", "1"]]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_named(capsys):
    code, out, _ = run(capsys, "count", "--named", "H5")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 25
    assert data["sigma"] == "25"
    assert data["k"] == 5


def test_count_fails_on_disagreement_under_O(run_optimized):
    # a corrupted kernel must not print a count or a relative count, even
    # with asserts stripped
    for command in ("count", "sigma"):
        proc = run_optimized(
            "import sys\n"
            "from subsemi import kernel\n"
            "from subsemi.cli import main\n"
            "real = kernel.count_closed\n"
            "kernel.count_closed = lambda n, cons: real(n, cons) + 1\n"
            f"sys.exit(main(['{command}', '--named', 'H5']))\n")
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "counting algorithms disagree: 26 != 25" in proc.stderr


def test_sigma_K0(capsys):
    code, out, _ = run(capsys, "sigma", "--named", "K0", "--k", "5")
    assert code == 0
    assert out.strip() == "61/4"


def test_sigma_json_mode(capsys):
    code, out, _ = run(capsys, "sigma", "--named", "K0", "--json")
    data = json.loads(out)
    assert data["sigma"] == "61/4" and data["sigma_decimal"] == 15.25


def test_count_missing_input(capsys):
    code, _, err = run(capsys, "count", "--input", "nonexistent.json")
    assert code == 2
    assert "nonexistent.json" in err


def test_count_requires_source(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2


def test_count_input_file(capsys, tmp_path):
    f = tmp_path / "h5.json"
    f.write_text(json.dumps(H5_DOC))
    code, out, _ = run(capsys, "count", "--input", str(f))
    assert code == 0
    assert json.loads(out)["count"] == 25


def _assert_not_json(capsys, path):
    for command in ("count", "sigma", "classify"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid JSON: ")
        assert err.count("\n") == 1


def test_input_not_utf8_exits_2(capsys, tmp_path):
    f = tmp_path / "bytes.json"
    f.write_bytes(b"\xff\xfe")
    _assert_not_json(capsys, f)


def test_input_nested_past_recursion_limit_exits_2(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100000 + "]" * 100000)
    _assert_not_json(capsys, f)


def test_wide_cover_file_is_refused_fast(capsys, tmp_path):
    # 4,000 labels and no covers: the order's axioms are checked on the
    # covers, not on all 16 million pairs, before the missing join is found
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"labels": [str(i) for i in range(4000)], "covers": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--input", str(f))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: covers: no least upper bound for elements (0, 1)\n")


def test_closed_stdout_exits_1_without_traceback():
    # the reader takes one line and closes the pipe. The pipe holds 4 KiB,
    # far less than the 34 kB report, so a later write meets the closed pipe
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe size cannot be set on this platform")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read, write = os.pipe()
    fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "subsemi", "rank", "--n", "8", "--json", "--workers", "1"],
        stdout=write, stderr=subprocess.PIPE, env=env)
    os.close(write)
    with os.fdopen(read, "rb") as out:
        assert out.readline() == b"{\n"
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    rows = {r["id"]: r for r in json.loads(out)}
    assert rows["U14"]["expected_sigma5"] == "343/16"
    assert rows["H"]["reported_sigma5"] == ["21", "23"]


def test_enumerate_writes_files(capsys, tmp_path):
    out_dir = tmp_path / "enum"
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(out_dir))
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["count"] == 5
    assert len(manifest["files"]) == 5
    for fname in manifest["files"]:
        doc = json.loads((out_dir / fname).read_text())
        structure, _ = structure_from_dict(doc)
        assert doc["canonical_code"] == canonical_form(structure).code.hex()


def test_enumerate_elapsed_ignores_wall_clock(capsys, monkeypatch):
    # the wall clock can be set back during a run; the elapsed time must not follow it
    clock = itertools.count(1000.0, -60.0)
    monkeypatch.setattr(cli.time, "time", lambda: next(clock))
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert json.loads(out)["elapsed_seconds"] >= 0


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values"][:4] == [32, 28, 26, 25]


def test_rank_and_verify_theorem_honour_ceiling_flag(capsys, monkeypatch):
    monkeypatch.setenv("SUBUNIV_CEILING", "3")
    code, _, err = run(capsys, "rank", "--n", "4")
    assert code == 2 and "ceiling is 3" in err
    code, out, _ = run(capsys, "rank", "--n", "4", "--ceiling", "9")
    assert code == 0
    assert out.splitlines()[0].split() == ["rank", "1:", "count=16", "witnesses=1"]
    code, out, _ = run(capsys, "verify-theorem", "--n", "4", "--ceiling", "9", "--json")
    assert code == 0 and json.loads(out)["all_passed"] is True
    # the table output looks up the extra witnesses under the same ceiling
    code, out, _ = run(capsys, "verify-theorem", "--n", "6", "--ceiling", "6")
    assert code == 1 and "extra witness" in out


def test_ceiling_enforced(capsys, monkeypatch):
    monkeypatch.setenv("SUBUNIV_CEILING", "3")
    code, _, err = run(capsys, "enumerate", "--n", "4")
    assert code == 2 and "ceiling is 3" in err
    # an explicit ceiling overrides the environment
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--ceiling", "9")
    assert code == 0 and json.loads(out)["count"] == 5
    monkeypatch.delenv("SUBUNIV_CEILING")

    def refuse(*args, **kwargs):
        raise AssertionError("work started above the ceiling")

    # the default ceiling is checked before any enumeration
    monkeypatch.setattr(enumeration, "enumerate_semilattices", refuse)
    monkeypatch.setattr(verifier, "rank", refuse)
    monkeypatch.setattr(verifier, "verify_theorem", refuse)
    for command in ("enumerate", "rank", "verify-theorem"):
        code, out, err = run(capsys, command, "--n", "10")
        assert (code, out) == (2, "")
        assert err == "error: enumeration ceiling is 9; raise it explicitly for n=10\n"


@pytest.mark.parametrize("ceiling", ["4", "abc"])
def test_commands_without_ceiling_ignore_it(capsys, ceiling):
    # these commands enumerate n = 5..7 internally for the figure shapes;
    # a cold interpreter shows they no longer read SUBUNIV_CEILING
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, SUBUNIV_CEILING=ceiling)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["catalog", "--json"], ["count", "--named", "K"],
                 ["verify-lemmas", "--json"]):
        proc = subprocess.run([sys.executable, "-m", "subsemi", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
        assert code == 0


BAD_SETTINGS = [
    ({}, ["sigma", "--named", "H5", "--k", "0"], "--k must be at least 1, got 0"),
    ({}, ["sigma", "--named", "H5", "--k", "-2"], "--k must be at least 1, got -2"),
    ({}, ["enumerate", "--n", "3", "--ceiling", "0"],
     "--ceiling must be at least 1, got 0"),
    ({}, ["enumerate", "--n", "3", "--workers", "0"],
     "--workers must be at least 1, got 0"),
    ({}, ["rank", "--n", "3", "--workers", "-1"], "--workers must be at least 1, got -1"),
    ({"SUBUNIV_CEILING": "abc"}, ["enumerate", "--n", "3"],
     "SUBUNIV_CEILING must be an integer of at least 1, got 'abc'"),
    ({"SUBUNIV_CEILING": "0"}, ["enumerate", "--n", "3"],
     "SUBUNIV_CEILING must be an integer of at least 1, got '0'"),
    ({}, ["count", "--named", "C1", "--k", "1024"], "--k must be at most 1023, got 1024"),
    ({}, ["sigma", "--named", "H5", "--k", "2000", "--json"],
     "--k must be at most 1023, got 2000"),
    ({}, ["rank", "--n", "18", "--ceiling", "18"],
     "counted enumeration limited to n <= 17, got 18"),
]


def test_largest_k_prints_its_float(capsys):
    # sigma_1023 of the one-element chain is 2^1023, the largest power of two
    # a float holds
    code, out, _ = run(capsys, "count", "--named", "C1", "--k", "1023")
    assert code == 0
    assert json.loads(out)["sigma_decimal"] == 2.0 ** 1023


def test_workers_default_counts_the_usable_cpus(monkeypatch):
    # a process pinned to one CPU (taskset, a container cpuset) gets one
    # worker, however many CPUs the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    args = cli.build_parser().parse_args(["rank", "--n", "3"])
    cli._check_settings(args)
    assert args.workers == 1


def test_workers_default_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    args = cli.build_parser().parse_args(["verify-theorem", "--n", "3"])
    cli._check_settings(args)
    assert args.workers == 3


@pytest.mark.parametrize("env, argv, message", BAD_SETTINGS)
def test_bad_setting_exits_2(capsys, monkeypatch, env, argv, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bad_setting_exits_2_under_O(run_optimized):
    # the range checks are raises, not asserts that -O strips
    _, argv, message = BAD_SETTINGS[2]
    proc = run_optimized(
        f"import sys\nfrom subsemi.cli import main\nsys.exit(main({argv!r}))\n")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_classify(capsys, tmp_path):
    f = tmp_path / "h5.json"
    f.write_text(json.dumps(H5_DOC))
    code, out, _ = run(capsys, "classify", "--input", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["narrows"] == []
    assert data["families"]["H5"]["matched"] is True
    assert data["families"]["K3"]["matched"] is False


def test_verify_theorem_n5_passes(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True


def test_verify_theorem_n6_reports_failure(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--n", "6", "--json")
    assert code == 1
    data = json.loads(out)
    claims = {c["claim"]: c for c in data["claims"]}
    assert claims["ii"]["status"] == "failed"
    assert claims["i"]["status"] == "verified"


@pytest.mark.parametrize("n", [6, 7, 8])
def test_verify_theorem_table_prints_witness_covers(capsys, monkeypatch, enumerated, n):
    # each extra witness line shows the covers of the enumerated structure
    # with that code, and the command enumerates once
    calls = []
    results = []
    real_verify = verifier.verify_theorem

    def shared_run(size, workers=1, counted=False):
        calls.append(size)
        return enumerated(size, counted=counted)

    def recorded(*args, **kwargs):
        results.append(real_verify(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(verifier, "enumerate_semilattices", shared_run)
    monkeypatch.setattr(enumeration, "enumerate_semilattices", shared_run)
    monkeypatch.setattr(verifier, "verify_theorem", recorded)
    code, out, _ = run(capsys, "verify-theorem", "--n", str(n), "--workers", "1")
    assert code == 1 and calls == [n]
    by_code = dict(zip(enumerated(n).codes, enumerated(n).structures))
    expected = []
    for claim in results[0].claims:
        for hex_code in claim.extra_witnesses:
            sl = by_code[bytes.fromhex(hex_code)]
            expected.append(
                f"    extra witness {hex_code[:16]}... covers={list(sl.covers)}")
    assert expected
    assert [line for line in out.splitlines() if "extra witness" in line] == expected


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    by_id = {e["location"]: e for e in data["entries"]}
    assert by_id["catalog:U1"]["classification"] == "rounding"
    assert by_id["catalog:H"]["classification"] == "contradiction"


def test_export_dot_named(capsys):
    code, out, _ = run(capsys, "export-dot", "K3")
    assert code == 0
    assert out.startswith('digraph "K3"')


def test_export_dot_unknown(capsys):
    for argv in (["export-dot", "NOPE"], ["count", "--named", "NOPE"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: unknown catalog id 'NOPE'\n"


@pytest.mark.parametrize("argv", [
    ["count", "--named", "C0"],
    ["sigma", "--named", "C0"],
    ["classify", "--named", "C0"],
    ["export-dot", "C0"],
])
def test_empty_chain_id_is_unknown(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: unknown catalog id 'C0'\n"


# the commands that take a catalog id, each without the id
NAMED_COMMANDS = [["count", "--named"], ["sigma", "--named"], ["classify", "--named"],
                  ["export-dot"]]


@pytest.mark.parametrize("command", NAMED_COMMANDS)
def test_zero_padded_chain_id_is_unknown(capsys, command):
    code, out, err = run(capsys, *command, "C05")
    assert (code, out) == (2, "")
    assert err == "error: unknown catalog id 'C05'\n"


@pytest.mark.parametrize("command", NAMED_COMMANDS)
def test_overlong_chain_id_exits_2_before_building(capsys, monkeypatch, command):
    # a chain longer than any count allows is refused by its id alone
    def no_chain(m):
        raise AssertionError(f"chain({m}) built")

    monkeypatch.setattr(catalog, "chain", no_chain)
    for m in (BRUTE_MAX_N + 1, 2000):
        code, out, err = run(capsys, *command, f"C{m}")
        assert (code, out) == (2, "")
        assert err == f"error: brute force limited to n <= {BRUTE_MAX_N}, got {m}\n"


def test_export_dot_to_file(capsys, tmp_path):
    target = tmp_path / "h5.dot"
    code, out, _ = run(capsys, "export-dot", "H5", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith('digraph "H5"')


@pytest.mark.parametrize("argv, target", [
    (["enumerate", "--n", "9", "--workers", "1", "--out"], "a_file"),
    (["export-dot", "H5", "--out"], "."),
    (["export-dot", "H5", "--out"], "missing/h5.dot"),
])
def test_unwritable_out_exits_2(capsys, monkeypatch, tmp_path, argv, target):
    def refuse(*args, **kwargs):
        raise AssertionError("generation started before --out was checked")

    monkeypatch.setattr(enumeration, "enumerate_semilattices", refuse)
    (tmp_path / "a_file").write_text("")
    path = tmp_path / target
    reason = {"a_file": "File exists", ".": "Is a directory",
              "missing/h5.dot": "No such file or directory"}[target]
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {path}: {reason}\n"


def test_cli_json_deterministic(capsys):
    _, a, _ = run(capsys, "rank", "--n", "6", "--json")
    _, b, _ = run(capsys, "rank", "--n", "6", "--json")
    assert a == b


def test_enumerate_as_lattice_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "5", "--as-lattice-count")
    assert code == 0
    data = json.loads(out)
    assert data["lattices_on_n_plus_1"] == data["count"] == 15


def test_catalog_csv(capsys):
    import csv as csvmod
    import io
    code, out, _ = run(capsys, "catalog", "--csv")
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[0][0] == "id"
    by_id = {r[0]: r for r in rows[1:]}
    assert by_id["K0"][3] == "61/4"


def test_rank_csv(capsys):
    import csv as csvmod
    import io
    code, out, _ = run(capsys, "rank", "--n", "5", "--csv")
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert rows[1] == ["1", "32", "1"]


def test_classify_rejects_partial_algebra(capsys):
    code, _, err = run(capsys, "classify", "--named", "U7")
    assert code == 2
    assert "total semilattice" in err
