import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from subsemi import analysis, cli, counting, enumeration, order, verifier
from subsemi.catalog import build_named, catalog_ids
from subsemi.order import canonical_form


def test_rank_n5():
    report = verifier.rank(5)
    assert report.values[:5] == (32, 28, 26, 25, 24)
    chain5 = verifier.rank(5).witnesses[32]
    assert len(chain5) == 1
    h5 = build_named("H5").structure
    assert report.witnesses[25] == (canonical_form(h5).code.hex(),)


def test_rank_n6():
    report = verifier.rank(6)
    assert report.values[:6] == (64, 56, 52, 50, 49, 48)
    assert len(report.witnesses[50]) == 2
    assert len(report.witnesses[49]) == 2   # the family member plus the broom
    assert len(report.witnesses[48]) == 3


def test_theorem_n5():
    tv = verifier.verify_theorem(5)
    by_claim = {c.claim: c for c in tv.claims}
    assert by_claim["i"].status == "verified"
    assert by_claim["ii"].status == "size-infeasible"
    assert by_claim["iii"].status == "verified"
    assert "rank adjusted" in by_claim["iii"].notes
    assert tv.all_passed
    assert all(m for _, _, m in tv.top3)


def test_theorem_n6():
    tv = verifier.verify_theorem(6)
    by_claim = {c.claim: c for c in tv.claims}
    assert by_claim["i"].status == "verified"
    assert by_claim["iii"].status == "verified"
    # the 6-element broom (4-chain plus a pendant under the top) also counts 49
    ii = by_claim["ii"]
    assert ii.status == "failed"
    assert ii.value_at_rank
    assert not ii.witnesses_equal_family
    assert len(ii.extra_witnesses) == 1 and not ii.missing_witnesses
    assert not tv.all_passed


def test_theorem_n7_value_intruder(broom_count):
    tv = verifier.verify_theorem(7)
    by_claim = {c.claim: c for c in tv.claims}
    assert by_claim["i"].status == "verified"
    iii = by_claim["iii"]
    assert iii.status == "failed"
    assert not iii.value_at_rank
    assert iii.count_at_rank == broom_count(7) == 97   # 24.25 * 4
    assert iii.witnesses_equal_family        # the value 96 still has family witnesses
    ii = by_claim["ii"]
    assert ii.value_at_rank and len(ii.extra_witnesses) == 3


@pytest.fixture
def shared_runs(enumerated, monkeypatch):
    """Let verifier.rank rank the suite's shared runs instead of generating
    each size again."""
    monkeypatch.setattr(verifier, "enumerate_semilattices",
                        lambda n, workers=1, counted=False: enumerated(n, counted=counted))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_half_value_witness_class(n, half_value_class, shared_runs):
    rep = verifier.rank(n)
    expected = 49 * 2 ** (n - 5) // 2
    assert set(rep.witnesses[expected]) == half_value_class(n)


def test_theorem_n9_at_default_ceiling(half_value_class, shared_runs):
    rep = verifier.rank(9)
    # the broom family values 24 + 2^(5-m) fill in below 24.5
    assert rep.values[:9] == (512, 448, 416, 400, 392, 388, 386, 385, 384)
    assert rep.values.index(384) + 1 == 9
    by_claim = {c.claim: c for c in rep.family_check}
    assert by_claim["i"].status == "verified"
    assert by_claim["ii"].value_at_rank and not by_claim["ii"].witnesses_equal_family
    assert set(rep.witnesses[392]) == half_value_class(9)
    assert not by_claim["iii"].value_at_rank
    # the stated sixth value still carries exactly the claimed family
    from subsemi.analysis import family_codes
    assert set(rep.witnesses[384]) == {c.hex() for c in family_codes("K3", 9)}


def test_theorem_n9_json_bytes(shared_runs, capsys):
    # the audit's whole report, canonical codes included, against the bytes
    # recorded for the benchmark; exit code 1 says a claim is refuted
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference" \
        / "verify_theorem_n9.json"
    assert cli.main(["verify-theorem", "--n", "9", "--json", "--workers", "1"]) == 1
    assert capsys.readouterr().out.encode() == reference.read_bytes()


def test_lemma_entries_classifications():
    report = verifier.verify_lemmas()
    cls = {e.location.split(":")[1]: e.classification for e in report.entries}
    assert cls["H5"] == "exact-match"
    assert cls["K3"] == "exact-match"
    assert cls["H3_B4"] == "exact-match"
    assert cls["K"] == cls["N"] == cls["K0"] == "exact-match"
    assert cls["U1"] == "rounding"
    assert cls["U4"] == cls["U5"] == "rounding"
    assert cls["U17"] == "rounding"
    assert cls["H"] == "contradiction"
    for id_ in ("U2", "U3", "U6", "U7", "U10", "U11", "U12", "U13",
                "U14", "U15", "U16", "U18", "U19"):
        assert cls[id_] == "exact-match", id_


def test_lemma_entries_unique_and_complete():
    report = verifier.verify_lemmas()
    locations = [e.location for e in report.entries]
    assert len(locations) == len(set(locations))
    with_printed = {id_ for id_ in catalog_ids() if build_named(id_).reported_sigma5}
    assert {loc.split(":")[1] for loc in locations} == with_printed


def test_lemma_properties_hold():
    report = verifier.verify_lemmas()
    assert report.all_passed
    props = {p.name: p for p in report.properties}
    assert props["monotonicity (subsemilattice)"].instances >= 100
    assert props["trace bound"].instances >= 100
    assert all(p.violations == 0 for p in report.properties)


def test_exact_computed_value_recorded():
    report = verifier.verify_lemmas()
    by_id = {e.location.split(":")[1]: e for e in report.entries}
    assert by_id["U1"].computed == Fraction(343, 16)
    assert by_id["U17"].computed == Fraction(303, 16)
    assert by_id["H"].computed == 26


def test_context_top3():
    assert verifier.verify_theorem(5).top3 == \
        ((32, 32, True), (28, 28, True), (26, 26, True))
    assert verifier.verify_theorem(6).top3 == \
        ((64, 64, True), (56, 56, True), (52, 52, True))


def test_reports_serialize_deterministically():
    a = json.dumps(verifier.ranking_to_dict(verifier.rank(6)), sort_keys=True)
    b = json.dumps(verifier.ranking_to_dict(verifier.rank(6)), sort_keys=True)
    assert a == b
    la = json.dumps(verifier.lemmas_to_dict(verifier.verify_lemmas()), sort_keys=True)
    lb = json.dumps(verifier.lemmas_to_dict(verifier.verify_lemmas()), sort_keys=True)
    assert la == lb


def test_no_count_in_excluded_interval_n6():
    # between the sixth and fourth claimed values only the fifth may appear
    report = verifier.rank(6)
    inside = [v for v in report.values if 48 < v < 50]
    assert inside == [49]


@pytest.mark.parametrize("workers", [1, 2])
def test_cross_check_guards_pooled_counts(monkeypatch, workers):
    # the split counter is patched where the cross-check calls it, before
    # rank opens its pool, so forked workers count with the wrong split
    # counter too, and their error reaches rank
    real = counting.count_subuniverses_split

    def off_by_one(a, pivot, k=counting.DEFAULT_K):
        return SimpleNamespace(count=real(a, pivot, k).count + 1)

    monkeypatch.setattr(counting, "count_subuniverses_split", off_by_one)
    with pytest.raises(AssertionError, match="counting algorithms disagree"):
        verifier.rank(6, workers=workers)


def test_cross_check_guards_counts_under_O(run_optimized):
    # python -O strips assert statements, not the raise of the cross-check
    proc = run_optimized(
        "from types import SimpleNamespace\n"
        "from subsemi import counting, verifier\n"
        "real = counting.count_subuniverses_split\n"
        "counting.count_subuniverses_split = lambda a, pivot: "
        "SimpleNamespace(count=real(a, pivot).count + 1)\n"
        "try:\n"
        "    verifier.rank(6)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("counting algorithms disagree")


def test_parents_disagreeing_on_a_count_raise(monkeypatch):
    # a structure reached from two parents must get one count from both
    real = enumeration._count_children
    offsets = iter(range(10 ** 6))

    def shifted(parent_up, children):
        offset = next(offsets)
        return {code: count + offset for code, count in real(parent_up, children).items()}

    monkeypatch.setattr(enumeration, "_count_children", shifted)
    with pytest.raises(AssertionError, match="differently"):
        verifier.rank(6)


def test_pooled_rank_builds_no_structure_here(monkeypatch):
    # with workers, level n is generated and counted in the pool; the family
    # members are built before the patch, so any call recorded in this
    # process would build a structure of the run
    for core in analysis.FAMILY_CORES:
        analysis.family_codes(core, 7)
    real = order.to_semilattice
    built = []

    def recorded(p):
        built.append(p.n)
        return real(p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "subsemi" and getattr(module, "to_semilattice", None) is real:
            monkeypatch.setattr(module, "to_semilattice", recorded)
    pooled = verifier.rank(7, workers=2)
    assert built == []
    # the serial run builds each of the 53 parents once, for its closed
    # table, and no structure of level 7
    serial = verifier.rank(7, workers=1)
    assert built == [6] * 53
    assert pooled == serial


# OEIS A006966: lattices on 0, 1, 2, ... elements; adding a bottom makes the
# N-element join-semilattices the lattices on N + 1 elements
A006966 = (1, 1, 1, 1, 2, 5, 15, 53, 222, 1078)


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_witnesses_cover_the_universe(n, shared_runs):
    witnesses = verifier.rank(n).witnesses
    assert sum(map(len, witnesses.values())) == A006966[n + 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_counted_run_matches_decoded_recount(n, enumerated):
    # the decode-and-recount path, both algorithms on the canonical labels,
    # is the oracle for the counts made from each structure's parent
    run = enumerated(n, counted=True)
    assert run.codes == enumerated(n).codes
    assert run.counts == tuple(
        counting.count_subuniverses_checked(order.to_semilattice(order.poset_from_code(c))).count
        for c in run.codes)


@pytest.mark.slow
def test_rank_n10_json_digest(capsys):
    # the count path past the default ceiling, against the digest of the
    # report made by decoding and recounting every structure
    assert cli.main(["rank", "--n", "10", "--json", "--ceiling", "10", "--workers", "2"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "8fd9a586eda7a6e5a987fe2fa629f1eaa7d2bcd643a1f0acfc607cf0260e0111"
