from subsemi import analysis
from subsemi.analysis import (
    FAMILY_CORES,
    build_family_member,
    family_codes,
    family_members,
    matches_family,
    narrows,
)
from subsemi.catalog import build_named, chain, ordinal_sum
from subsemi.order import are_isomorphic, canonical_form, to_semilattice


def test_narrows_of_chain():
    c5 = chain(5)
    assert narrows(c5) == frozenset({0, 1, 2, 3})


def test_H5_has_no_narrows():
    assert narrows(build_named("H5").structure) == frozenset()


def test_K3_has_no_narrows():
    assert not narrows(build_named("K3").structure)


def test_chain_has_narrows():
    assert narrows(chain(4))


def test_glue_element_is_a_narrows():
    h3b4 = build_named("H3_B4").structure
    ns = narrows(h3b4)
    assert len(ns) == 1
    (glue,) = ns
    # the glue is comparable with everything but is neither top nor bottom
    assert glue != h3b4.top
    assert len(h3b4.minimal_elements()) == 2


def test_bottom_chain_elements_become_narrows():
    h5 = build_named("H5").structure
    s = to_semilattice(ordinal_sum(chain(1), h5))
    assert narrows(s) == frozenset({0})


def test_family_narrows_include_lower_chain():
    member = build_family_member("K3", 3, 2)
    ns = narrows(member)
    assert {0, 1, 2} <= set(ns)   # ordinal summands keep low indices


def test_matches_family_degenerate():
    assert matches_family(build_named("H5").structure, "H5") == (0, 1)


def test_matches_family_constructed_member():
    member = to_semilattice(ordinal_sum(
        chain(2),
        build_family_member("K3", 0, 3),
    ))
    assert matches_family(member, "K3") == (2, 3)


def test_chain_never_matches_core_families():
    c7 = chain(7)
    for core in ("H5", "H3_B4", "K3"):
        assert matches_family(c7, core) is None


def test_family_soundness_round_trip():
    for core in ("H5", "K3", "H3_B4"):
        base = build_named(core).structure
        for c0 in range(0, 4):
            for c1 in range(1, 4):
                member = build_family_member(base, c0, c1)
                c0_len, c1_len = matches_family(member, core)
                assert c0_len + base.n + c1_len - 1 == member.n
                rebuilt = build_family_member(base, c0_len, c1_len)
                assert are_isomorphic(member, rebuilt)


def test_family_codes_count():
    # n=7 H5 family: chain splits (0,3), (1,2), (2,1)
    assert len(family_codes("H5", 7)) == 3
    assert len(family_codes("H3_B4", 6)) == 1


def test_family_members_are_distinct():
    codes = family_codes("K3", 8)
    assert len(codes) == 5
    assert len({c for c in codes}) == len(codes)


def test_matched_member_is_isomorphic_to_reconstruction(all_structures):
    # classification is constructive: a positive answer rebuilds the witness
    h5 = build_named("H5").structure
    for sl in all_structures[6]:
        split = matches_family(sl, "H5")
        if split is not None:
            assert are_isomorphic(sl, build_family_member(h5, *split))
            assert canonical_form(sl).code in family_codes("H5", 6)


def _pairwise_match(sl, core_id):
    """Oracle: the first chain split whose member is isomorphic to sl."""
    core = build_named(core_id).structure
    spare = sl.n - core.n + 1
    for c0 in range(spare):
        c1 = spare - c0
        if are_isomorphic(sl, build_family_member(core, c0, c1)):
            return c0, c1
    return None


def test_matches_family_agrees_with_pairwise_oracle(all_structures):
    for structures in all_structures.values():
        for sl in structures:
            for core_id in FAMILY_CORES:
                assert matches_family(sl, core_id) == _pairwise_match(sl, core_id)


def test_family_built_once_per_core_and_size(monkeypatch, all_structures):
    calls = []
    real = analysis.build_family_member

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "build_family_member", counting)
    family_members.cache_clear()
    for sl in all_structures[6]:
        matches_family(sl, "K3")
    family_codes("K3", 6)
    # K3 has 4 elements, so n = 6 has the 3 chain splits (0, 3), (1, 2), (2, 1)
    assert len(calls) == 3


def test_build_family_member_rejects_bad_lengths_under_O(run_optimized):
    proc = run_optimized(
        "from subsemi.analysis import build_family_member\n"
        "for c0, c1 in ((-1, 1), (0, 0)):\n"
        "    try:\n"
        "        build_family_member('H5', c0, c1)\n"
        "    except ValueError as e:\n"
        "        print(e)\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "chain lengths need c0 >= 0 and c1 >= 1, got (-1, 1)",
        "chain lengths need c0 >= 0 and c1 >= 1, got (0, 0)",
    ]
