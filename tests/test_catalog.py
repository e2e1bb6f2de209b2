from fractions import Fraction

import pytest

from _oracles import are_isomorphic

from subsemi.catalog import (
    build_named,
    case_partial_algebra,
    catalog_ids,
    chain,
    glued_sum,
    ordinal_sum,
    reconstruct_figure_structures,
)
from subsemi.counting import count_subuniverses_bruteforce, sigma
from subsemi.errors import (
    JoinMissingError,
    NoUniqueBottomError,
    UnknownStructureError,
)
from subsemi.order import Poset, canonical_form, to_semilattice


def test_chain_examples():
    assert count_subuniverses_bruteforce(chain(1)).count == 2
    assert count_subuniverses_bruteforce(chain(3)).count == 8
    assert sigma(chain(5)) == 32
    with pytest.raises(ValueError):
        chain(0)


def test_ordinal_sum_chains_concatenate():
    s = to_semilattice(ordinal_sum(chain(2), chain(3)))
    assert are_isomorphic(s, chain(5))


def test_ordinal_sum_below_H5():
    h5 = build_named("H5").structure
    s = to_semilattice(ordinal_sum(chain(1), h5))
    assert s.n == 6
    assert sigma(s) == 25


def test_ordinal_sum_antichains_have_no_join():
    anti = Poset((1, 2))
    with pytest.raises(JoinMissingError):
        to_semilattice(ordinal_sum(anti, anti))


def test_ordinal_sum_associative_up_to_iso(rng):
    from subsemi.enumeration import random_semilattice
    for _ in range(25):
        p = random_semilattice(rng, rng.randint(1, 4))
        q = random_semilattice(rng, rng.randint(1, 4))
        r = random_semilattice(rng, rng.randint(1, 4))
        left = ordinal_sum(ordinal_sum(p, q), r)
        right = ordinal_sum(p, ordinal_sum(q, r))
        assert are_isomorphic(left, right)


def test_glued_sum_examples(broom):
    k3 = build_named("K3").structure
    g = glued_sum(k3, chain(2))
    assert g.n == 5
    assert sigma(g) == 24
    h3b4 = glued_sum(build_named("H3").structure, build_named("B4").structure)
    assert h3b4 == build_named("H3_B4").structure   # the catalog lists its covers
    assert h3b4.n == 6
    assert sigma(h3b4) == Fraction(49, 2)
    assert are_isomorphic(glued_sum(k3, chain(1)), k3)
    # the index layout: k keeps its indices and l's other elements follow in
    # index order; broom(3)'s top is not its last index, and this diamond's
    # bottom is index 1
    diamond = to_semilattice(Poset.from_covers(4, [(1, 0), (1, 2), (0, 3), (2, 3)]))
    assert h3b4.up == (61, 62, 60, 40, 48, 32)
    assert glued_sum(broom(3), diamond).up == (59, 58, 62, 40, 48, 32)


def test_glued_sum_size_law(rng):
    from subsemi.enumeration import random_semilattice
    for _ in range(25):
        k = random_semilattice(rng, rng.randint(1, 5))
        l = random_semilattice(rng, rng.randint(1, 5))
        if len(l.minimal_elements()) != 1:
            with pytest.raises(NoUniqueBottomError):
                glued_sum(k, l)
            continue
        assert glued_sum(k, l).n == k.n + l.n - 1


def test_glued_sum_requires_unique_bottom():
    v = to_semilattice(Poset.from_covers(3, [(0, 2), (1, 2)]))
    with pytest.raises(NoUniqueBottomError):
        glued_sum(chain(2), v)


EXPECTED_SIGMA5 = {
    "C1": "32", "C5": "32", "B4": "28", "H3": "28",
    "H5": "25", "K3": "24", "H3_B4": "49/2",
    "K": "23", "N": "39/2", "K0": "61/4",
    "U1": "343/16", "U2": "21", "U3": "21", "U4": "175/8", "U5": "175/8",
    "U6": "41/2", "U7": "91/4", "H": "26", "U10": "25",
    "U11": "45/2", "U12": "49/2", "U13": "315/16", "U14": "343/16",
    "U15": "271/16", "U16": "75/4", "U17": "303/16", "U18": "303/16",
    "U19": "343/16",
}


@pytest.mark.parametrize("id_", sorted(EXPECTED_SIGMA5))
def test_named_structure_sigma(id_):
    ns = build_named(id_)
    assert sigma(ns.structure) == Fraction(EXPECTED_SIGMA5[id_])
    assert ns.expected_sigma5 == Fraction(EXPECTED_SIGMA5[id_])


def test_catalog_ids_cover_everything():
    ids = catalog_ids()
    for required in ("B4", "H3", "H5", "K3", "H3_B4", "K", "N", "K0",
                     "U1", "U7", "H", "U10", "U19"):
        assert required in ids
    for id_ in ids:
        assert build_named(id_).structure.n >= 1


def test_named_tolerances():
    for id_ in catalog_ids():
        ns = build_named(id_)
        if not ns.reported_sigma5 or len(ns.reported_sigma5) > 1:
            continue
        assert abs(sigma(ns.structure) - ns.reported_sigma5[0]) <= ns.tolerance


def test_contradictory_H_values_recorded():
    ns = build_named("H")
    assert ns.reported_sigma5 == (Fraction(21), Fraction(23))
    assert sigma(ns.structure) == 26


def test_unknown_id():
    with pytest.raises(UnknownStructureError):
        build_named("Z9")


def test_U7_shape():
    u7 = build_named("U7").structure
    assert u7.n == 7
    assert count_subuniverses_bruteforce(u7).count == 91
    assert sigma(u7) == Fraction(91, 4)


def test_U15_value():
    assert sigma(build_named("U15").structure) == Fraction(271, 16)


def test_U12_matches_H3_B4():
    # same count through the partial reading and the total structure
    assert count_subuniverses_bruteforce(build_named("U12").structure).count == 49
    assert count_subuniverses_bruteforce(build_named("H3_B4").structure).count == 49


def test_inherited_join_rule_only_from_maximal_value():
    # z below a leaf of y: the pair (d, z) must stay undefined while (a, z)
    # inherits the top join; this pins the 303 count
    u17 = build_named("U17").structure
    pairs = {(i, j) for i, j, _ in u17.defined_joins}
    idx = {c: i for i, c in enumerate("abcdefxyz")}
    assert tuple(sorted((idx["a"], idx["z"]))) in pairs
    assert tuple(sorted((idx["d"], idx["z"]))) not in pairs


def test_case_builder_rejects_conflicts():
    # same inherited pair forced to two different values is a hard error
    with pytest.raises(ValueError, match="pair named twice with different values"):
        case_partial_algebra(
            "abxy", ["ya", "yb"],
            [("a", "b", "x"), ("a", "b", "y")],
        )


def test_reconstruction_targets():
    rec = reconstruct_figure_structures()
    assert set(rec) == {"K", "N", "K0"}
    k = rec["K"]
    assert all(m.parts == (14, 2, 7) for m in k)
    assert all(count_subuniverses_bruteforce(m.structure).count == 23 for m in k)
    n = rec["N"]
    assert all(m.parts == (23, 2, 14) for m in n)
    k0 = rec["K0"]
    assert all(m.parts == (39, 2, 20) for m in k0)
    assert all(m.structure.n == 7 for m in k0)
    # K and N are ambiguous, K0 is unique up to isomorphism
    assert len(k) == 2
    assert len(n) == 2
    assert len(k0) == 1


def test_reconstruction_matches_in_code_order():
    # one match per structure, in the generator's ascending code order
    for matches in reconstruct_figure_structures().values():
        codes = [canonical_form(m.structure).code for m in matches]
        assert all(a < b for a, b in zip(codes, codes[1:]))


def test_reconstructed_sigma_values():
    assert sigma(build_named("K").structure) == 23
    assert sigma(build_named("N").structure) == Fraction(39, 2)
    assert sigma(build_named("K0").structure) == Fraction(61, 4)


def test_sigma_invariance_under_chain_attachment():
    from subsemi.analysis import build_family_member
    for core_id in ("H5", "K3", "H3_B4"):
        core = build_named(core_id).structure
        base = sigma(core)
        for total in range(core.n, 11):
            spare = total - core.n + 1
            for c0 in range(spare):
                c1 = spare - c0
                if c1 < 1:
                    continue
                assert sigma(build_family_member(core, c0, c1)) == base
