import random
import time

import pytest

from subsemi.catalog import build_named, catalog_ids, chain, glued_sum
from subsemi.enumeration import _upclosed_extensions
from subsemi.errors import JoinMissingError, PosetAxiomError, SizeLimitError
from subsemi.order import (
    Poset,
    _refined_invariants,
    are_isomorphic,
    canonical_form,
    partial_meet,
    poset_from_code,
    to_semilattice,
    validate_poset,
)

T, F = True, False


def test_validate_singleton():
    p = validate_poset([[T]])
    assert p.n == 1 and p.le(0, 0)


def test_validate_two_chain():
    p = validate_poset([[T, T], [F, T]])
    assert p.le(0, 1) and not p.le(1, 0)


def test_validate_reports_antisymmetry_witness():
    with pytest.raises(PosetAxiomError) as exc:
        validate_poset([[T, T], [T, T]])
    assert exc.value.axiom == "antisymmetry"
    assert set(exc.value.witness) == {0, 1}


def test_validate_reports_reflexivity_and_transitivity():
    with pytest.raises(PosetAxiomError) as exc:
        validate_poset([[F]])
    assert exc.value.axiom == "reflexivity"
    with pytest.raises(PosetAxiomError) as exc:
        validate_poset([
            [T, T, F],
            [F, T, T],
            [F, F, T],
        ])
    assert exc.value.axiom == "transitivity"
    assert exc.value.witness == (0, 1, 2)


def test_validate_rejects_empty_and_nonsquare():
    with pytest.raises(PosetAxiomError):
        validate_poset([])
    with pytest.raises(PosetAxiomError):
        validate_poset([[T, T], [F]])


def test_to_semilattice_V_shape():
    p = Poset.from_covers(3, [(0, 2), (1, 2)])
    sl = to_semilattice(p)
    assert sl.join[0][1] == 2
    assert sl.top == 2


def test_to_semilattice_antichain_fails():
    with pytest.raises(JoinMissingError) as exc:
        to_semilattice(Poset((1, 2)))
    assert exc.value.pair == (0, 1)


def test_to_semilattice_diamond():
    b4 = build_named("B4").structure
    atoms = [i for i in range(4) if i not in (b4.top,)
             and b4.down[i].bit_count() == 2]
    assert b4.join[atoms[0]][atoms[1]] == b4.top


def test_covers_chain_and_diamond():
    assert len(chain(3).covers) == 2
    assert len(build_named("B4").structure.covers) == 4


def test_covers_H5():
    h5 = build_named("H5").structure
    # labels a b c d 1 map to indices 0 1 2 3 4
    assert set(h5.covers) == {(0, 1), (1, 2), (2, 4), (3, 4)}


def test_covers_le_round_trip(all_structures):
    for n, structures in all_structures.items():
        for sl in structures[:40]:
            rebuilt = Poset.from_covers(n, sl.covers)
            assert rebuilt.up == sl.up


def test_join_table_consistent_with_order(all_structures):
    for n, structures in all_structures.items():
        for sl in structures:
            for i in range(n):
                for j in range(n):
                    assert (sl.join[i][j] == j) == sl.le(i, j)


def test_join_associative_spot_check(all_structures):
    for n, structures in all_structures.items():
        if n > 6:
            continue
        for sl in structures:
            j = sl.join
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert j[j[a][b]][c] == j[a][j[b][c]]


def test_canonical_relabeling_invariance(all_structures):
    rng = random.Random(7)
    pairs = 0
    pool = [sl for n in (4, 5, 6) for sl in all_structures[n]]
    while pairs < 1000:
        sl = rng.choice(pool)
        perm = list(range(sl.n))
        rng.shuffle(perm)
        relabeled = sl.relabel(perm)
        assert canonical_form(relabeled).code == canonical_form(sl).code
        pairs += 1


def test_canonical_idempotent(all_structures):
    for sl in all_structures[5]:
        cf = canonical_form(sl)
        again = canonical_form(sl.relabel(cf.perm))
        assert again.code == cf.code
        assert again.perm == tuple(range(sl.n))
        # code encodes the relabeled poset, itself in canonical form
        decoded = poset_from_code(cf.code)
        assert decoded == sl.relabel(cf.perm)
        assert canonical_form(decoded).code == cf.code


def _generated_candidates(enumerated):
    """Every candidate generation meets at 2 <= n <= 7, filtered or not."""
    posets = []
    for n in range(2, 8):
        for parent in enumerated(n - 1).structures:
            up = parent.up
            posets += [Poset(up + (u | 1 << (n - 1),)) for u in _upclosed_extensions(up)]
    return posets


def test_code_decodes_to_the_canonical_poset(enumerated):
    # every generated candidate, plus K_13 (an antichain of 13 below a top)
    # and a 40-chain, whose rows are longer than a byte
    posets = _generated_candidates(enumerated)
    posets.append(Poset(tuple((1 << i) | (1 << 13) for i in range(13)) + (1 << 13,)))
    posets.append(chain(40))
    for p in posets:
        cf = canonical_form(p)
        assert poset_from_code(cf.code) == p.relabel(cf.perm)


def _reference_invariants(p):
    """Reference for _refined_invariants written directly from its definition:
    covers from Poset.covers, and each element scans all n elements in each
    refinement round."""
    n = p.n
    dn = p.down
    up = p.up
    cover_up = [0] * n
    cover_dn = [0] * n
    for i, j in p.covers:
        cover_up[i] += 1
        cover_dn[j] += 1
    inv = [
        (bin(up[i]).count("1"), bin(dn[i]).count("1"), cover_dn[i], cover_up[i])
        for i in range(n)
    ]
    for _ in range(2):
        nxt = []
        for i in range(n):
            below = sorted(inv[j] for j in range(n) if j != i and dn[i] >> j & 1)
            above = sorted(inv[j] for j in range(n) if j != i and up[i] >> j & 1)
            nxt.append((inv[i], tuple(below), tuple(above)))
        inv = nxt
    return inv


def test_refined_invariants_match_reference(enumerated):
    posets = _generated_candidates(enumerated)
    structures = [build_named(id_).structure for id_ in catalog_ids()]
    # the case table's partial algebras have no order to take invariants of
    posets += [s for s in structures if isinstance(s, Poset)]
    for p in posets:
        assert _refined_invariants(p) == _reference_invariants(p)


def test_canonical_distinguishes():
    c4 = chain(4)
    b4 = build_named("B4").structure
    k3 = build_named("K3").structure
    codes = {canonical_form(x).code for x in (c4, b4, k3)}
    assert len(codes) == 3


def test_canonical_size_limit():
    # the code's header byte holds n, so n <= 255 is the only limit
    assert canonical_form(chain(13)).code[0] == 13
    with pytest.raises(SizeLimitError, match="n <= 255"):
        canonical_form(Poset(tuple(1 << i for i in range(256))))


def test_canonical_form_of_twins_is_fast():
    # K_m, an m-antichain below a top, has m! automorphisms; placing twins
    # in index order keeps the search from trying them all
    rng = random.Random(13)
    start = time.perf_counter()
    for m in range(2, 14):
        star = Poset(tuple((1 << i) | (1 << m) for i in range(m)) + (1 << m,))
        perm = list(range(m + 1))
        rng.shuffle(perm)
        assert canonical_form(star.relabel(perm)).code == canonical_form(star).code
    assert time.perf_counter() - start < 2.0


def test_are_isomorphic_examples():
    h5 = build_named("H5").structure
    relab = h5.relabel([4, 2, 0, 3, 1])
    assert are_isomorphic(h5, relab)
    assert not are_isomorphic(h5, chain(5))
    k3 = build_named("K3").structure
    assert are_isomorphic(glued_sum(k3, chain(1)), k3)


def test_partial_meet():
    c3 = chain(3)
    assert partial_meet(c3, 0, 2) == 0
    b4 = build_named("B4").structure
    assert partial_meet(b4, 1, 2) == 0
    h5 = build_named("H5").structure
    assert partial_meet(h5, 0, 3) is None


def test_rejects_size_zero():
    with pytest.raises(Exception):
        chain(0)
    with pytest.raises(PosetAxiomError):
        validate_poset([])


def _isomorphic_bruteforce(a, b):
    """Oracle: try every permutation directly."""
    from itertools import permutations
    if a.n != b.n:
        return False
    for perm in permutations(range(a.n)):
        if a.relabel(list(perm)).up == b.up:
            return True
    return False


def test_canonical_codes_match_bruteforce_isomorphism(all_structures):
    # canonical-code equality must agree with the permutation oracle on
    # random same-size pairs, including many non-isomorphic ones
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 6)
        pool = all_structures[n]
        a = rng.choice(pool)
        b = rng.choice(pool)
        if rng.random() < 0.4:
            perm = list(range(n))
            rng.shuffle(perm)
            b = a.relabel(perm)
        expected = _isomorphic_bruteforce(a, b)
        assert are_isomorphic(a, b) == expected


def test_induced_rejects_unclosed_mask_under_O(run_optimized):
    # 0 < a, b < x < 1: {0, a, b, 1} misses a v b = x, so it is no subuniverse
    proc = run_optimized(
        "from subsemi.order import Poset, to_semilattice\n"
        "sl = to_semilattice(Poset.from_covers(\n"
        "    5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]))\n"
        "sl.induced(0b10111)\n")
    assert proc.returncode != 0
    assert "ValueError: subset must be nonempty and join-closed" in proc.stderr
