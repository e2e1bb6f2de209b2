import hashlib
import random
import time

import pytest

from _oracles import are_isomorphic, relabel

from subsemi.catalog import build_named, catalog_ids, chain, glued_sum
from subsemi.enumeration import _upclosed_extensions, random_semilattice
from subsemi.errors import JoinMissingError, PosetAxiomError, SizeLimitError
from subsemi.order import (
    Poset,
    _refined_invariants,
    _search,
    canonical_form,
    poset_from_code,
    to_semilattice,
)


def test_validate_reports_antisymmetry_witness():
    # Poset.from_covers is where the order's axioms are checked
    with pytest.raises(PosetAxiomError) as exc:
        Poset.from_covers(2, [(0, 1), (1, 0)])
    assert exc.value.axiom == "antisymmetry"
    assert set(exc.value.witness) == {0, 1}


def test_antisymmetry_witness_is_the_least_pair():
    # the cycle 1 < 3 < 2 < 1 is found on a cover, and the witness is still
    # the least i, then the least j, over all pairs
    with pytest.raises(PosetAxiomError, match=r"antisymmetry violated at \(1, 2\)"):
        Poset.from_covers(5, [(0, 4), (3, 2), (2, 1), (1, 3)])


def _join(sl):
    """The whole join operation of sl, from its nontrivial joins and its order."""
    listed = {(i, j): k for i, j, k in sl.nontrivial_joins}

    def join(a, b):
        if sl.le(a, b):
            return b
        if sl.le(b, a):
            return a
        return listed[min(a, b), max(a, b)]
    return join


def test_to_semilattice_V_shape():
    p = Poset.from_covers(3, [(0, 2), (1, 2)])
    sl = to_semilattice(p)
    assert sl.nontrivial_joins == ((0, 1, 2),)
    assert sl.top == 2


def test_to_semilattice_antichain_fails():
    with pytest.raises(JoinMissingError) as exc:
        to_semilattice(Poset((1, 2)))
    assert exc.value.pair == (0, 1)


def test_to_semilattice_diamond():
    b4 = build_named("B4").structure
    atoms = [i for i in range(4) if i not in (b4.top,)
             and b4.down[i].bit_count() == 2]
    assert b4.nontrivial_joins == ((atoms[0], atoms[1], b4.top),)


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
    # the listed pairs are exactly the incomparable pairs i < j, in order,
    # and each listed k is their least upper bound
    for n, structures in all_structures.items():
        for sl in structures:
            incomparable = [(i, j) for i in range(n) for j in range(i + 1, n)
                            if not sl.le(i, j) and not sl.le(j, i)]
            assert [(i, j) for i, j, _ in sl.nontrivial_joins] == incomparable
            for i, j, k in sl.nontrivial_joins:
                assert sl.le(i, k) and sl.le(j, k)
                for u in range(n):
                    if sl.le(i, u) and sl.le(j, u):
                        assert sl.le(k, u)


def test_join_associative_spot_check(all_structures):
    for n, structures in all_structures.items():
        if n > 6:
            continue
        for sl in structures:
            j = _join(sl)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert j(j(a, b), c) == j(a, j(b, c))


def test_canonical_relabeling_invariance(all_structures):
    rng = random.Random(7)
    pairs = 0
    pool = [sl for n in (4, 5, 6) for sl in all_structures[n]]
    while pairs < 1000:
        sl = rng.choice(pool)
        perm = list(range(sl.n))
        rng.shuffle(perm)
        relabeled = relabel(sl, perm)
        assert canonical_form(relabeled).code == canonical_form(sl).code
        pairs += 1


def test_canonical_idempotent(all_structures):
    for sl in all_structures[5]:
        cf = canonical_form(sl)
        again = canonical_form(relabel(sl, cf.perm))
        assert again.code == cf.code
        assert again.perm == tuple(range(sl.n))
        # code encodes the relabeled poset, itself in canonical form
        decoded = poset_from_code(cf.code)
        assert decoded == relabel(sl, cf.perm)
        assert canonical_form(decoded).code == cf.code


def _generated_candidates(enumerated):
    """Every candidate generation meets at 2 <= n <= 8, filtered or not; from
    n = 8 on, some need a second refinement round, and some a search after
    a round that splits."""
    posets = []
    for n in range(2, 9):
        for parent in enumerated(n - 1).structures:
            up = parent.up
            posets += [Poset(up + (u | 1 << (n - 1),)) for u in _upclosed_extensions(up)]
    return posets


def test_code_decodes_to_the_canonical_poset(enumerated):
    # every generated candidate, plus K_13 (an antichain of 13 below a top)
    # and a 40-chain, whose rows are longer than a byte
    posets = _generated_candidates(enumerated)
    posets.append(_star(13))
    posets.append(chain(40))
    for p in posets:
        cf = canonical_form(p)
        assert poset_from_code(cf.code) == relabel(p, cf.perm)


def _base_invariants(p):
    """Per-element (|up|, |down|, lower covers, upper covers), every count
    read from p.le over all pairs."""
    n = p.n
    strictly = [[i != j and p.le(i, j) for j in range(n)] for i in range(n)]
    covers = [[strictly[i][j] and not any(strictly[i][k] and strictly[k][j] for k in range(n))
               for j in range(n)] for i in range(n)]
    return [(sum(strictly[i]) + 1, sum(row[i] for row in strictly) + 1,
             sum(row[i] for row in covers), sum(covers[i]))
            for i in range(n)]


def _refine(p, inv):
    """One refinement round, each element scanning all n elements."""
    n = p.n
    nxt = []
    for i in range(n):
        below = sorted(inv[j] for j in range(n) if j != i and p.le(j, i))
        above = sorted(inv[j] for j in range(n) if j != i and p.le(i, j))
        nxt.append((inv[i], tuple(below), tuple(above)))
    return nxt


def _reference_invariants(p):
    """Reference for _refined_invariants written directly from its definition:
    at most two refinement rounds, stopping once the vectors are all distinct,
    and dropping a round that splits no class."""
    inv = _base_invariants(p)
    for _ in range(2):
        if len(set(inv)) == p.n:
            break
        nxt = _refine(p, inv)
        if len(set(nxt)) == len(set(inv)):
            break
        inv = nxt
    return inv


def _two_round_invariants(p):
    """The invariants after always two refinement rounds."""
    inv = _base_invariants(p)
    for _ in range(2):
        inv = _refine(p, inv)
    return inv


def _ordered_partition(inv):
    """The elements sorted as canonical_form sorts them, and the class boundaries."""
    order = sorted(range(len(inv)), key=lambda i: (inv[i], i))
    return order, [t for t in range(1, len(order)) if inv[order[t]] != inv[order[t - 1]]]


def _star(m):
    """K_m: an m-antichain below a top."""
    return Poset(tuple((1 << i) | (1 << m) for i in range(m)) + (1 << m,))


def _unequal_neighbours():
    """Elements 1 and 2 below a top 0 share their base vector. 1 covers five
    elements with four below each; 2 covers one minimal element 3 and four
    with five below each. So 2's sorted lower ranks are the smaller, but 1
    holds 5 lower elements of one rank, and rank weights in a base W <= 4
    carry into the next digit and tie the two."""
    covers = [(1, 0), (2, 0), (3, 2)]
    n = 4
    for parent, below in [(1, 4), (2, 5)] * 4 + [(1, 4)]:
        covers += [(n, parent)] + [(n + 1 + k, n) for k in range(below)]
        n += 1 + below
    return Poset.from_covers(n, covers)


def _large_posets():
    """40 seeded random semilattices with 17 to 40 elements, each relabelled
    at random, a 40-chain, K_13 and _unequal_neighbours: past n = 16 the byte
    fields of the base vectors hold n > 16, and the rank weights pass 64
    bits."""
    rng = random.Random(2031)
    posets = []
    for k in range(40):
        sl = random_semilattice(rng, 17 + k % 24)
        perm = list(range(sl.n))
        rng.shuffle(perm)
        posets.append(relabel(sl, perm))
    return posets + [chain(40), _star(13), _unequal_neighbours()]


def _invariant_test_posets(enumerated):
    structures = [build_named(id_).structure for id_ in catalog_ids()]
    # the case table's partial algebras have no order to take invariants of
    return _generated_candidates(enumerated) + [s for s in structures if isinstance(s, Poset)]


def _dense_ranks(inv):
    """Each vector's index among the sorted distinct vectors."""
    distinct = sorted(set(inv))
    return [distinct.index(v) for v in inv]


def _twin_keys(p):
    return [(p.up[e] & ~(1 << e), p.down[e] & ~(1 << e)) for e in range(p.n)]


def test_refined_invariants_match_reference(enumerated):
    searched = refined_large = 0
    for p in _invariant_test_posets(enumerated) + _large_posets():
        base = _base_invariants(p)
        # one byte per field, first field highest
        assert [tuple(b >> s & 255 for s in (24, 16, 8, 0)) for b in p.tables[3]] == base
        ranks, above, twins = _refined_invariants(p)
        reference = _reference_invariants(p)
        assert ranks == _dense_ranks(reference)
        refined_large += p.n > 16 and reference != base
        # the strict up-sets in ascending order pack the code's rows
        assert list(above) == [[j for j in range(p.n) if j != i and p.le(i, j)]
                               for i in range(p.n)]
        # twin keys are returned exactly when some class holds two twin classes
        keys = _twin_keys(p)
        assert twins == (keys if len(set(keys)) > len(set(ranks)) else None)
        searched += twins is not None
    assert searched > 0 and refined_large > 0


def test_child_tables_derive_from_the_parent(enumerated):
    # every extension of every parent with n <= 7, kept by the twin and key
    # tests or not: the tables derived from the parent's are the child's own,
    # and so is its canonical form
    for pn in range(1, 8):
        for parent in enumerated(pn).structures:
            for u in _upclosed_extensions(parent.up):
                child = parent.with_minimal(u)
                walked = Poset(parent.up + (u | 1 << pn,))
                assert child == walked
                assert child.tables == walked.tables
                assert canonical_form(child) == canonical_form(walked)


def test_canonical_perms_digest(enumerated):
    # catalog, the figures and relabel read perms, so perms are pinned as
    # well as codes: every candidate generation meets at n <= 8
    digest = hashlib.sha256()
    candidates = _generated_candidates(enumerated)
    for p in candidates:
        cf = canonical_form(p)
        digest.update(cf.code + bytes(cf.perm))
    assert len(candidates) == 3555
    assert digest.hexdigest() == (
        "e243c8e1d697589bc69d6d018be5b9047bbb233ebb95a363b00b9d3a9592f34d")


def _searched_perm(p):
    """The labelling _search finds for p, run whether or not canonical_form
    skips it, and whether p's twin classes are its invariant classes."""
    inv = _refined_invariants(p)[0]
    order = sorted(range(p.n), key=lambda i: (inv[i], i))
    twins = _twin_keys(p)
    return _search(p.up, order, inv, twins), len(set(twins)) == len(set(inv))


def test_forced_labelling_is_the_searched_one(enumerated):
    # when each invariant class is one twin class, canonical_form skips the
    # search; the search would have found the same labelling
    rng = random.Random(41)
    candidates = _generated_candidates(enumerated)
    posets = list(candidates)
    for _ in range(1000):
        p = rng.choice(candidates)
        perm = list(range(p.n))
        rng.shuffle(perm)
        posets.append(relabel(p, perm))
    forced = 0
    for p in posets:
        perm, twins_are_classes = _searched_perm(p)
        forced += twins_are_classes
        cf = canonical_form(p)
        assert cf.perm == perm
        assert poset_from_code(cf.code) == relabel(p, perm)
    # both paths ran
    assert 0 < forced < len(posets)


def test_early_stop_keeps_the_ordered_partition(enumerated):
    # a round after the partition is discrete or stable moves no element
    # and splits no class, so stopping early leaves canonical_form's input
    stopped = 0
    for p in _invariant_test_posets(enumerated):
        inv = _reference_invariants(p)
        two_rounds = _two_round_invariants(p)
        stopped += inv != two_rounds
        assert _ordered_partition(inv) == _ordered_partition(two_rounds)
    assert stopped > 0


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
        star = _star(m)
        perm = list(range(m + 1))
        rng.shuffle(perm)
        assert canonical_form(relabel(star, perm)).code == canonical_form(star).code
    assert time.perf_counter() - start < 2.0


def test_are_isomorphic_examples():
    h5 = build_named("H5").structure
    relab = relabel(h5, [4, 2, 0, 3, 1])
    assert are_isomorphic(h5, relab)
    assert not are_isomorphic(h5, chain(5))
    k3 = build_named("K3").structure
    assert are_isomorphic(glued_sum(k3, chain(1)), k3)


def test_rejects_size_zero():
    with pytest.raises(Exception):
        chain(0)
    with pytest.raises(ValueError):
        Poset(())


def _isomorphic_bruteforce(a, b):
    """Oracle: try every permutation directly."""
    from itertools import permutations
    if a.n != b.n:
        return False
    for perm in permutations(range(a.n)):
        if relabel(a, list(perm)).up == b.up:
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
            b = relabel(a, perm)
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
