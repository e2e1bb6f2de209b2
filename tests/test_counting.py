from fractions import Fraction

import pytest

from subsemi import counting
from subsemi.catalog import build_named, catalog_ids, chain
from subsemi.counting import (
    _count,
    _propagate,
    PartialBinaryAlgebra,
    count_subuniverses_bruteforce,
    count_subuniverses_split,
    enumerate_subuniverses,
    sigma,
    sigma_trace_bound,
    sigma_value,
    split_parts,
)
from subsemi.errors import SizeLimitError


def mask(*els):
    m = 0
    for e in els:
        m |= 1 << e
    return m


def test_is_subuniverse_basics():
    # a subuniverse is a join-closed subset: JoinSemilattice.is_closed
    k3 = build_named("K3").structure          # a b c 1 -> 0 1 2 3
    assert k3.is_closed(0)                    # empty set
    assert not k3.is_closed(mask(0, 1))
    assert k3.is_closed(mask(0, 1, 3))
    h5 = build_named("H5").structure          # a b c d 1 -> 0 1 2 3 4
    assert h5.is_closed(mask(0, 1, 2, 4))
    assert not h5.is_closed(mask(2, 3))       # c v d = 1 is missing


def test_bruteforce_counts():
    assert count_subuniverses_bruteforce(build_named("H5").structure).count == 25
    assert count_subuniverses_bruteforce(build_named("H3_B4").structure).count == 49
    for m in (1, 2, 3, 7, 12):
        assert count_subuniverses_bruteforce(chain(m)).count == 2 ** m


def test_sigma_value_is_exact():
    # the shift-built Fraction against the power of two it stands for
    for n in range(1, 12):
        for k in range(12):
            for count in (1, 2, 3, 25, 97, 3 << n, (1 << n) - 1, 1 << n):
                value = sigma_value(count, n, k)
                assert isinstance(value, Fraction)
                assert value == Fraction(count) * Fraction(2) ** (k - n)


def test_report_sigma_is_the_scaled_count(all_structures):
    # both counters' reports, on both sides of k = n
    for n in range(1, 7):
        for sl in all_structures[n]:
            for k in range(1, 12):
                for report in (count_subuniverses_bruteforce(sl, k),
                               count_subuniverses_split(sl, 0, k)):
                    assert (report.k, report.n) == (k, n)
                    assert report.sigma == Fraction(report.count) * Fraction(2) ** (k - n)


def test_bruteforce_size_limit():
    with pytest.raises(SizeLimitError):
        count_subuniverses_bruteforce(PartialBinaryAlgebra(26, []))


def test_split_count_has_no_size_limit(broom, broom_count):
    # the split counter's cost follows its clauses, not 2^n
    assert count_subuniverses_split(broom(30), 0).count == broom_count(30)


def test_split_matches_reference_decompositions():
    h5 = build_named("H5").structure
    parts = split_parts(h5, 3)                # pivot d
    assert parts == (16, 2, 7)
    assert sum(parts) == 25
    k3 = build_named("K3").structure
    assert split_parts(k3, 0) == (7, 2, 3)    # pivot a
    assert count_subuniverses_split(k3, 0).count == 12


def test_split_parts_match_listing(all_structures):
    # each part counted over the listed subuniverses, for every non-top pivot
    for n, structures in all_structures.items():
        for sl in structures:
            subs = enumerate_subuniverses(sl)
            for pivot in range(n):
                if pivot == sl.top:
                    continue
                p = 1 << pivot
                rest = ((1 << n) - 1) & ~p & ~(1 << sl.top)
                containing = [s for s in subs if s & p]
                meeting = sum(1 for s in containing if s & rest)
                want = (len(subs) - len(containing), len(containing) - meeting, meeting)
                assert split_parts(sl, pivot) == want


def test_split_equals_bruteforce_every_pivot(all_structures):
    for n, structures in all_structures.items():
        for sl in structures:
            want = count_subuniverses_bruteforce(sl).count
            for pivot in range(n):
                assert count_subuniverses_split(sl, pivot).count == want


@pytest.mark.parametrize("n", [8, 9])
def test_split_equals_bruteforce_every_pivot_large(n, enumerated):
    for sl in enumerated(n).structures:
        want = count_subuniverses_bruteforce(sl).count
        for pivot in range(n):
            assert count_subuniverses_split(sl, pivot).count == want


def test_split_equals_bruteforce_random_partial(rng, random_partial_algebra):
    for _ in range(200):
        n = rng.randint(1, 10)
        pa = random_partial_algebra(rng, n)
        want = count_subuniverses_bruteforce(pa).count
        pivot = rng.randrange(n)
        assert count_subuniverses_split(pa, pivot).count == want


def test_propagate_bans_the_last_member_of_a_forbidden_set():
    # 0 v 1 = 2 with 2 out leaves {0, 1} forbidden; with 0 in, 1 must stay out
    assert _propagate([(mask(0, 1), 0)], mask(0), 0) == ([], mask(0), mask(1))
    # the ban takes 2 v 3 = 1's consequent out in the next pass, which bans 3
    clauses = [(mask(0, 1), 0), (mask(2, 3), mask(1))]
    assert _propagate(clauses, mask(0, 2), 0) == ([], mask(0, 2), mask(1, 3))
    # a member to ban that is already in, or is forced in, is a contradiction
    assert _propagate([(mask(0, 1), 0)], mask(0, 1), 0) is None
    assert _propagate([(mask(0, 1), 0), (mask(2, 3), mask(1))], mask(0, 2, 3), 0) is None
    # two undecided members are not a ban
    assert _propagate([(mask(0, 1, 2), 0)], mask(0), 0) == (
        [(mask(1, 2), 0)], mask(0), 0)


def test_count_matches_listing_under_masks(rng, random_partial_algebra, monkeypatch):
    seen = set()

    def watched(clauses, in_mask, out_mask):
        state = _propagate(clauses, in_mask, out_mask)
        if state is not None:
            left, new_in, new_out = state
            seen.update(path for path, hit in (
                ("forced in", new_in != in_mask),
                ("banned out", new_out != out_mask),
                ("leaf with consequent", len(left) == 1 and left[0][1]),
                ("leaf without consequent", len(left) == 1 and not left[0][1]),
            ) if hit)
        return state

    monkeypatch.setattr(counting, "_propagate", watched)
    for _ in range(300):
        n = rng.randint(1, 10)
        pa = random_partial_algebra(rng, n)
        in_mask = rng.randrange(1 << n)
        out_mask = rng.randrange(1 << n) & ~in_mask
        want = sum(1 for s in enumerate_subuniverses(pa)
                   if s & in_mask == in_mask and not s & out_mask)
        assert _count(n, pa.closure_constraints(), in_mask, out_mask) == want
    assert seen == {"forced in", "banned out", "leaf with consequent",
                    "leaf without consequent"}


def test_split_tree_stays_pruned(all_structures, monkeypatch):
    # case-split nodes over every n = 7 structure: 2,904 with forced-out
    # propagation and one-clause leaves, 6,974 without them
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _propagate(*args)

    monkeypatch.setattr(counting, "_propagate", counted)
    for sl in all_structures[7]:
        count_subuniverses_split(sl, 0)
    assert calls <= 2904


def test_sigma_values():
    assert sigma(chain(5)) == 32
    assert sigma(build_named("K3").structure) == 24
    k0 = build_named("K0").structure
    assert sigma(k0) == Fraction(61, 4)


def test_sigma_exactness(all_structures):
    for n, structures in all_structures.items():
        for sl in structures[:25]:
            for k in (1, 5, 8):
                s = sigma(sl, k)
                total = s * Fraction(2) ** (n - k)
                assert total.denominator == 1
                assert total == count_subuniverses_bruteforce(sl).count


def test_enumerate_subuniverses():
    single = chain(1)
    assert enumerate_subuniverses(single) == [0, 1]
    for id_, count in (("B4", 14), ("U1", 343)):
        structure = build_named(id_).structure
        assert len(enumerate_subuniverses(structure)) == count
        assert count_subuniverses_bruteforce(structure).count == count


def test_counts_never_below_closure_minimum(all_structures):
    # empty set and full set are closed in every total semilattice
    for structures in all_structures.values():
        for sl in structures[:20]:
            subs = enumerate_subuniverses(sl)
            assert subs[0] == 0 and subs[-1] == (1 << sl.n) - 1
            assert len(subs) >= 2


def test_intersection_closure(all_structures):
    for n, structures in all_structures.items():
        if n > 7:
            continue
        for sl in structures:
            subs = set(enumerate_subuniverses(sl))
            listed = sorted(subs)
            for a in listed:
                for b in listed:
                    assert a & b in subs


def test_trace_bound_edges():
    h5 = build_named("H5").structure
    assert sigma_trace_bound(h5, 0) == 32                      # only trace is empty
    assert sigma_trace_bound(h5, (1 << 5) - 1) == sigma(h5)    # full trace is exact
    assert sigma_trace_bound(h5, mask(0, 1, 2, 3)) >= sigma(h5)


@pytest.mark.parametrize("fn, arg", [(sigma_trace_bound, -1),
                                     (sigma_trace_bound, 0b1111 | 1 << 10),
                                     (sigma_trace_bound, 1 << 4),
                                     (split_parts, -1), (split_parts, 4)])
def test_bits_outside_the_structure_raise(fn, arg):
    # K3 has four elements and sigma_5 = 24; a bit at 4 or above, or a
    # negative mask, names no element. The trace bound once counted such a
    # bit in |H|, and 0b1111 | 1 << 10 gave 12, below sigma
    k3 = build_named("K3").structure
    with pytest.raises(ValueError, match="out of range"):
        fn(k3, arg)


def test_trace_bound_random(rng):
    from subsemi.enumeration import random_semilattice
    for _ in range(100):
        n = rng.randint(2, 8)
        sl = random_semilattice(rng, n)
        h = rng.randrange(1 << n)
        assert sigma(sl) <= sigma_trace_bound(sl, h)


def _listed_trace_bound(subs, h):
    """The bound by its definition: the distinct traces over the listed Sub(L)."""
    return sigma_value(len({s & h for s in subs}), h.bit_count())


def test_trace_bound_matches_listing(all_structures, rng):
    # every H for n <= 6, 16 seeded H for n = 7 and for each catalog structure
    for n, structures in all_structures.items():
        for sl in structures:
            subs = enumerate_subuniverses(sl)
            hs = range(1 << n) if n <= 6 else [rng.randrange(1 << n) for _ in range(16)]
            for h in hs:
                assert sigma_trace_bound(sl, h) == _listed_trace_bound(subs, h)
    for id_ in catalog_ids():
        s = build_named(id_).structure
        subs = enumerate_subuniverses(s)
        for h in [0, (1 << s.n) - 1] + [rng.randrange(1 << s.n) for _ in range(16)]:
            assert sigma_trace_bound(s, h) == _listed_trace_bound(subs, h)


def test_trace_bound_matches_listing_on_partial_algebras(rng, random_partial_algebra):
    empty = dropped = 0
    for _ in range(500):
        n = rng.randint(1, 10)
        pa = random_partial_algebra(rng, n)
        empty += not pa.defined_joins
        dropped += any(k in (i, j) for i, j, k in pa.defined_joins)
        subs = enumerate_subuniverses(pa)
        for h in (rng.randrange(1 << n), rng.randrange(1 << n)):
            assert sigma_trace_bound(pa, h) == _listed_trace_bound(subs, h)
    assert empty and dropped                  # both edge shapes were drawn


def test_trace_bound_has_no_size_limit(broom):
    # H = {chain 0..7, top, pendant} of broom(30) has the traces of broom(10):
    # 3 * 2^8 + 1 of them over |H| = 10
    b = broom(30)
    with pytest.raises(SizeLimitError):
        enumerate_subuniverses(b)
    h = mask(*range(8), b.top, 29)
    assert b.top == 28
    assert sigma_trace_bound(b, h) == Fraction(769, 32)


def test_monotonicity_random(rng):
    from subsemi.enumeration import random_semilattice
    for _ in range(100):
        n = rng.randint(2, 8)
        sl = random_semilattice(rng, n)
        closed = [s for s in enumerate_subuniverses(sl) if s]
        sub = sl.induced(rng.choice(closed))
        assert sigma(sl) <= sigma(sub)


def test_partial_algebra_validation():
    with pytest.raises(ValueError):
        PartialBinaryAlgebra(3, [(0, 1, 2), (1, 0, 2)])   # duplicate pair
    with pytest.raises(ValueError):
        PartialBinaryAlgebra(3, [(0, 0, 1)])              # not a pair
    with pytest.raises(ValueError):
        PartialBinaryAlgebra(3, [(0, 1, 3)])              # out of range
    pa = PartialBinaryAlgebra(3, [(1, 0, 2)])
    assert pa.defined_joins == ((0, 1, 2),)


def test_subset_iteration_is_ascending():
    u7 = build_named("U7").structure
    subs = enumerate_subuniverses(u7)
    assert subs == sorted(subs)


def test_empty_structures_rejected():
    with pytest.raises(ValueError):
        PartialBinaryAlgebra(0, [])
    from subsemi.order import Poset
    with pytest.raises(ValueError):
        Poset(())


def test_closed_forms_at_medium_size(broom, broom_count):
    # products of m independent pair->result triples: (2^3 - 1)^m closed sets;
    # m = 8 (n = 24) sits at the brute-force limit
    for m in (5, 8):
        pa = PartialBinaryAlgebra(3 * m, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(m)])
        assert count_subuniverses_bruteforce(pa).count == 7 ** m
        assert count_subuniverses_split(pa, 7).count == 7 ** m
    # broom(15): a 14-chain plus one pendant under the top
    expected = broom_count(15)
    assert count_subuniverses_bruteforce(broom(15)).count == expected
    assert count_subuniverses_split(broom(15), 14).count == expected
