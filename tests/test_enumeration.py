from concurrent.futures import ProcessPoolExecutor

import pytest

from subsemi import enumeration
from subsemi.catalog import build_named, chain
from subsemi.enumeration import (
    _upclosed_extensions,
    bruteforce_semilattices,
    enumerate_semilattices,
)
from subsemi.errors import SizeLimitError
from subsemi.order import Poset, are_isomorphic, canonical_form, poset_from_code

KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 15, 6: 53, 7: 222, 8: 1078, 9: 5994}
# every extension of every parent counts as a candidate, whether or not the
# key test lets it reach canonical_form
KNOWN_CANDIDATES = {1: 1, 2: 1, 3: 2, 4: 7, 5: 27, 6: 116, 7: 541, 8: 2861, 9: 16747}


def codes(run):
    return {canonical_form(sl).code for sl in run.structures}


@pytest.mark.parametrize("n", sorted(KNOWN_COUNTS))
def test_counts(n, enumerated):
    run = enumerated(n)
    assert len(run.structures) == KNOWN_COUNTS[n]
    assert run.stats["candidates"] == KNOWN_CANDIDATES[n]
    assert run.stats["duplicates"] == run.stats["candidates"] - len(run.structures)


@pytest.mark.slow
def test_counts_n10_in_parallel():
    # adding a bottom turns the 10-element join-semilattices into the
    # 11-element lattices, and OEIS A006966 gives 37,622 of those
    run = enumerate_semilattices(10, workers=2)
    assert len(run.structures) == 37622
    assert run.stats == {"candidates": 109311, "duplicates": 71689}


def test_key_test_drops_only_duplicates(enumerated):
    # an unfiltered loop: every extension of every parent, canonicalised
    level = {canonical_form(Poset((1,))).code}
    for n in range(2, 9):
        parents = [poset_from_code(code).up for code in level]
        level = {canonical_form(Poset(up + (u | 1 << (n - 1),))).code
                 for up in parents for u in _upclosed_extensions(up)}
        assert enumerated(n).codes == tuple(sorted(level))


def test_structures_are_pairwise_nonisomorphic():
    run = enumerate_semilattices(6)
    assert len(codes(run)) == len(run.structures)


def test_every_structure_is_valid(all_structures):
    for n, structures in all_structures.items():
        for sl in structures:
            assert sl.n == n
            assert sl.up[sl.top] == 1 << sl.top


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_agreement(n):
    assert codes(enumerate_semilattices(n)) == codes(bruteforce_semilattices(n))


def test_bruteforce_small_cases():
    assert len(bruteforce_semilattices(1).structures) == 1
    three = bruteforce_semilattices(3).structures
    assert len(three) == 2
    assert any(are_isomorphic(s, chain(3)) for s in three)
    assert any(are_isomorphic(s, build_named("H3").structure) for s in three)
    five = bruteforce_semilattices(5).structures
    h5 = build_named("H5").structure
    assert any(are_isomorphic(s, h5) for s in five)


def test_bruteforce_limit():
    with pytest.raises(SizeLimitError):
        bruteforce_semilattices(6)


def test_two_element_universe():
    run = enumerate_semilattices(2)
    assert len(run.structures) == 1
    assert are_isomorphic(run.structures[0], chain(2))


def test_n4_contains_expected_shapes():
    four = enumerate_semilattices(4).structures
    for id_ in ("K3", "B4"):
        target = build_named(id_).structure
        assert any(are_isomorphic(s, target) for s in four)
    assert any(are_isomorphic(s, chain(4)) for s in four)


def test_catalog_totals_appear(all_structures):
    for id_ in ("H3", "B4", "K3", "H5", "H3_B4", "K", "N", "K0"):
        target = build_named(id_).structure
        assert any(are_isomorphic(s, target) for s in all_structures[target.n])


def test_deleting_minimal_elements_keeps_semilattice(all_structures):
    for n, structures in all_structures.items():
        if n < 2:
            continue
        for sl in structures:
            for v in sl.minimal_elements():
                rest = sl.delete(v)
                assert rest is not None and rest.n == n - 1


def test_worker_determinism(monkeypatch):
    pools = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", CountedPool)
    parallel = enumerate_semilattices(6, workers=2)
    assert len(pools) == 1   # one for every level of the run
    serial = enumerate_semilattices(6)
    assert len(pools) == 1
    assert parallel.codes == serial.codes
    assert parallel.stats == serial.stats
    assert [s.up for s in parallel.structures] == \
        [s.up for s in serial.structures]


def test_output_order_is_sorted():
    runs = [enumerate_semilattices(n) for n in range(1, 7)]
    runs += [bruteforce_semilattices(n) for n in range(1, 6)]
    for run in runs:
        assert len(run.codes) == len(run.structures)
        assert all(a < b for a, b in zip(run.codes, run.codes[1:]))
        for sl, code in zip(run.structures, run.codes):
            assert code == canonical_form(sl).code
