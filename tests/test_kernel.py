import random

import pytest

import _pycount

from subsemi import kernel
from subsemi.catalog import build_named, catalog_ids, chain
from subsemi.counting import PartialBinaryAlgebra, count_subuniverses_split
from subsemi.enumeration import _upclosed_extensions, random_semilattice
from subsemi.errors import SizeLimitError
from subsemi.kernel import count_closed, enumerate_closed
from subsemi.order import Poset, to_semilattice


def _star(n):
    """n-1 atoms under one top (index n-1)."""
    return to_semilattice(Poset.from_covers(n, [(i, n - 1) for i in range(n - 1)]))


def _assert_matches_scan(n, cons):
    assert count_closed(n, cons) == _pycount.count_closed(n, cons)
    assert enumerate_closed(n, cons) == _pycount.enumerate_closed(n, cons)


def test_no_constraints_shortcut():
    assert count_closed(4, []) == 16
    assert enumerate_closed(2, []) == [0, 1, 2, 3]


def test_var_tables():
    for b in range(11):
        tables = kernel._var_tables(b)
        assert len(tables) == b
        for i, table in enumerate(tables):
            assert table == sum(1 << s for s in range(1 << b) if s >> i & 1)


def test_enumeration_matches_count(rng, random_partial_algebra):
    for _ in range(30):
        n = rng.randint(1, 9)
        pa = random_partial_algebra(rng, n)
        cons = pa.closure_constraints()
        subs = enumerate_closed(n, cons)
        assert len(subs) == count_closed(n, cons)
        assert subs == sorted(subs)


def test_kernel_matches_scan(rng, random_partial_algebra):
    for _ in range(120):
        n = rng.randint(1, 11)
        if rng.random() < 0.5:
            cons = random_partial_algebra(rng, n).closure_constraints()
        else:
            cons = random_semilattice(rng, n).closure_constraints()
        _assert_matches_scan(n, cons)


def test_kernel_matches_scan_on_catalog():
    for id_ in catalog_ids():
        s = build_named(id_).structure
        _assert_matches_scan(s.n, s.closure_constraints())


@pytest.mark.parametrize("width", [2, 3])
def test_kernel_matches_scan_in_narrow_blocks(rng, monkeypatch, width):
    # narrow blocks put most elements in the high bits, so the grouping by
    # high bits is exercised at sizes the scan checks quickly; the
    # constraints are general ones, with any number of result bits
    kernel._var_tables(kernel.BLOCK_BITS)     # tables of the default width, cached first
    monkeypatch.setattr(kernel, "BLOCK_BITS", width)
    for _ in range(60):
        n = rng.randint(1, 10)
        cons = [(rng.randrange(1 << n), rng.randrange(1 << n))
                for _ in range(rng.randint(0, 2 * n))]
        _assert_matches_scan(n, cons)


@pytest.mark.parametrize("n", range(17, 22))
def test_closed_forms_across_blocks(n, broom, broom_count):
    assert kernel.BLOCK_BITS < n
    assert count_closed(n, chain(n).closure_constraints()) == 2 ** n
    assert count_closed(n, _star(n).closure_constraints()) == 2 ** (n - 1) + n
    assert count_closed(n, broom(n).closure_constraints()) == broom_count(n)


@pytest.mark.parametrize("n", [17, 20])
def test_enumeration_across_blocks(n, broom):
    # broom(n): chain 0 < ... < n-2, pendant n-1 under the top n-2; a set
    # holding the pendant is closed iff it holds the top or nothing else
    pendant, top = 1 << (n - 1), 1 << (n - 2)
    expected = [s for s in range(1 << n) if not s & pendant or s & top or s == pendant]
    assert enumerate_closed(n, broom(n).closure_constraints()) == expected


def test_kernel_matches_split_across_blocks(rng, random_partial_algebra):
    for n in range(17, 22):
        for _ in range(2):
            pa = random_partial_algebra(rng, n)
            expected = count_subuniverses_split(pa, rng.randrange(n)).count
            assert count_closed(n, pa.closure_constraints()) == expected


@pytest.mark.parametrize("n", [19, 20, 21])
def test_kernel_paths_agree_on_dense_partial_algebras(n):
    # shaped like the count benchmark's partial slots: 2n distinct pairs, each
    # joined to a third element, so every triple is a constraint and the high
    # bits of most constraints select blocks
    for seed in range(4):
        rng = random.Random(f"{n}/{seed}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        joins = [(i, j, rng.choice([k for k in range(n) if k not in (i, j)]))
                 for i, j in pairs[:2 * n]]
        pa = PartialBinaryAlgebra(n, joins)
        cons = pa.closure_constraints()
        assert len(cons) == 2 * n
        count = count_closed(n, cons)
        assert count == len(enumerate_closed(n, cons))
        assert count == count_subuniverses_split(pa, 0).count


def test_count_closed_below_matches_full_scans(all_structures):
    # every extension of every parent up to 7 elements, kept or not: the
    # parent's table plus one AND per new join counts the child's closed sets
    for pn, parents in all_structures.items():
        for parent in parents:
            closed = kernel.closed_table(pn, parent.closure_constraints())
            assert closed.bit_count() == count_closed(pn, parent.closure_constraints())
            for u in _upclosed_extensions(parent.up):
                child = to_semilattice(Poset(parent.up + (u | 1 << pn,)))
                joins = [(i, k) for i, j, k in child.nontrivial_joins if j == pn]
                cons = child.closure_constraints()
                below = kernel.count_closed_below(pn, closed, joins)
                assert below == count_closed(pn + 1, cons) \
                    == _pycount.count_closed(pn + 1, cons)


def test_closed_table_holds_one_block():
    n = kernel.BLOCK_BITS
    assert kernel.closed_table(n, chain(n).closure_constraints()) == (1 << (1 << n)) - 1
    with pytest.raises(SizeLimitError):
        kernel.closed_table(n + 1, chain(n + 1).closure_constraints())
