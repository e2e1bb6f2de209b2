import concurrent.futures
import hashlib
from concurrent.futures import ProcessPoolExecutor

import pytest

from _oracles import are_isomorphic, bruteforce_semilattices, relabel

from subsemi import counting, enumeration, kernel, order
from subsemi.catalog import build_named, chain
from subsemi.enumeration import (
    _twin_representatives,
    _upclosed_extensions,
    enumerate_semilattices,
)
from subsemi.errors import SizeLimitError
from subsemi.order import Poset, canonical_form, poset_from_code

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


def _scanned_extensions(parent_up):
    """Reference for _upclosed_extensions: every nonempty subset of the parent,
    kept when it is up-closed and meets every up-set in a set with a minimum."""
    pn = len(parent_up)
    out = []
    for u in range(1, 1 << pn):
        ok = True
        m = u
        while m:
            i = (m & -m).bit_length() - 1
            if parent_up[i] & ~u:
                ok = False
                break
            m &= m - 1
        if not ok:
            continue
        for x in range(pn):
            common = u & parent_up[x]
            found = False
            mm = common
            while mm:
                k = (mm & -mm).bit_length() - 1
                if common & parent_up[k] == common:
                    found = True
                    break
                mm &= mm - 1
            if not found:
                ok = False
                break
        if ok:
            out.append(u)
    return out


def test_grown_extensions_match_subset_scan(enumerated):
    # each parent on its canonical labels, and on the reversed labels, under
    # which the up-sets do not grow in ascending order
    for n in range(1, 9):
        for code in enumerated(n).codes:
            p = poset_from_code(code)
            for up in (p.up, relabel(p, range(n - 1, -1, -1)).up):
                assert _upclosed_extensions(up) == _scanned_extensions(up)


def _child_codes(parent_up, extensions):
    n = len(parent_up)
    return {canonical_form(Poset(parent_up + (u | 1 << n,))).code for u in extensions}


def test_twin_representatives_lose_no_child(enumerated):
    # the children of the extensions the twin test keeps are, up to
    # isomorphism, all the children
    dropped = 0
    for n in range(1, 7):
        for code in enumerated(n).codes:
            parent = poset_from_code(code)
            up = parent.up
            extensions = _upclosed_extensions(up)
            kept = _twin_representatives(parent, extensions)
            dropped += len(extensions) - len(kept)
            assert set(kept) <= set(extensions)
            assert _child_codes(up, kept) == _child_codes(up, extensions)
    assert dropped > 0


def _generation_work(monkeypatch, n):
    """(canonical forms, stats, split checks, split-counter _count nodes) of
    a serial counted run at n; each is deterministic."""
    calls = dict.fromkeys(["canonical_form", "check_split_agrees", "_count"], 0)
    for module, name in ((enumeration, "canonical_form"),
                         (enumeration, "check_split_agrees"), (counting, "_count")):
        def counted(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    run = enumerate_semilattices(n, counted=True)
    return (calls["canonical_form"], run.stats, calls["check_split_agrees"],
            calls["_count"])


def test_canonical_form_calls_in_generation(monkeypatch):
    # the twin and key tests leave 1,490 canonical forms at n = 8, of 2,861
    # candidates; without the twin test there were 2,040. The split counter
    # runs once per parent of each structure, and its _count nodes pin its
    # labels and the order of its clauses: the parent's, then the new
    # element's, on labels ordered by how often each element occurs
    assert _generation_work(monkeypatch, 8) == (
        1490, {"candidates": 2861, "duplicates": 1783}, 1098, 15560)


@pytest.mark.slow
def test_generation_work_n10(monkeypatch):
    assert _generation_work(monkeypatch, 10) == (
        47942, {"candidates": 109311, "duplicates": 71689}, 38172, 1131962)


@pytest.mark.parametrize("n, work", [(8, (2861, 2259, 1171, 93)),
                                     (9, (16747, 13535, 6440, 446))])
def test_twin_and_key_tests_keep(monkeypatch, enumerated, n, work):
    # the last level's candidates, the extensions the twin test keeps, the
    # children the key test lets reach canonical_form, and the duplicates
    # among those
    kept, canonicalised = [], []
    real_twins, real_form = enumeration._twin_representatives, enumeration.canonical_form

    def twins(parent, extensions):
        out = real_twins(parent, extensions)
        kept.append(len(out))
        return out

    def form(p):
        canonicalised.append(p.n)
        return real_form(p)

    monkeypatch.setattr(enumeration, "_twin_representatives", twins)
    monkeypatch.setattr(enumeration, "canonical_form", form)
    candidates, level = 0, set()
    for code in enumerated(n - 1).codes:
        extensions, children = enumeration._expand_parent(code)
        candidates += extensions
        level |= children.keys()
    assert len(level) == KNOWN_COUNTS[n]
    assert (candidates, sum(kept), len(canonicalised),
            len(canonicalised) - len(level)) == work


def test_search_runs_for_few_canonical_forms(monkeypatch):
    # in 1,335 of the 1,490 canonical forms at n = 8 each invariant class is
    # one twin class, which leaves one labelling and no search
    searches = []
    real = order._search

    def counted(up, *args):
        searches.append(len(up))
        return real(up, *args)

    monkeypatch.setattr(order, "_search", counted)
    enumerate_semilattices(8)
    assert len(searches) == 155


def _codes_digest(n):
    return hashlib.sha256(b"".join(enumerate_semilattices(n).codes)).hexdigest()


def test_codes_digest_n8():
    # the reports print these codes, so they must not change by a bit
    assert _codes_digest(8) == (
        "f85348ed719efea0f21ff39737e10c8cfb5431010cb5316fc63114d5153e196e")


@pytest.mark.slow
def test_codes_digest_n10():
    assert _codes_digest(10) == (
        "0380a4c89bd5dc3fd1dd4aff202555f4de7df5f85aa3e9e6f9befb0147da4c60")


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
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


def test_counted_run_limit():
    # a counted level reuses its parents' closed tables, which fit one block
    limit = enumeration.kernel.BLOCK_BITS + 1
    with pytest.raises(SizeLimitError):
        enumerate_semilattices(limit + 1, counted=True)
    assert enumerate_semilattices(3, counted=True).counts == (7, 8)
    assert enumerate_semilattices(3).counts is None


def test_split_counter_derives_its_own_joins(monkeypatch):
    # a join wrong in the list the kernel reads must not reach the split
    # counter, or both counters would agree on the wrong count
    real = kernel.count_closed_below

    def wrong_last_join(n, closed, joins):
        if joins:
            joins[-1] = (joins[-1][0], 0)   # the top, label 0
        return real(n, closed, joins)

    monkeypatch.setattr(kernel, "count_closed_below", wrong_last_join)
    with pytest.raises(AssertionError, match="counting algorithms disagree"):
        enumerate_semilattices(6, counted=True)


def test_occurrence_labels():
    # with the joins 0 v 1 = 2 and 1 v 3 = 2, elements 1 and 2 occur twice
    # and 0 and 3 once; ties go to the lower index
    assert enumeration._occurrence_labels(4, [(0, 1, 2), (1, 3, 2)]) == [2, 0, 1, 3]
    assert enumeration._occurrence_labels(3, []) == [0, 1, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_split_labels_cannot_weaken_the_cross_check(monkeypatch, workers):
    # labels that merge two elements give the split counter another clause
    # system; the patch is made before the pool forks, so workers see it too
    real = enumeration._occurrence_labels

    def merged(n, joins):
        labels = real(n, joins)
        labels[labels.index(1)] = 0
        return labels

    monkeypatch.setattr(enumeration, "_occurrence_labels", merged)
    with pytest.raises(AssertionError, match="counting algorithms disagree"):
        enumerate_semilattices(6, workers=workers, counted=True)
