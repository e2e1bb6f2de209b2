"""Isomorph-free generation of all n-element join-semilattices.

The generator grows structures by one new minimal element per level: an
up-closed subset U of the parent works as the new element's strict up-set
whenever U meets every up-set in a set with a unique minimum (that minimum
becomes the new join). Deleting any minimal element of a join-semilattice
leaves a join-semilattice, so every structure is reached this way.

Most children are isomorphic to another child, and a cheap test drops about
half of them before their canonical form is computed. The key of a minimal
element e is (|up(e)|, sorted |up(j)| over the strict upper bounds j of e),
which no isomorphism changes. A child is kept only when its new element's
key is at least the key of every other minimal element; ties are kept. This
loses no structure: in any L, delete a minimal element m of largest key.
What is left is a join-semilattice one size smaller, so some parent of the
previous level is isomorphic to it, and putting m back is one of that
parent's extensions, whose new element has the largest key and is kept.
The set of canonical codes still removes every remaining duplicate, and
every extension counts as a candidate whether or not the test dropped it.

bruteforce_semilattices is the independent oracle for small n: it scans
all labeled partial orders directly.
"""

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import product

from subsemi.errors import SizeLimitError
from subsemi.order import Poset, canonical_form, poset_from_code, to_semilattice

BRUTE_ENUM_MAX_N = 5


@dataclass(frozen=True)
class EnumerationRun:
    n: int
    structures: tuple   # canonical representatives sorted by canonical code
    stats: dict         # candidates generated, key-tested or not; duplicates rejected
    codes: tuple        # canonical code of each structure, strictly ascending


def _upclosed_extensions(parent_up):
    """Valid strict up-sets for a new minimal element below an existing structure."""
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


def _minimal_key(strict_up, sizes):
    """(|up-set|, sorted up-set sizes of the strict upper bounds) of a minimal element."""
    above = []
    m = strict_up
    while m:
        above.append(sizes[(m & -m).bit_length() - 1])
        m &= m - 1
    above.sort()
    return (len(above) + 1, tuple(above))


def _expand_parent(parent_up):
    """(number of children, canonical codes of the children that pass the key test).

    A child is canonicalised only when its new element's key is at least the
    key of every other minimal element of the child. The new element lies
    below the parent's elements and above none, so their up-sets, and with
    them the keys, are the parent's; the child's other minimal elements are
    the parent's minimal elements outside u.
    """
    pn = len(parent_up)
    sizes = [up.bit_count() for up in parent_up]
    covered = 0   # elements strictly above some element
    for i, up in enumerate(parent_up):
        covered |= up & ~(1 << i)
    minimal_keys = [(1 << i, _minimal_key(parent_up[i] & ~(1 << i), sizes))
                    for i in range(pn) if not covered >> i & 1]
    extensions = _upclosed_extensions(parent_up)
    kept = []
    for u in extensions:
        key = _minimal_key(u, sizes)
        if all(key >= other for bit, other in minimal_keys if not u & bit):
            kept.append(canonical_form(Poset(parent_up + (u | (1 << pn),))).code)
    return len(extensions), kept


def enumerate_semilattices(n, workers=1):
    """All n-element join-semilattices up to isomorphism, deterministically ordered.

    Each level is kept as the set of its canonical codes; the next level's
    parents are decoded from them in sorted order, and only level n is built
    into JoinSemilattices. Nothing is kept between calls, and workers > 1 runs
    every level in one process pool.
    """
    if n < 1:
        raise SizeLimitError("n must be at least 1")
    level = {canonical_form(Poset((1,))).code}
    candidates = 1
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        for _ in range(2, n + 1):
            parent_ups = [poset_from_code(code).up for code in sorted(level)]
            # batches are consumed as they arrive: holding a whole level's
            # batches at once raises the peak memory of a run
            batches = (pool.map(_expand_parent, parent_ups, chunksize=8) if pool
                       else map(_expand_parent, parent_ups))
            level = set()
            candidates = 0
            for extensions, kept in batches:
                candidates += extensions
                level.update(kept)
    return _sorted_run(n, level, candidates)


def _sorted_run(n, codes, candidates):
    """The EnumerationRun of a level from the set of its canonical codes."""
    codes = tuple(sorted(codes))
    structures = tuple(to_semilattice(poset_from_code(code)) for code in codes)
    return EnumerationRun(
        n, structures,
        {"candidates": candidates, "duplicates": candidates - len(codes)},
        codes,
    )


def bruteforce_semilattices(n):
    """Oracle enumeration: scan all labeled posets, keep join-total ones, dedup.

    Deliberately independent of the extension generator; limited to n <= 5.
    """
    if n > BRUTE_ENUM_MAX_N:
        raise SizeLimitError(f"brute-force enumeration limited to n <= {BRUTE_ENUM_MAX_N}")
    if n < 1:
        raise SizeLimitError("n must be at least 1")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    candidates = 0
    for assignment in product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), state in zip(pairs, assignment):
            if state == 1:
                up[i] |= 1 << j
            elif state == 2:
                up[j] |= 1 << i
        # transitivity
        ok = True
        for i in range(n):
            m = up[i] & ~(1 << i)
            acc = up[i]
            while m:
                j = (m & -m).bit_length() - 1
                acc |= up[j]
                m &= m - 1
            if acc != up[i]:
                ok = False
                break
        if not ok:
            continue
        # all joins exist
        for i in range(n):
            for j in range(i + 1, n):
                common = up[i] & up[j]
                if not any(
                    common >> k & 1 and common & up[k] == common for k in range(n)
                ):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        candidates += 1
        seen.add(canonical_form(Poset(tuple(up))).code)
    return _sorted_run(n, seen, candidates)
