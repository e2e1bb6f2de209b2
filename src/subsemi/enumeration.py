"""Isomorph-free generation of all n-element join-semilattices.

The generator grows structures by one new minimal element per level: an
up-closed subset U of the parent works as the new element's strict up-set
whenever U meets every up-set in a set with a unique minimum (that minimum
becomes the new join). Deleting any minimal element of a join-semilattice
leaves a join-semilattice, so every structure is reached this way.

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
    stats: dict         # candidates generated, duplicates rejected
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


def _expand_parent(parent_up):
    """Canonical codes of all children of one parent."""
    pn = len(parent_up)
    return [canonical_form(Poset(parent_up + (u | (1 << pn),))).code
            for u in _upclosed_extensions(parent_up)]


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
            for batch in batches:
                candidates += len(batch)
                level.update(batch)
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
