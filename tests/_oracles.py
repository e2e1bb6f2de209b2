"""Reference implementations the tests compare the package against.

None of these is run by a command, the audit or the benchmark:
bruteforce_semilattices is the independent oracle for small n, which scans
all labeled partial orders directly; relabel and are_isomorphic check
canonical codes against plain renaming.
"""

from itertools import product

from subsemi.enumeration import EnumerationRun
from subsemi.errors import SizeLimitError
from subsemi.order import Poset, canonical_form

BRUTE_ENUM_MAX_N = 5


def relabel(poset, perm):
    """New poset with element perm[i] renamed to i (perm maps new -> old)."""
    n = poset.n
    pos = [0] * n
    for new, old in enumerate(perm):
        pos[old] = new
    up = []
    for new in range(n):
        m = poset.up[perm[new]]
        r = 0
        while m:
            j = (m & -m).bit_length() - 1
            r |= 1 << pos[j]
            m &= m - 1
        up.append(r)
    return Poset(up)


def are_isomorphic(a, b):
    """Poset (or semilattice) isomorphism through canonical codes."""
    return a.n == b.n and canonical_form(a).code == canonical_form(b).code


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
    codes = tuple(sorted(seen))
    return EnumerationRun(
        n, {"candidates": candidates, "duplicates": candidates - len(codes)}, codes)
