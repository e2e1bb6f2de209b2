"""Narrows detection and classification into chain-extended core families.

A family member is C_c0 stacked under core glued under C_c1; c1 = 1 is the
degenerate glue (the singleton chain), so the core itself is the (0, 1)
member. Membership is decided by canonical code: every chain split of the
right size is built once per (core, n), and a structure belongs to the
family exactly when its canonical code is one of theirs. A negative answer
is therefore a proof of non-membership at this size.
"""

from functools import lru_cache

from subsemi.catalog import build_named, chain, glued_sum, ordinal_sum
from subsemi.order import canonical_form, to_semilattice

FAMILY_CORES = ("H5", "H3_B4", "K3")


def narrows(sl):
    """Elements below the top comparable with everything."""
    full = (1 << sl.n) - 1
    out = set()
    for u in range(sl.n):
        if u == sl.top:
            continue
        if sl.up[u] | sl.down[u] == full:
            out.add(u)
    return frozenset(out)


def _core_of(core):
    return build_named(core).structure if isinstance(core, str) else core


def build_family_member(core, c0_len, c1_len):
    """Construct C_c0 +ord core (glued) C_c1."""
    core_sl = _core_of(core)
    if c0_len < 0 or c1_len < 1:
        raise ValueError(
            f"chain lengths need c0 >= 0 and c1 >= 1, got ({c0_len}, {c1_len})")
    glued = glued_sum(core_sl, chain(c1_len))
    if c0_len == 0:
        return glued
    return to_semilattice(ordinal_sum(chain(c0_len), glued))


@lru_cache(maxsize=None)
def family_members(core, n):
    """All n-element family members, as canonical code -> (c0_len, c1_len).

    Cached per (core, n) and shared by every caller: do not mutate the result.
    """
    core_sl = _core_of(core)
    out = {}
    spare = n - core_sl.n + 1
    for c0 in range(0, spare):
        c1 = spare - c0
        member = build_family_member(core_sl, c0, c1)
        code = canonical_form(member).code
        out.setdefault(code, (c0, c1))
    return out


def matches_family(sl, core):
    """The chain split (c0_len, c1_len) that makes sl a member of one core
    family, or None when sl is not a member."""
    return family_members(core, sl.n).get(canonical_form(sl).code)


def family_codes(core_id, n):
    """Canonical codes of every n-element member of a named core family."""
    return frozenset(family_members(core_id, n))
