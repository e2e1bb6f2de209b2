"""Named structures: chains, sums, and the fixed case structures that the
ranking verification audits, each carrying expected and reported values.

Structures given only by join constraints and Hasse-edge lists are rebuilt
as partial binary algebras. Edge lists are read as covering relations
(lower element first). On top of the explicitly named joins, a join is
inherited by substitution: for a named join p v q = w whose value w is
maximal, any incomparable pair drawn from {p} plus the join values below p
on one side, and {q} plus the join values below q on the other, also joins
to w. This reading reproduces every reported count; the named-joins-only
reading does not (see the README notes on interpretation).
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from subsemi.counting import (
    PartialBinaryAlgebra,
    check_brute_size,
    count_subuniverses_bruteforce,
    sigma_value,
    split_parts,
)
from subsemi.errors import NoMatchError, NoUniqueBottomError, UnknownStructureError
from subsemi.order import Poset, canonical_form, to_semilattice


def chain(m):
    """Total order on m >= 1 elements, 0 < 1 < ... < m-1."""
    if m < 1:
        raise ValueError("chains have at least one element")
    return to_semilattice(Poset.from_covers(m, [(i, i + 1) for i in range(m - 1)]))


def ordinal_sum(p, q):
    """Stack q entirely above p; q's indices are shifted by |p|."""
    qfull = ((1 << q.n) - 1) << p.n
    up = [p.up[i] | qfull for i in range(p.n)]
    up += [q.up[i] << p.n for i in range(q.n)]
    return Poset(up)


def glued_sum(k, l):
    """Identify the top of k with the bottom of l; size |k| + |l| - 1.

    k keeps its indices and l's other elements follow in index order.
    """
    bottoms = l.minimal_elements()
    if len(bottoms) != 1:
        raise NoUniqueBottomError(f"upper summand has {len(bottoms)} minimal elements")
    bottom = bottoms[0]
    keep = [e for e in range(l.n) if e != bottom]
    pos = {e: i + k.n for i, e in enumerate(keep)}
    pos[bottom] = k.top
    covers = list(k.covers) + [(pos[lo], pos[hi]) for lo, hi in l.covers]
    return to_semilattice(Poset.from_covers(k.n + l.n - 1, covers))


# -- case structures as partial algebras --------------------------------


def case_partial_algebra(names, edges, named_joins):
    """Partial algebra from element names, cover edges, and named joins.

    Applies the inherited-join rule described in the module docstring.
    """
    idx = {c: i for i, c in enumerate(names)}
    n = len(names)
    covers = [(idx[e[0]], idx[e[1]]) for e in edges]
    implied = list(covers)
    named = []
    joins = {}
    for a, b, r in named_joins:
        p, q, w = idx[a], idx[b], idx[r]
        named.append((p, q, w))
        key = frozenset((p, q))
        if joins.get(key, w) != w:
            raise ValueError("pair named twice with different values")
        joins[key] = w
        if w not in (p, q):
            implied += [(p, w), (q, w)]
    # conflicting names are reported before the closure rejects a cycle
    up = Poset.from_covers(n, implied).up

    def lt(i, j):
        return i != j and bool(up[i] >> j & 1)

    jvals = {w for _, _, w in named}
    for p, q, w in named:
        if up[w] != 1 << w:
            continue  # only the maximal join value inherits
        side_p = {p} | {v for v in jvals if lt(v, p)}
        side_q = {q} | {v for v in jvals if lt(v, q)}
        for u in side_p:
            for v in side_q:
                if u == v or lt(u, v) or lt(v, u):
                    continue
                key = frozenset((u, v))
                if joins.get(key, w) != w:
                    raise ValueError("conflicting inherited join")
                joins[key] = w
    triples = []
    for key, w in joins.items():
        i, j = sorted(key)
        triples.append((i, j, w))
    return PartialBinaryAlgebra(n, triples)


class NamedStructure(namedtuple(
        "NamedStructure",
        "id structure labels expected_sigma5 reported_sigma5 provenance tolerance",
        defaults=(Fraction(0),))):
    """A catalog entry with its expected relative count and provenance.

    structure: a JoinSemilattice or a PartialBinaryAlgebra;
    expected_sigma5: the derived value, authoritative;
    reported_sigma5: the reference values; more than one is a contradiction;
    tolerance: 0 for exact reports, 1/10 for rounded ones.
    """

    __slots__ = ()


# (covers, labels, expected count, reported sigma values, provenance)
_TOTAL_TABLE = {
    "B4": ([(0, 1), (0, 2), (1, 3), (2, 3)], "0ab1", 14, (),
           "diamond: bottom, two incomparable atoms, top"),
    "H3": ([(0, 2), (1, 2)], "ab1", 7, (), "two incomparable atoms with a top"),
    "H5": ([(0, 1), (1, 2), (2, 4), (3, 4)], "abcd1", 25, ("25",),
           "chain a<b<c plus d incomparable to it, all joins with d equal 1"),
    "K3": ([(0, 3), (1, 3), (2, 3)], "abc1", 12, ("24",), "three-element antichain plus top"),
    # H3 with B4 glued above it: the top y of H3 is the bottom of B4
    "H3_B4": ([(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)], "cdyabx", 49, ("24.5",),
              "glued sum of the two-atom top and the diamond"),
}

# (names, edges, named joins, expected count, reported sigma values, tolerance)
_CASE_TABLE = {
    "U1": ("abcdefxyz", [], [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")],
           343, ("21.43",), "0.1"),
    "U2": ("abcdefxy", [], [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "a")],
           168, ("21",), "0"),
    "U3": ("abcdefxy", [], [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "c")],
           168, ("21",), "0"),
    "U4": ("abcdefxy", [], [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "y")],
           175, ("21.8",), "0.1"),
    "U5": ("abcdefxy", [], [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "x")],
           175, ("21.8",), "0.1"),
    "U6": ("abcdefx", [], [("a", "b", "x"), ("c", "d", "a"), ("e", "f", "b")],
           82, ("20.5",), "0"),
    "U7": ("abcdefx", [], [("a", "b", "x"), ("c", "d", "x"), ("e", "f", "x")],
           91, ("22.75",), "0"),
    "H": ("abcd1", [], [("a", "b", "1"), ("c", "a", "1")],
          26, ("21", "23"), "0"),
    "U10": ("abcd1", ["ab", "bc"], [("c", "d", "1"), ("a", "d", "1"), ("b", "d", "1")],
            25, ("25",), "0"),
    "U11": ("abcdxy", ["cy", "dy", "yb", "bx", "ax"],
            [("a", "b", "x"), ("c", "d", "y")], 45, ("22.5",), "0"),
    "U12": ("abcdxy", ["cy", "dy", "yb", "ya", "bx", "ax"],
            [("a", "b", "x"), ("c", "d", "y")], 49, ("24.5",), "0"),
    "U13": ("abcdefxyz", ["cy", "dy", "yb", "bx", "ax", "ez", "fz"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")], 315, ("19.6875",), "0"),
    "U14": ("abcdefxyz", ["cy", "dy", "yb", "ya", "bx", "ax", "ez", "fz"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")], 343, ("21.4375",), "0"),
    "U15": ("abcdefxyz", ["cy", "dy", "yb", "za", "bx", "ax", "ez", "fz"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")], 271, ("16.9375",), "0"),
    "U16": ("abcdefxy", ["cy", "dy", "yb", "bx", "ax", "ec", "fc"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "c")], 150, ("18.75",), "0"),
    "U17": ("abcdefxyz", ["cy", "dy", "yb", "zc", "bx", "ax", "ez", "fz"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")], 303, ("18.94",), "0.1"),
    "U18": ("abcdefxyz", ["cy", "dy", "yb", "zc", "zd", "bx", "ax", "ez", "fz"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")], 303, ("18.9375",), "0"),
    "U19": ("abcdefxyz", ["cy", "dy", "yb", "ya", "zc", "zd", "bx", "ax", "ez", "fz"],
            [("a", "b", "x"), ("c", "d", "y"), ("e", "f", "z")], 343, ("21.4375",), "0"),
}

_FIGURE_TARGETS = {
    # target: (n, total, base id, base total, meets part, reported sigma)
    "K": (5, 23, "B4", 14, 7, "23"),
    "N": (6, 39, "K", 23, 14, "19.5"),
    "K0": (7, 61, "N", 39, 20, "15.25"),
}


def catalog_ids():
    """Every catalog id in listing order: the chains C1-C5, then each table's rows."""
    return [f"C{k}" for k in range(1, 6)] + [*_TOTAL_TABLE, *_FIGURE_TARGETS, *_CASE_TABLE]


@lru_cache(maxsize=None)
def build_named(id_):
    """Construct a catalog structure together with its expected value."""
    k = int(id_[1:]) if re.fullmatch(r"C[1-9]\d*", id_) else 0
    # no command can count a longer chain, and its up-sets take k^2 bits
    check_brute_size(k)
    if k >= 1:
        sl = chain(k)
        return NamedStructure(
            id=id_, structure=sl, labels=tuple(str(i) for i in range(k)),
            expected_sigma5=Fraction(32), reported_sigma5=(),
            provenance="finite chain; 2^m subuniverses, relative count 32",
        )
    if id_ in _TOTAL_TABLE:
        covers, labels, count, reported, provenance = _TOTAL_TABLE[id_]
        return NamedStructure(
            id=id_, structure=to_semilattice(Poset.from_covers(len(labels), covers)),
            labels=tuple(labels), expected_sigma5=sigma_value(count, len(labels)),
            reported_sigma5=tuple(Fraction(v) for v in reported),
            provenance=provenance,
        )
    if id_ in _CASE_TABLE:
        names, edges, joins, count, reported, tol = _CASE_TABLE[id_]
        pa = case_partial_algebra(names, edges, joins)
        prov = "case structure; joins " + ", ".join(f"{a}v{b}={r}" for a, b, r in joins)
        if edges:
            prov += "; edges " + ", ".join(edges)
        if len(reported) > 1:
            prov += "; contradictory reported values"
        return NamedStructure(
            id=id_, structure=pa, labels=tuple(names),
            expected_sigma5=sigma_value(count, len(names)),
            reported_sigma5=tuple(Fraction(v) for v in reported),
            tolerance=Fraction(tol), provenance=prov,
        )
    if id_ in _FIGURE_TARGETS:
        n, total, _, _, _, reported = _FIGURE_TARGETS[id_]
        matches = reconstruct_figure_structures()[id_]
        note = "unique up to isomorphism" if len(matches) == 1 else (
            f"{len(matches)} non-isomorphic matches; smallest canonical code kept")
        return NamedStructure(
            id=id_, structure=matches[0].structure,
            labels=tuple(str(i) for i in range(matches[0].structure.n)),
            expected_sigma5=sigma_value(total, n), reported_sigma5=(Fraction(reported),),
            provenance=f"reconstructed by decomposition search; {note}",
        )
    raise UnknownStructureError(id_)


# -- reconstruction of the figure-only structures ------------------------


class ReconstructionMatch(namedtuple("ReconstructionMatch", "structure parts")):
    """A JoinSemilattice that matches a figure target, with its parts
    (avoiding, containing disjoint, containing meeting)."""

    __slots__ = ()


@lru_cache(maxsize=None)
def reconstruct_figure_structures():
    """Search small semilattices for the figure-only shapes K, N, K0; maps
    each target to its tuple of matches.

    Each target is pinned by its pivot decomposition: the subuniverses
    avoiding the pivot must number exactly the previous structure's count
    and deleting the pivot must leave that structure, with the
    containing-side parts (2, meets) as required. All matches are kept, in
    ascending canonical-code order and each with the parts of its first
    matching pivot, so a target is unique up to isomorphism when it has one
    match.
    """
    # imported here, so the named structures that need no search load no
    # enumeration
    from subsemi.enumeration import enumerate_semilattices
    results = {}
    base_codes = {"B4": {canonical_form(build_named("B4").structure).code}}
    for target, (n, total, base, base_total, meets, _) in _FIGURE_TARGETS.items():
        run = enumerate_semilattices(n)
        matches = []
        codes = set()
        for sl, code in zip(run.structures, run.codes):
            if count_subuniverses_bruteforce(sl).count != total:
                continue
            for v in range(n):
                if v == sl.top:
                    continue
                rest = sl.delete(v)
                if rest is None:
                    continue
                if canonical_form(rest).code not in base_codes[base]:
                    continue
                parts = split_parts(sl, v)
                if parts != (base_total, 2, meets):
                    continue
                codes.add(code)
                matches.append(ReconstructionMatch(structure=sl, parts=parts))
                break
        if not matches:
            raise NoMatchError(
                f"no {n}-element join-semilattice satisfies the {target} decomposition")
        results[target] = tuple(matches)
        base_codes[target] = codes
    return results
