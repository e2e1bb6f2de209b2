"""Seeded inputs for the benchmark workloads.

Structures are built here, by the benchmark's own code, as the JSON dicts
that `subsemi count --input FILE` reads: total semilattices as labelled
covers, partial algebras as join triples. The package under test only ever
sees the finished dicts. This module imports nothing but the standard
library, so a child process that builds inputs pays no import cost for the
oracle's numpy.
"""

import random

AUDIT_N = 9

# Slots of the count_large suite: (kind, n, extra). The seed picks the
# labelling of each fixed shape, the random trees and the partial algebras;
# the slots themselves are fixed so that every seed costs the same work.
COUNT_SLOTS = (
    ("star", 19, None),          # dense: almost every subset is closed
    ("broom", 20, None),         # chain plus pendant: few constraints
    ("tree", 19, None),
    ("partial", 19, 38),
    ("partial", 19, 38),
    ("partial", 19, 38),
    ("partial", 19, 38),
    ("partial", 19, 38),
    ("partial", 20, 40),
    ("partial", 21, 42),
)

# Slots of the subuniverses_large suite; extra is |H| for the trace bound.
SUBUNIVERSE_SLOTS = (
    ("broom", 20, 10),           # 786,433 closed subsets to materialize
    ("partial", 19, 9),
    ("tree", 18, 8),
    ("broom", 19, 8),
)

# Random trees are kept only when their exact closed-subset count lies in
# this band (fraction of 2^n), which holds the kernel work per seed steady.
TREE_BAND = (0.10, 0.11)


def star_covers(n):
    """Antichain of n-1 atoms under one top (index n-1)."""
    return [(i, n - 1) for i in range(n - 1)]


def broom_covers(n):
    """(n-1)-chain 0 < ... < n-2 with a pendant n-1 covered by the top n-2."""
    return [(i, i + 1) for i in range(n - 2)] + [(n - 1, n - 2)]


def tree_parents(rng, n):
    """Random rooted tree on 0..n-1 with root 0; parent[i] < i."""
    return [None] + [rng.randrange(i) for i in range(1, n)]


def tree_closed_count(parents):
    """Closed subsets of a tree semilattice (join = lowest common ancestor).

    A closed set avoiding v lies inside one child subtree of v; a closed set
    containing v is a free combination of closed sets of its child subtrees.
    """
    n = len(parents)
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[parents[v]].append(v)
    with_v = [0] * n
    without_v = [0] * n
    for v in reversed(range(n)):
        prod = 1
        total = 1
        for c in children[v]:
            sub = with_v[c] + without_v[c]
            prod *= sub
            total += sub - 1
        with_v[v] = prod
        without_v[v] = total
    return with_v[0] + without_v[0]


def banded_tree(rng, n):
    lo, hi = TREE_BAND
    while True:
        parents = tree_parents(rng, n)
        if lo <= tree_closed_count(parents) / (1 << n) <= hi:
            return parents


def covers_dict(rng, n, covers):
    """Covers-format dict with the element names listed in a seeded order."""
    names = [f"e{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    return {"labels": order,
            "covers": [[names[lo], names[hi]] for lo, hi in covers]}


def partial_dict(rng, n, m):
    """m distinct pairs, each joined to a third element."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    joins = []
    for i, j in pairs[:m]:
        joins.append([i, j, rng.choice([k for k in range(n) if k not in (i, j)])])
    return {"n": n, "joins": joins}


def build(rng, kind, n):
    """One structure dict of the given kind, plus its closed form if known."""
    if kind == "star":
        return covers_dict(rng, n, star_covers(n)), (1 << (n - 1)) + n
    if kind == "broom":
        return covers_dict(rng, n, broom_covers(n)), 3 * (1 << (n - 2)) + 1
    if kind == "tree":
        parents = banded_tree(rng, n)
        covers = [(v, parents[v]) for v in range(1, n)]
        return covers_dict(rng, n, covers), tree_closed_count(parents)
    raise ValueError(kind)


def count_suite(seed):
    """[(dict, closed form or None)] for the count_large workload."""
    rng = random.Random(f"count_large/{seed}")
    out = []
    for kind, n, m in COUNT_SLOTS:
        if kind == "partial":
            out.append((partial_dict(rng, n, m), None))
        else:
            out.append(build(rng, kind, n))
    return out


def subuniverse_suite(seed):
    """[(dict, H mask, closed form or None)] for the subuniverses_large workload."""
    rng = random.Random(f"subuniverses_large/{seed}")
    out = []
    for kind, n, h_size in SUBUNIVERSE_SLOTS:
        if kind == "partial":
            data, closed = partial_dict(rng, n, n // 2), None
        else:
            data, closed = build(rng, kind, n)
        h = 0
        for e in rng.sample(range(n), h_size):
            h |= 1 << e
        out.append((data, h, closed))
    return out
