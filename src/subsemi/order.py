"""Finite posets and join-semilattices on dense indices 0..n-1.

The order relation is stored as per-element up-set bitmasks so that
upper-bound intersection is a single AND. All structures are immutable
after construction and safe to share across workers.
"""

from collections import namedtuple
from functools import cached_property
from itertools import groupby

from subsemi.errors import JoinMissingError, PosetAxiomError, SizeLimitError


class Poset:
    """Partial order on 0..n-1; up[i] is the bitmask of {j : i <= j}."""

    __slots__ = ("n", "up", "__dict__")

    def __init__(self, up):
        if not up:
            raise ValueError("posets here are nonempty; n = 0 is rejected")
        self.n = len(up)
        self.up = tuple(up)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_covers(cls, n, covers):
        """Build from Hasse edges (lower, upper); order is the transitive closure.

        The up-sets are closed in one pass, from the top down: each element's
        up-set is final once those of all its upper covers are (Kahn's
        topological order), so the pass costs one OR per cover. Elements
        the pass never reaches lie on or below a cycle of covers; they are
        closed by repeated passes, and the least pair (i, j) of distinct
        elements below each other is the antisymmetry witness.
        """
        up = [1 << i for i in range(n)]
        lower = [[] for _ in range(n)]   # lower[b]: the a of each cover (a, b)
        pending = [0] * n                # covers (a, b) whose b is not final
        for a, b in covers:
            if a != b:
                lower[b].append(a)
                pending[a] += 1
        final = [b for b in range(n) if not pending[b]]
        for b in final:   # the list grows while it is walked
            for a in lower[b]:
                up[a] |= up[b]
                pending[a] -= 1
                if not pending[a]:
                    final.append(a)
        if len(final) < n:
            rest = sorted(set(range(n)).difference(final))
            cycle_covers = [(a, b) for b in rest for a in lower[b]]
            changed = True
            while changed:
                changed = False
                for a, b in cycle_covers:
                    if up[b] & ~up[a]:
                        up[a] |= up[b]
                        changed = True
            raise PosetAxiomError("antisymmetry", next(
                (i, j) for i in rest for j in rest
                if i != j and up[i] >> j & 1 and up[j] >> i & 1))
        return cls(up)

    # -- basic queries -------------------------------------------------

    def le(self, i, j):
        return bool(self.up[i] >> j & 1)

    @cached_property
    def tables(self):
        """(strict_up, above, strict_dn, base), what canonical_form reads of
        the order, from one walk over the strict up-sets. Each is indexed by
        element: strict_up[i] and strict_dn[i] are the bitmasks of {j : i < j}
        and {j : j < i}, above[i] lists the members of strict_up[i] in
        ascending order, and base[i] packs (|up|, |down|, lower covers, upper
        covers) one byte per field, first field highest, so for n <= 255 the
        ints sort exactly like the tuples."""
        n = self.n
        strict_up = tuple(self.up[i] & ~(1 << i) for i in range(n))
        above = []
        strict_dn = [0] * n
        cover_up = [0] * n
        cover_dn = [0] * n
        for i in range(n):
            members = []
            bit = 1 << i
            reach = 0   # elements strictly above some strict upper bound of i
            m = strict_up[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                members.append(j)
                strict_dn[j] |= bit
                reach |= strict_up[j]
            above.append(members)
            covers = strict_up[i] & ~reach
            cover_up[i] = covers.bit_count()
            for j in members:
                if covers >> j & 1:
                    cover_dn[j] += 1
        base = tuple((len(above[i]) + 1) << 24 | (strict_dn[i].bit_count() + 1) << 16
                     | cover_dn[i] << 8 | cover_up[i] for i in range(n))
        return strict_up, tuple(above), tuple(strict_dn), base

    def with_minimal(self, u):
        """This poset plus a new element n, minimal, whose strict up-set is
        the up-closed u. The child's tables are copies of this poset's with
        only the entries of u and of n changed: the new element lies above
        nothing, so every old up-set and every old cover stays; it joins the
        strict down-set of each j in u, and covers exactly the minimal
        elements of u."""
        n = self.n
        bit = 1 << n
        child = Poset(self.up + (u | bit,))
        strict_up, above, strict_dn, base = self.tables
        dn = list(strict_dn)
        inv = list(base)
        members = []
        reach = 0
        m = u
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            members.append(j)
            reach |= strict_up[j]
        lowest = u & ~reach
        for j in members:
            dn[j] |= bit
            # |down| grows by one, and the lower covers when j is minimal in u
            inv[j] += 1 << 16 | (lowest >> j & 1) << 8
        inv.append((len(members) + 1) << 24 | 1 << 16 | lowest.bit_count())
        child.__dict__["tables"] = (
            strict_up + (u,), above + (members,), (*dn, 0), tuple(inv))
        return child

    @cached_property
    def down(self):
        """down[i] = bitmask of {j : j <= i}."""
        return tuple(dn | 1 << i for i, dn in enumerate(self.tables[2]))

    @cached_property
    def covers(self):
        """All covering pairs (i, j): i < j with nothing strictly between."""
        out = []
        for i in range(self.n):
            strict_up = self.up[i] & ~(1 << i)
            m = strict_up
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                between = strict_up & self.down[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        return tuple(sorted(out))

    def minimal_elements(self):
        return [i for i, dn in enumerate(self.tables[2]) if not dn]

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, covers={list(self.covers)})"


class JoinSemilattice(Poset):
    """A poset in which every pair has a least upper bound.

    nontrivial_joins holds (i, j, k) with k = i v j for each incomparable
    pair i < j, in ascending (i, j) order; a comparable pair joins to its
    larger element. These joins are the closure constraints.
    """

    __slots__ = ("nontrivial_joins", "top")

    def __init__(self, up, nontrivial_joins, top):
        super().__init__(up)
        self.nontrivial_joins = nontrivial_joins
        self.top = top

    def closure_constraints(self):
        """Bitmask constraint list [(pair_mask, result_bit)] for the counting kernels."""
        return [((1 << i) | (1 << j), 1 << k) for i, j, k in self.nontrivial_joins]

    def is_closed(self, mask):
        for pm, rb in self.closure_constraints():
            if mask & pm == pm and not mask & rb:
                return False
        return True

    def induced(self, mask):
        """Sub-semilattice on a join-closed subset, reindexed densely."""
        if not mask or not self.is_closed(mask):
            raise ValueError("subset must be nonempty and join-closed")
        keep = [i for i in range(self.n) if mask >> i & 1]
        pos = {e: i for i, e in enumerate(keep)}
        up = []
        for e in keep:
            m = 0
            for f in keep:
                if self.le(e, f):
                    m |= 1 << pos[f]
            up.append(m)
        return to_semilattice(Poset(up))

    def delete(self, v):
        """Remove element v if the rest is join-closed; None otherwise."""
        rest = ((1 << self.n) - 1) & ~(1 << v)
        if not self.is_closed(rest):
            return None
        return self.induced(rest)


def to_semilattice(p):
    """The join-semilattice on a poset's order, with the join of each
    incomparable pair; raises JoinMissingError(i, j) for the first pair
    i < j that has no least upper bound.

    The common upper bounds of i and j have a least element k exactly when
    they are the up-set of k, so each join is one lookup by up-set.
    """
    n = p.n
    up = p.up
    element_of = {m: k for k, m in enumerate(up)}
    joins = []
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 or up[j] >> i & 1:
                continue
            k = element_of.get(up[i] & up[j])
            if k is None:
                raise JoinMissingError(i, j)
            joins.append((i, j, k))
    # with every pair joined, the join of all elements is the one maximal element
    top = next(i for i in range(n) if up[i] == 1 << i)
    return JoinSemilattice(up, tuple(joins), top)


# -- canonical forms ---------------------------------------------------


class CanonicalForm(namedtuple("CanonicalForm", "code perm")):
    """Permutation-minimal encoding of the order relation.

    code: n as one byte, then the permuted le matrix packed row-major;
        poset_from_code decodes it.
    perm: perm[new_index] = original element achieving the code.
    """

    __slots__ = ()


def _dense_ranks(vectors):
    """Each vector's index among the sorted distinct vectors, and their number."""
    distinct = sorted(set(vectors))
    index = dict(zip(distinct, range(len(distinct))))
    return list(map(index.__getitem__, vectors)), len(distinct)


def _refined_invariants(p):
    """Per-element invariant ranks, each element's strict upper elements in
    ascending order, and the twin keys when the labelling needs a search.

    A rank is the index of the element's invariant among the sorted
    distinct invariants, so the ranks order and split the elements exactly
    as the invariants do. The invariants start as the packed base vectors
    of p.tables, (|up|, |down|, lower covers, upper covers); a round
    replaces an element's invariant by (its rank, -K_dn, -K_up), where K
    sums W^(c-1-r) over the ranks r of its strict lower (upper) elements,
    c is the number of classes and W = 2^bitlength(n). There are at most
    two rounds, stopping before a round that would split no class.

    K reads the multiset of neighbour ranks as base-W digits (counts < W),
    most weight on rank 0. Elements of one class share |up| and |down|, so
    their sorted neighbour-rank tuples have one length, and of two such
    tuples the smaller holds more of the first rank where they differ: it
    has the larger K. So (rank, -K_dn, -K_up) orders and splits the
    elements exactly as (rank, sorted lower ranks, sorted upper ranks).

    Twins (elements with the same strict up-set and strict down-set, their
    twin key) are swapped by an automorphism, so they share every rank, and
    a round splits no class once each class is one twin class. Then the
    only labelling that fills positions class by class with twins in index
    order lists the elements by (rank, index), and the twin keys are None.
    """
    n = p.n
    strict_up, above, strict_dn, base = p.tables
    inv, classes = _dense_ranks(base)
    if classes == n:
        return inv, above, None
    twin_classes = len(set(zip(strict_up, strict_dn)))
    if classes == twin_classes:
        return inv, above, None
    digit = n.bit_length()
    # a refined invariant starts with the previous rank, so a round only
    # splits classes and keeps their order; after a round that splits none,
    # every later round splits none either
    for _ in range(2):
        weight = [1 << digit * r for r in range(classes - 1, -1, -1)]
        wt = list(map(weight.__getitem__, inv))   # each element's weight
        k_dn = [0] * n
        for i, members in enumerate(above):
            w = wt[i]
            for j in members:
                k_dn[j] -= w
        refined, split = _dense_ranks(
            [(r, d, -sum(map(wt.__getitem__, members)))
             for r, d, members in zip(inv, k_dn, above)])
        if split == classes:
            break
        inv, classes = refined, split
        if classes == twin_classes:
            return inv, above, None
    return inv, above, list(zip(strict_up, strict_dn))


def poset_from_code(code):
    """The poset a canonical code encodes, on its canonical labels."""
    n = code[0]
    bits = format(int.from_bytes(code[1:], "big"), f"0{8 * (len(code) - 1)}b")
    return Poset([int(bits[i * n:(i + 1) * n][::-1], 2) for i in range(n)])


def _search(up, order, inv, twins):
    """The labelling of least code among those that fill each position from
    its invariant class and place twins in index order.

    order lists the elements by (rank, index) and twins[e] is e's twin key.
    Twins (same strict up-set and strict down-set) are swapped by an
    automorphism, so only the labelings that place them in index order are
    searched: an element waits until its previous twin is placed. Branches
    are pruned by prefix comparison against the best code found so far.
    """
    n = len(order)
    # position t may only hold elements from the invariant class assigned to t
    position_block = []
    for _, members in groupby(order, key=inv.__getitem__):
        members = list(members)
        position_block.extend([members] * len(members))
    prev_twin = [None] * n
    last_of = {}
    for e in range(n):
        prev_twin[e] = last_of.get(twins[e])
        last_of[twins[e]] = e

    perm = [0] * n
    used = [False] * n
    cur = [0] * n
    best = None
    best_perm = None

    def chunk(cand, t):
        c = 0
        for j in range(t):
            c = (c << 1) | (up[perm[j]] >> cand & 1)
        for j in range(t):
            c = (c << 1) | (up[cand] >> perm[j] & 1)
        return c

    def rec(t, tight):
        nonlocal best, best_perm
        if t == n:
            code = tuple(cur)
            if best is None or code < best:
                best = code
                best_perm = tuple(perm)
            return
        for cand in position_block[t]:
            if used[cand]:
                continue
            twin = prev_twin[cand]
            if twin is not None and not used[twin]:
                continue
            ch = chunk(cand, t)
            nt = tight
            if best is not None and tight:
                if ch > best[t]:
                    continue
                nt = ch == best[t]
            perm[t] = cand
            cur[t] = ch
            used[cand] = True
            rec(t + 1, nt)
            used[cand] = False
        return

    rec(0, True)
    return best_perm


def canonical_form(p):
    """Lex-minimal relabeling of a poset over invariant-respecting permutations.

    Equal codes exactly for isomorphic posets. Each position is filled from
    one class of the refined invariant partition, with twins in index order.
    When each class is one twin class, that leaves one labelling, the
    elements by (rank, index); otherwise _search looks for the least code,
    at a cost that grows with the poset's symmetry rather than with n.
    """
    n = p.n
    if n > 255:
        raise SizeLimitError(f"canonical codes hold n in one byte, so n <= 255; got {n}")
    inv, above, twins = _refined_invariants(p)
    # a stable sort keeps each class in index order
    perm = sorted(range(n), key=inv.__getitem__)
    if twins is not None:
        perm = _search(p.up, perm, inv, twins)
    # row i holds le(perm[i], perm[j]) for j = 0..n-1, first bit first; the
    # last byte is padded with zero bits
    col = [0] * n   # each element's bit within a row
    for new, old in enumerate(perm):
        col[old] = 1 << (n - 1 - new)
    bits = 0
    for old in perm:
        # the columns are distinct bits, so their sum is their union
        bits = bits << n | sum(map(col.__getitem__, above[old]), col[old])
    size = (n * n + 7) // 8
    code = bytes([n]) + (bits << (8 * size - n * n)).to_bytes(size, "big")
    return CanonicalForm(code=code, perm=tuple(perm))
