"""Finite posets and join-semilattices on dense indices 0..n-1.

The order relation is stored as per-element up-set bitmasks so that
upper-bound intersection is a single AND. All structures are immutable
after construction and safe to share across workers.
"""

from dataclasses import dataclass
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
        """Build from Hasse edges (lower, upper); order is the transitive closure."""
        up = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for a, b in covers:
                merged = up[a] | up[b]
                if merged != up[a]:
                    up[a] = merged
                    changed = True
        p = cls(up)
        for i in range(n):
            for j in range(n):
                if i != j and p.le(i, j) and p.le(j, i):
                    raise PosetAxiomError("antisymmetry", (i, j))
        return p

    # -- basic queries -------------------------------------------------

    def le(self, i, j):
        return bool(self.up[i] >> j & 1)

    @cached_property
    def down(self):
        """down[i] = bitmask of {j : j <= i}."""
        dn = [0] * self.n
        for i in range(self.n):
            m = self.up[i]
            while m:
                j = (m & -m).bit_length() - 1
                dn[j] |= 1 << i
                m &= m - 1
        return tuple(dn)

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
        return [i for i in range(self.n) if self.down[i] == 1 << i]

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


@dataclass(frozen=True)
class CanonicalForm:
    """Permutation-minimal encoding of the order relation.

    code: n as one byte, then the permuted le matrix packed row-major;
        poset_from_code decodes it.
    perm: perm[new_index] = original element achieving the code.
    """

    code: bytes
    perm: tuple


def _dense_ranks(vectors):
    """Each vector's index among the sorted distinct vectors, and their number."""
    index = {v: r for r, v in enumerate(sorted(set(vectors)))}
    return [index[v] for v in vectors], len(index)


def _refined_invariants(p):
    """Per-element invariant ranks, each element's strict upper elements in
    ascending order, and the twin keys when the labelling needs a search.

    A rank is the index of the element's invariant vector among the sorted
    distinct vectors, so the ranks order and split the elements exactly as
    the vectors do. The vectors start as (|up|, |down|, lower covers, upper
    covers); a round replaces an element's vector by (its rank, the sorted
    ranks of its strict lower elements, the sorted ranks of its strict upper
    elements). There are at most two rounds, stopping before a round that
    would split no class.

    Twins (elements with the same strict up-set and strict down-set, their
    twin key) are swapped by an automorphism, so they share every rank, and
    a round splits no class once each class is one twin class. Then the
    only labelling that fills positions class by class with twins in index
    order lists the elements by (rank, index), and the twin keys are None.
    """
    n = p.n
    up = p.up
    strict_up = [up[i] & ~(1 << i) for i in range(n)]
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
    inv, classes = _dense_ranks([
        (len(above[i]) + 1, strict_dn[i].bit_count() + 1, cover_dn[i], cover_up[i])
        for i in range(n)])
    twins = list(zip(strict_up, strict_dn))
    twin_classes = len(set(twins))
    if classes == twin_classes:
        return inv, above, None
    below = [[] for _ in range(n)]
    for i in range(n):
        for j in above[i]:
            below[j].append(i)
    # a refined vector starts with the previous rank, so a round only splits
    # classes and keeps their order; after a round that splits none, every
    # later round splits none either
    for _ in range(2):
        rank = inv.__getitem__
        refined, split = _dense_ranks([
            (inv[i], tuple(sorted(map(rank, below[i]))), tuple(sorted(map(rank, above[i]))))
            for i in range(n)])
        if split == classes:
            break
        inv, classes = refined, split
        if classes == twin_classes:
            return inv, above, None
    return inv, above, twins


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
        row = col[old]
        for j in above[old]:
            row |= col[j]
        bits = bits << n | row
    size = (n * n + 7) // 8
    code = bytes([n]) + (bits << (8 * size - n * n)).to_bytes(size, "big")
    return CanonicalForm(code=code, perm=tuple(perm))
