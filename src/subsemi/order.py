"""Finite posets and join-semilattices on dense indices 0..n-1.

The order relation is stored as per-element up-set bitmasks so that
upper-bound intersection is a single AND. All structures are immutable
after construction and safe to share across workers.
"""

from dataclasses import dataclass
from functools import cached_property

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

    def relabel(self, perm):
        """New poset with element perm[i] renamed to i (perm maps new -> old)."""
        n = self.n
        pos = [0] * n
        for new, old in enumerate(perm):
            pos[old] = new
        up = []
        for new in range(n):
            m = self.up[perm[new]]
            r = 0
            while m:
                j = (m & -m).bit_length() - 1
                r |= 1 << pos[j]
                m &= m - 1
            up.append(r)
        return Poset(up)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.up == other.up

    def __hash__(self):
        return hash(self.up)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, covers={list(self.covers)})"


def validate_poset(le):
    """Check a square boolean relation for the poset axioms; return a Poset.

    Raises PosetAxiomError carrying the witnessing pair/triple.
    """
    n = len(le)
    for row in le:
        if len(row) != n:
            raise PosetAxiomError("squareness", (len(row), n))
    if n == 0:
        raise PosetAxiomError("nonempty", ())
    for i in range(n):
        if not le[i][i]:
            raise PosetAxiomError("reflexivity", (i,))
    for i in range(n):
        for j in range(n):
            if i != j and le[i][j] and le[j][i]:
                raise PosetAxiomError("antisymmetry", (i, j))
    for i in range(n):
        for j in range(n):
            if not le[i][j]:
                continue
            for k in range(n):
                if le[j][k] and not le[i][k]:
                    raise PosetAxiomError("transitivity", (i, j, k))
    up = []
    for i in range(n):
        m = 0
        for j in range(n):
            if le[i][j]:
                m |= 1 << j
        up.append(m)
    return Poset(up)


class JoinSemilattice(Poset):
    """A poset in which every pair has a least upper bound, with join table."""

    __slots__ = ("join", "top")

    def __init__(self, up, join, top):
        super().__init__(up)
        self.join = join      # n x n tuple of element indices
        self.top = top

    @cached_property
    def nontrivial_joins(self):
        """(i, j, k) for incomparable pairs i < j with join k; the closure constraints."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                k = self.join[i][j]
                if k != i and k != j:
                    out.append((i, j, k))
        return tuple(out)

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
    """Compute the join table of a poset, or raise JoinMissingError(i, j)."""
    n = p.n
    join = []
    for i in range(n):
        row = []
        for j in range(n):
            common = p.up[i] & p.up[j]
            least = None
            m = common
            while m:
                k = (m & -m).bit_length() - 1
                if common & p.up[k] == common:
                    least = k
                    break
                m &= m - 1
            if least is None:
                raise JoinMissingError(i, j)
            row.append(least)
        join.append(tuple(row))
    # with every pair joined, the join of all elements is the one maximal element
    top = next(i for i in range(n) if p.up[i] == 1 << i)
    return JoinSemilattice(p.up, tuple(join), top)


def partial_meet(s, i, j):
    """Greatest lower bound in a join-semilattice, or None when it does not exist."""
    dn = s.down
    common = dn[i] & dn[j]
    m = common
    while m:
        k = (m & -m).bit_length() - 1
        if common & dn[k] == common:
            return k
        m &= m - 1
    return None


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


def _refined_invariants(p):
    """Comparable per-element invariant vectors, two refinement rounds."""
    n = p.n
    up = p.up
    strict_up = [up[i] & ~(1 << i) for i in range(n)]
    above = []
    below = [[] for _ in range(n)]
    cover_up = [0] * n
    cover_dn = [0] * n
    for i in range(n):
        members = []
        reach = 0   # elements strictly above some strict upper bound of i
        m = strict_up[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            members.append(j)
            below[j].append(i)
            reach |= strict_up[j]
        above.append(members)
        for j in members:
            if not reach >> j & 1:
                cover_up[i] += 1
                cover_dn[j] += 1
    inv = [(len(above[i]) + 1, len(below[i]) + 1, cover_dn[i], cover_up[i])
           for i in range(n)]
    for _ in range(2):
        inv = [(inv[i],
                tuple(sorted([inv[j] for j in below[i]])),
                tuple(sorted([inv[j] for j in above[i]])))
               for i in range(n)]
    return inv


def _pack_code(p):
    # row i holds le(i, j) for j = 0..n-1, first bit first; the last byte is
    # padded with zero bits
    n = p.n
    bits = "".join(format(row, f"0{n}b")[::-1] for row in p.up)
    bits += "0" * (-len(bits) % 8)
    return bytes([n]) + int(bits, 2).to_bytes(len(bits) // 8, "big")


def poset_from_code(code):
    """The poset a canonical code encodes, on its canonical labels."""
    n = code[0]
    bits = format(int.from_bytes(code[1:], "big"), f"0{8 * (len(code) - 1)}b")
    return Poset([int(bits[i * n:(i + 1) * n][::-1], 2) for i in range(n)])


def canonical_form(p):
    """Lex-minimal relabeling of a poset over invariant-respecting permutations.

    Equal codes exactly for isomorphic posets; the search is pruned by the
    refined invariant partition, by placing twins in index order, and by
    prefix comparison against the best code found so far. Its cost grows
    with the poset's symmetry rather than with n.
    """
    n = p.n
    if n > 255:
        raise SizeLimitError(f"canonical codes hold n in one byte, so n <= 255; got {n}")
    inv = _refined_invariants(p)
    order = sorted(range(n), key=lambda i: (inv[i], i))
    # position t may only hold elements from the invariant class assigned to t
    slot_class = []
    class_members = []
    for e in order:
        if slot_class and inv[e] == slot_class[-1]:
            class_members[-1].append(e)
        else:
            slot_class.append(inv[e])
            class_members.append([e])
    position_block = []
    for members in class_members:
        position_block.extend([members] * len(members))
    # Twins (same strict up-set and strict down-set) are swapped by an
    # automorphism, so only the labelings that place them in index order
    # are searched: an element waits until its previous twin is placed.
    prev_twin = [None] * n
    last_of = {}
    for e in range(n):
        key = (p.up[e] & ~(1 << e), p.down[e] & ~(1 << e))
        prev_twin[e] = last_of.get(key)
        last_of[key] = e

    up = p.up
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
    return CanonicalForm(code=_pack_code(p.relabel(best_perm)), perm=best_perm)


def are_isomorphic(a, b):
    """Poset (or semilattice) isomorphism through canonical codes."""
    return a.n == b.n and canonical_form(a).code == canonical_form(b).code
