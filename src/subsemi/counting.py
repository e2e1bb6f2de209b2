"""Subuniverse counting for total join-semilattices and partial binary algebras.

Two independent algorithms are provided: a full 2^n closed-subset count
(count_subuniverses_bruteforce, backed by the bit-parallel truth-table
kernel in subsemi.kernel) and a recursive case split on a pivot element
with forced-in/forced-out propagation (count_subuniverses_split);
count_subuniverses_checked runs both and raises, through
check_split_agrees, when they disagree. Relative counts sigma_k are exact
dyadic rationals throughout.
"""

from collections import namedtuple
from fractions import Fraction

from subsemi import kernel
from subsemi.errors import SizeLimitError

BRUTE_MAX_N = 25
ENUM_MAX_N = 20
DEFAULT_K = 5


class PartialBinaryAlgebra:
    """n elements with a join defined only on selected pairs.

    defined_joins holds (i, j, k) triples with i < j meaning i v j = k.
    No associativity or order axioms are imposed; the structures from
    case analyses are plain constraint systems. An instance is immutable,
    and equal to another exactly when both fields are.
    """

    __slots__ = ("n", "defined_joins")

    def __init__(self, n, defined_joins):
        if n < 1:
            raise ValueError("partial algebras here are nonempty; n = 0 is rejected")
        triples = []
        seen = set()
        for i, j, k in defined_joins:
            if i == j:
                raise ValueError(f"join of ({i}, {j}) is not a pair")
            a, b = min(i, j), max(i, j)
            if not (0 <= a and b < n and 0 <= k < n):
                raise ValueError(f"join ({i}, {j}) -> {k} out of range for n={n}")
            if (a, b) in seen:
                raise ValueError(f"pair ({a}, {b}) defined twice")
            seen.add((a, b))
            triples.append((a, b, k))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "defined_joins", tuple(sorted(triples)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.defined_joins) == (other.n, other.defined_joins)

    def __hash__(self):
        return hash((self.n, self.defined_joins))

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n!r}, "
                f"defined_joins={self.defined_joins!r})")

    def __reduce__(self):
        return type(self), (self.n, self.defined_joins)

    def closure_constraints(self):
        return [
            ((1 << i) | (1 << j), 1 << k)
            for i, j, k in self.defined_joins
            if k != i and k != j
        ]


class SubuniverseReport(namedtuple("SubuniverseReport", "count k n")):
    """Exact |Sub(.)| plus the relative count sigma_k = count * 2^(k-n)."""

    __slots__ = ()

    @property
    def sigma(self):
        return sigma_value(self.count, self.n, self.k)


def sigma_value(count, n, k=DEFAULT_K):
    """count * 2^(k-n) as an exact Fraction."""
    if k >= n:
        return Fraction(count << (k - n))
    return Fraction(count, 1 << (n - k))


def check_brute_size(n):
    """Raise SizeLimitError unless brute force can count n elements; a caller
    that knows n before it builds a structure checks it here first."""
    if n > BRUTE_MAX_N:
        raise SizeLimitError(f"brute force limited to n <= {BRUTE_MAX_N}, got {n}")


def count_subuniverses_bruteforce(a, k=DEFAULT_K):
    """Exact count by scanning all 2^n subsets with the bitmask closure test."""
    if a.n > BRUTE_MAX_N:
        raise SizeLimitError(f"brute force limited to n <= {BRUTE_MAX_N}, got {a.n}")
    count = kernel.count_closed(a.n, a.closure_constraints())
    return SubuniverseReport(count=count, k=k, n=a.n)


def enumerate_subuniverses(a):
    """All closed subsets as an ascending list of bitmasks."""
    if a.n > ENUM_MAX_N:
        raise SizeLimitError(f"enumeration limited to n <= {ENUM_MAX_N}, got {a.n}")
    return kernel.enumerate_closed(a.n, a.closure_constraints())


def sigma(a, k=DEFAULT_K):
    """Relative number of subuniverses sigma_k(a), an exact dyadic rational."""
    return count_subuniverses_bruteforce(a, k).sigma


# -- recursive case-split counter (independent second algorithm) -------


def _propagate(clauses, in_mask, out_mask):
    """Apply decisions to clauses until fixpoint.

    Returns (clauses, in_mask, out_mask) or None on contradiction. A clause
    with consequent 0 is a forbidden antecedent: once all of it but one
    member is in, that member is forced out, as a clause with an empty
    antecedent forces its consequent in.
    """
    while True:
        forced = banned = 0
        nxt = []
        for ant, cons in clauses:
            if ant & out_mask:
                continue                      # vacuous: an antecedent member is out
            ant &= ~in_mask
            if cons & in_mask:
                continue                      # satisfied
            if cons & out_mask:
                cons = 0
            if ant == 0:
                if cons == 0:
                    return None               # forbidden set fully present
                forced |= cons
                continue
            if cons == 0 and ant & (ant - 1) == 0:
                banned |= ant                 # its last undecided member must stay out
                continue
            nxt.append((ant, cons))
        if not (forced or banned):
            return nxt, in_mask, out_mask
        in_mask |= forced
        out_mask |= banned
        if in_mask & out_mask:
            return None
        clauses = nxt


def _count(n, clauses, in_mask, out_mask):
    """Closed subsets containing in_mask and avoiding out_mask, by case splitting;
    propagation leaves the in-set closed, so every leaf holds a subuniverse."""
    state = _propagate(clauses, in_mask, out_mask)
    if state is None:
        return 0
    clauses, in_mask, out_mask = state
    free = n - (in_mask | out_mask).bit_count()
    if not clauses:
        return 1 << free
    if len(clauses) == 1:
        # every assignment but those holding the antecedent and missing the
        # consequent: both are undecided, and no consequent is in its antecedent
        ant, cons = clauses[0]
        return (1 << free) - (1 << (free - (ant | cons).bit_count()))
    # propagation keeps every remaining antecedent nonempty and undecided
    ant0 = clauses[0][0]
    bit = ant0 & -ant0
    return (_count(n, clauses, in_mask, out_mask | bit)
            + _count(n, clauses, in_mask | bit, out_mask))


def _pivot_split(n, clauses, pivot):
    """(closed subsets avoiding the pivot, closed subsets containing it)."""
    if not 0 <= pivot < n:
        raise ValueError(f"pivot {pivot} out of range")
    return _count(n, clauses, 0, 1 << pivot), _count(n, clauses, 1 << pivot, 0)


def count_subuniverses_split(a, pivot, k=DEFAULT_K):
    """Exact count as (subsets avoiding the pivot) + (subsets containing it).

    Recursive case split with unit propagation; independent of the
    brute-force scan.
    """
    count = sum(_pivot_split(a.n, a.closure_constraints(), pivot))
    return SubuniverseReport(count=count, k=k, n=a.n)


def check_split_agrees(n, clauses, brute, structure):
    """Raise AssertionError unless the split counter, pivot 0, finds brute
    subsets of {0..n-1} closed under clauses; brute is the count the other
    algorithm found, and structure names what was counted in the message."""
    split = sum(_pivot_split(n, clauses, 0))
    if split != brute:
        raise AssertionError(f"counting algorithms disagree: {brute} != {split} on {structure}")


def count_subuniverses_checked(a, k=DEFAULT_K):
    """The brute-force count, raising AssertionError unless the split count agrees."""
    report = count_subuniverses_bruteforce(a, k)
    check_split_agrees(a.n, a.closure_constraints(), report.count, a)
    return report


def split_parts(a, pivot):
    """The pivot decomposition used throughout the case analyses, as the
    tuple (avoiding, containing_disjoint, containing_meeting): the closed S
    with the pivot not in S; with it in S and S disjoint from rest; with it
    in S and S meeting rest, where rest is every element of the semilattice
    a except the pivot and the top."""
    clauses = a.closure_constraints()
    avoiding, containing = _pivot_split(a.n, clauses, pivot)
    rest_mask = ((1 << a.n) - 1) & ~(1 << pivot) & ~(1 << a.top)
    disjoint = _count(a.n, clauses, 1 << pivot, rest_mask)
    return avoiding, disjoint, containing - disjoint


# -- trace bound --------------------------------------------------------


def _close(joins, closed, e):
    """The closure of closed | {e}, for closed already closed: a worklist
    over the joins of the newly added elements only."""
    closed |= 1 << e
    todo = [e]
    while todo:
        for other, r in joins[todo.pop()]:
            if closed & other and not closed >> r & 1:
                closed |= 1 << r
                todo.append(r)
    return closed


def _count_traces(joins, members, i, closed, out):
    """Traces extending the decisions on members[:i]: closed is the closure
    of the members taken, out the mask of those left out."""
    while i < len(members) and closed >> members[i] & 1:
        i += 1                                # already in the closure: forced in
    if i == len(members):
        return 1
    e = members[i]
    count = _count_traces(joins, members, i + 1, closed, out | 1 << e)
    closed = _close(joins, closed, e)
    if not closed & out:
        count += _count_traces(joins, members, i + 1, closed, out)
    return count


def sigma_trace_bound(L, subset, k=DEFAULT_K):
    """Upper bound t * 2^(k-|H|) where t counts distinct traces H & S over Sub(L);
    subset is the bitmask of H.

    The closed sets are closed under intersection, so T within H is a trace
    exactly when <T> & H == T: the traces are the fixpoints of T -> <T> & H
    (Ganter & Reuter, Order 8, 1991), counted here without listing Sub(L).
    A depth-first walk decides the members of H in ascending order. A member
    already in the closure of those taken is forced in; any other is first
    left out, then taken, and a branch whose closure meets a member left out
    is cut. Every other branch reaches a leaf, one trace each, so the walk
    costs at most |H| * t incremental closures, recurses at most |H| deep,
    and has no limit on n.
    """
    if subset < 0 or subset >> L.n:
        raise ValueError(f"subset {subset:#b} out of range")
    joins = [[] for _ in range(L.n)]          # joins[x]: (bit of y, r) for each x v y = r
    for pair, result in L.closure_constraints():
        i, j = (pair & -pair).bit_length() - 1, pair.bit_length() - 1
        r = result.bit_length() - 1
        joins[i].append((1 << j, r))
        joins[j].append((1 << i, r))
    members = [e for e in range(L.n) if subset >> e & 1]
    return sigma_value(_count_traces(joins, members, 0, 0, 0), len(members), k)
