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

Before the key test, an extension is dropped when another in its orbit
under the parent's twin swaps holds lower-indexed twins. Swapping twins is
an automorphism of the parent that leaves every key as it is, so the
dropped children are isomorphic to kept ones and pass or fail the key test
alike. The set of canonical codes still removes every remaining duplicate,
and every extension counts as a candidate whether or not a test dropped it.

A counted run counts the subuniverses of each structure of its last level
in the worker that generates it. The closed sets of a child are those of
its parent, plus each closed set T of the parent with the new element e
added, when T holds e v x for every x in T. So the parent's closed table,
built once, and one AND per new join give the brute-force count, and the
split counter reads the child's clause list: the parent's, plus one clause
per new join, on labels that put the elements in the most clauses first.
"""

from contextlib import nullcontext
from functools import partial

from subsemi import kernel
from subsemi.counting import check_split_agrees, count_subuniverses_checked
from subsemi.errors import SizeLimitError
from subsemi.order import Poset, canonical_form, poset_from_code, to_semilattice


class EnumerationRun:
    """Level n of a run. It is immutable, and equal to another run exactly
    when their four fields are equal:

    n: the size;
    stats: candidates generated, key-tested or not; duplicates rejected;
    codes: the canonical code of each structure, strictly ascending;
    counts: |Sub| of each structure, in code order, when counted, else None.
    """

    __slots__ = ("n", "stats", "codes", "counts", "_structures")

    def __init__(self, n, stats, codes, counts=None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "stats", stats)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_structures", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return self.n, self.stats, self.codes, self.counts

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n!r}, stats={self.stats!r}, "
                f"codes={self.codes!r}, counts={self.counts!r})")

    def __reduce__(self):
        return type(self), self._values()

    @property
    def structures(self):
        """The semilattice each code encodes, in code order, built on first use."""
        if self._structures is None:
            object.__setattr__(self, "_structures", tuple(
                to_semilattice(poset_from_code(code)) for code in self.codes))
        return self._structures


def process_pool(workers):
    """The one process pool of a run: a pool of `workers` processes, or a null
    context yielding None when workers is 1 and all work stays in this process.
    A serial run never imports the pool's modules."""
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def pool_map(pool, fn, items):
    """fn over items in order, in the pool's workers, or here when pool is None."""
    return pool.map(fn, items, chunksize=32) if pool else map(fn, items)


def _upclosed_extensions(parent_up):
    """Valid strict up-sets for a new minimal element below an existing structure,
    in ascending order."""
    pn = len(parent_up)
    # the up-sets are grown from the empty set, adding elements from the top
    # down: an element joins a set that already holds its strict up-set
    upsets = [0]
    for i in sorted(range(pn), key=lambda i: parent_up[i].bit_count()):
        strict = parent_up[i] & ~(1 << i)
        bit = 1 << i
        upsets += [u | bit for u in upsets if strict & u == strict]
    full = (1 << pn) - 1
    ups = set(parent_up)
    out = []
    for u in upsets[1:]:
        # only the x outside u are tested: u holds the up-set of each of its
        # members x, so u meets up(x) in up(x), whose minimum is x. For an
        # up-closed u, u & up(x) has a minimum k exactly when it is up(k)
        rest = full & ~u
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if u & parent_up[x] not in ups:
                break
        else:
            out.append(u)
    out.sort()
    return out


def random_semilattice(rng, n):
    """Uniform-ish random walk over the minimal-extension generation tree."""
    up = (1,)
    for _ in range(n - 1):
        up = up + (rng.choice(_upclosed_extensions(up)) | (1 << len(up)),)
    return to_semilattice(Poset(up))


def _twin_representatives(parent, extensions):
    """The extensions that hold, in every twin class of the parent, its
    lowest-indexed members.

    Twins (elements with the same strict up-set and strict down-set) are
    swapped by an automorphism of the parent, which maps an extension u to
    an isomorphic child's; each orbit of the twin swaps holds exactly one
    of the extensions kept.
    """
    pairs = []   # (earlier twin, next twin) bits, consecutive in index order
    last_of = {}
    strict_up, _, strict_dn, _ = parent.tables
    for i, key in enumerate(zip(strict_up, strict_dn)):
        if key in last_of:
            pairs.append((1 << last_of[key], 1 << i))
        last_of[key] = i
    return [u for u in extensions
            if all(u & earlier or not u & later for earlier, later in pairs)]


def _minimal_key(strict_up, sizes):
    """(|up-set|, sorted up-set sizes of the strict upper bounds) of a minimal element."""
    above = []
    m = strict_up
    while m:
        above.append(sizes[(m & -m).bit_length() - 1])
        m &= m - 1
    above.sort()
    return (len(above) + 1, tuple(above))


def _occurrence_labels(n, joins):
    """The split counter's label of each of n elements: the elements ordered
    by how many of the joins (i, j, k) they occur in, most first, ties by
    index."""
    occurs = [0] * n
    for join in joins:
        for x in join:
            occurs[x] += 1
    labels = [0] * n
    for label, x in enumerate(sorted(range(n), key=lambda x: -occurs[x])):
        labels[x] = label
    return labels


def _count_children(parent, children):
    """{code: |Sub|} for the children of a parent, given as {code: u}, by
    both counting algorithms; raises AssertionError when they disagree.

    The brute-force count reuses the parent's closed table: the new element
    e's joins are e v x = k for each x outside u, where up(k) = u & up(x).
    The split counter reads the child's clause list, on labels of its own:
    the parent's elements ordered by how often they occur in the parent's
    clauses, most first, and e last. The list is the parent's clauses, then
    one per x outside u, so pivot 0 and the first branches fall on the
    elements in the most clauses (the branching rule of DPLL-style model
    counters). It reads e's joins from the child's up-sets itself, so a
    join read wrong for one counter is not read the same way by the other.
    """
    pn = parent.n
    parent_up = parent.up
    sl = to_semilattice(parent)
    closed = kernel.closed_table(pn, sl.closure_constraints())
    joins = sl.nontrivial_joins
    bit = [1 << label for label in _occurrence_labels(pn, joins)]
    clauses = [(bit[i] | bit[j], bit[k]) for i, j, k in joins]
    new_bit = 1 << pn
    element_of = {up: k for k, up in enumerate(parent_up)}
    counts = {}
    for code, u in children.items():
        outside = [x for x in range(pn) if not u >> x & 1]
        brute = kernel.count_closed_below(
            pn, closed, [(x, element_of[u & parent_up[x]]) for x in outside])
        new_up = u | new_bit
        check_split_agrees(pn + 1, clauses + [
            (bit[x] | new_bit, bit[element_of[parent_up[x] & new_up]]) for x in outside],
            brute, f"structure {code.hex()}")
        counts[code] = brute
    return counts


def _expand_parent(code, counted=False):
    """(number of children, {canonical code: |Sub| when counted, else None}
    for the children that pass the twin and key tests) of the parent whose
    canonical code is given.

    A child is canonicalised only when its new element's key is at least the
    key of every other minimal element of the child. The new element lies
    below the parent's elements and above none, so their up-sets, and with
    them the keys, are the parent's; the child's other minimal elements are
    the parent's minimal elements outside u.

    The parent's order is walked once, into its tables (Poset.tables),
    which the twin test reads. Each child that reaches canonical_form is
    built by Poset.with_minimal, which derives the child's tables from the
    parent's in O(|u|), so canonical_form walks no child's order.
    """
    parent = poset_from_code(code)
    parent_up = parent.up
    pn = parent.n
    sizes = [up.bit_count() for up in parent_up]
    minimal_keys = [(1 << i, _minimal_key(parent_up[i] & ~(1 << i), sizes))
                    for i in parent.minimal_elements()]
    extensions = _upclosed_extensions(parent_up)
    children = {}
    for u in _twin_representatives(parent, extensions):
        key = _minimal_key(u, sizes)
        if all(key >= other for bit, other in minimal_keys if not u & bit):
            # siblings often share a code; each is kept, and counted, once
            children.setdefault(canonical_form(parent.with_minimal(u)).code, u)
    if counted:
        return len(extensions), _count_children(parent, children)
    return len(extensions), dict.fromkeys(children)


def enumerate_semilattices(n, workers=1, counted=False):
    """All n-element join-semilattices up to isomorphism, deterministically ordered.

    Each level is kept as the set of its canonical codes, handed out in
    sorted order as the next level's parents; each worker call decodes its
    own parent. The run holds level n's sorted codes, and its structures
    are built from them on first use. Nothing is kept between calls. With
    more than one worker, every level runs in one pool of that many
    processes, opened for the run. When counted, the worker that generates
    a structure of level n also counts its subuniverses, by both
    algorithms, and the run's counts line up with its codes; the parent's
    closed table must fit one kernel block.
    """
    if n < 1:
        raise SizeLimitError("n must be at least 1")
    if counted and n - 1 > kernel.BLOCK_BITS:
        raise SizeLimitError(
            f"counted enumeration limited to n <= {kernel.BLOCK_BITS + 1}, got {n}")
    single = Poset((1,))
    # the one-element structure has no parent to count from
    level = {canonical_form(single).code:
             count_subuniverses_checked(to_semilattice(single)).count
             if counted and n == 1 else None}
    candidates = 1
    with process_pool(workers) as pool:
        for size in range(2, n + 1):
            batches = pool_map(pool, partial(_expand_parent, counted=counted and size == n),
                               sorted(level))
            level = {}
            candidates = 0
            # batches are consumed as they arrive: holding a whole level's
            # batches at once raises the peak memory of a run
            for extensions, children in batches:
                candidates += extensions
                for code, count in children.items():
                    if level.setdefault(code, count) != count:
                        raise AssertionError(
                            f"two parents count structure {code.hex()} differently: "
                            f"{level[code]} != {count}")
    codes = tuple(sorted(level))
    return EnumerationRun(
        n, {"candidates": candidates, "duplicates": candidates - len(codes)},
        codes, tuple(map(level.__getitem__, codes)) if counted else None,
    )
