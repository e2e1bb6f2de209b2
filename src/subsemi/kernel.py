"""Closed-subset counting kernel, bit-parallel over truth tables.

A constraint (pair_mask, result_mask) means: any subset containing all of
pair_mask must also intersect result_mask. A subset s of {0..n-1} is read
as the integer s, and a set of subsets as an integer whose bit s is set iff
s belongs to it (Knuth, TAOCP 4A, section 7.1.3). The 2^n subsets are taken
in blocks of 2^B, where the low B elements vary inside a block and the high
elements are fixed by the block's index h. Inside a block, the subsets that
contain element i form the periodic table var[i], so the subsets a
constraint rejects are the AND of the var[i] over its low pair bits, AND NOT
the var[k] over its low result bits, on the blocks whose h holds its high
pair bits and misses its high result bits. One block is one Python integer
of 2^B bits, so memory stays bounded whatever n is. A structure of at most
B elements fits one block, and the closed table of a parent counts each
structure one element larger with one AND per new join (count_closed_below).

The plain scan this kernel is tested against is tests/_pycount.py.
"""

from functools import cache
from itertools import compress

from subsemi.errors import SizeLimitError

BLOCK_BITS = 16

_BIT_OF_CHAR = bytes.maketrans(b"01", b"\x00\x01")


@cache
def _var_tables(b):
    """The tables var[i], i < b, over the 2^b subsets of a block; bit s of
    var[i] is bit i of s. Built once per block width (b * 2^b bits)."""
    size = 1 << b
    var = []
    for i in range(b):
        # runs of 2^i zeros, then 2^i ones
        table, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < size:
            table |= table << width
            width <<= 1
        var.append(table)
    return tuple(var)


def _blocks(n, constraints):
    """Yield (first subset, closed table) for each block, in ascending order."""
    b = min(n, BLOCK_BITS)
    full = (1 << (1 << b)) - 1
    low = (1 << b) - 1
    var = _var_tables(b)
    groups = {}
    for pm, rb in constraints:
        bad = full
        bits = pm & low
        while bits:
            bad &= var[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        bits = rb & low
        while bits:
            bad &= ~var[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        if bad:
            key = (pm >> b, rb >> b)
            groups[key] = groups.get(key, 0) | bad
    groups = list(groups.items())
    for h in range(1 << (n - b)):
        bad = 0
        for (pm_high, rb_high), table in groups:
            if pm_high & h == pm_high and not rb_high & h:
                bad |= table
        yield h << b, full & ~bad


def count_closed(n, constraints):
    """Number of subsets of {0..n-1} closed under every constraint."""
    return sum(closed.bit_count() for _, closed in _blocks(n, constraints))


def closed_table(n, constraints):
    """The closed table of a structure that fits one block: bit s is set iff
    subset s of {0..n-1} is closed under every constraint."""
    if n > BLOCK_BITS:
        raise SizeLimitError(f"a closed table holds one block, so n <= {BLOCK_BITS}; got {n}")
    ((_, closed),) = _blocks(n, constraints)
    return closed


def count_closed_below(n, closed, joins):
    """Number of closed subsets of a structure grown by one element, n, below
    some of the others.

    closed is the closed table of elements 0..n-1 from closed_table, and
    joins lists (x, the join of x and n) for each x not above n. A closed
    set without n is a closed set of the old elements; one with n is such a
    set plus n that holds the join of x and n whenever it holds x, which is
    one AND per pair of tables.
    """
    var = _var_tables(n)
    holding = closed
    for x, k in joins:
        holding &= ~var[x] | var[k]
    return closed.bit_count() + holding.bit_count()


def enumerate_closed(n, constraints):
    """Ascending list of all closed subsets as bitmasks."""
    out = []
    for first, closed in _blocks(n, constraints):
        # bin() lists bits from the top; reversed, character j is bit j
        bits = bin(closed)[:1:-1].encode().translate(_BIT_OF_CHAR)
        out.extend(compress(range(first, first + len(bits)), bits))
    return out
