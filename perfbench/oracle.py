"""Oracles for the benchmark's outputs, sharing no code with subsemi.

Closure constraints are derived here from the input dicts themselves, and
closed subsets are found with 2^n-bit truth tables held in 64-bit numpy
words: bit s of table v[i] is set iff subset s contains element i, and a
constraint "i and j in S implies k in S" removes the subsets in
v[i] & v[j] & ~v[k]. The audit is checked against the report recorded when
the benchmark was introduced and the published lattice counts (OEIS A006966).
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

K = 5
REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_theorem_n9.json"

# 9-element join-semilattices = lattices on 10 elements, OEIS A006966(10).
SEMILATTICES_N9 = 5994

# Bit patterns of elements 0..5 inside one 64-subset word.
_LOW = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
        0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)


def constraints(data):
    """(n, [(i, j, k)]) with k outside {i, j}, read from a structure dict."""
    if "joins" in data:
        return data["n"], [(i, j, k) for i, j, k in data["joins"] if k not in (i, j)]
    index = {name: pos for pos, name in enumerate(data["labels"])}
    n = len(index)
    up = [1 << i for i in range(n)]
    edges = [(index[lo], index[hi]) for lo, hi in data["covers"]]
    changed = True
    while changed:
        changed = False
        for lo, hi in edges:
            if up[lo] | up[hi] != up[lo]:
                up[lo] |= up[hi]
                changed = True
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            common = up[i] & up[j]
            if common in (up[i], up[j]):
                continue                      # comparable: the join is i or j
            least = [k for k in range(n) if common >> k & 1 and up[k] == common]
            if len(least) != 1:
                raise ValueError(f"elements {i} and {j} have no join")
            out.append((i, j, least[0]))
    return n, out


def closed_table(n, cons):
    """Truth table of the closed subsets of {0..n-1}, n >= 6, as uint64 words."""
    if n < 6:
        raise ValueError("the bit-table oracle needs n >= 6")
    words = np.arange(1 << (n - 6), dtype=np.uint64)
    var = [np.full(words.size, np.uint64(p)) for p in _LOW]
    for i in range(6, n):
        var.append(np.where((words >> np.uint64(i - 6)) & np.uint64(1), _ALL, np.uint64(0)))
    closed = np.full(words.size, _ALL)
    for i, j, k in cons:
        closed &= ~(var[i] & var[j] & ~var[k])
    return closed


def closed_count(table):
    return int(np.bitwise_count(table).sum())


def closed_members(table):
    """Ascending subset masks whose bit is set in the table."""
    bits = np.unpackbits(table.astype("<u8").view(np.uint8), bitorder="little")
    return np.flatnonzero(bits).astype(np.uint64)


def members_digest(members):
    """sha256 of the masks as native unsigned 64-bit integers."""
    return hashlib.sha256(np.ascontiguousarray(members, dtype=np.uint64).tobytes()).hexdigest()


def sigma(count, n, k=K):
    return Fraction(count) * Fraction(2) ** (k - n)


def expected_counts(suite):
    """Per structure of the count_large suite: (n, exact count)."""
    out = []
    for data, closed_form in suite:
        n, cons = constraints(data)
        count = closed_count(closed_table(n, cons))
        if closed_form is not None and closed_form != count:
            raise ValueError(f"closed form {closed_form} != bit-table count {count}")
        out.append((n, count))
    return out


def expected_listings(suite):
    """Per structure of the subuniverses_large suite: (n, count, digest, trace bound)."""
    out = []
    for data, h, closed_form in suite:
        n, cons = constraints(data)
        members = closed_members(closed_table(n, cons))
        if closed_form is not None and closed_form != members.size:
            raise ValueError(f"closed form {closed_form} != bit-table count {members.size}")
        traces = np.unique(members & np.uint64(h)).size
        bound = Fraction(traces) * Fraction(2) ** (K - bin(h).count("1"))
        out.append((n, int(members.size), members_digest(members), bound))
    return out


def reference_audit():
    """The recorded `verify-theorem --n 9 --json` stdout, checked for the known result."""
    raw = REFERENCE.read_bytes()
    report = json.loads(raw)
    claims = {c["claim"]: c for c in report["claims"]}
    known = (
        report["n"] == 9
        and [t["count"] for t in report["top3"]] == [512, 448, 416]
        and claims["i"]["status"] == "verified"
        and claims["ii"]["status"] == "failed"
        and len(claims["ii"]["extra_witnesses"]) == 10
        and claims["iii"]["status"] == "failed"
        and report["all_passed"] is False
    )
    if not known:
        raise ValueError(f"{REFERENCE} does not hold the recorded n=9 audit")
    return raw
