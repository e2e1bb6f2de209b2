"""Ranking of subuniverse counts over the enumerated universe and claim checks.

rank() computes the distinct counts for all n-element join-semilattices with
both counting algorithms cross-checked. verify_theorem() tests, per claim,
whether the stated value occupies the stated rank and whether its witnesses
are exactly the predicted chain-extended family; failures are report
entries with explicit counterexample witnesses, never exceptions.
verify_lemmas() evaluates every catalog entry against its reported value and
property-tests the bound, monotonicity, and chain-invariance lemmas.
"""

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from subsemi import analysis, catalog
from subsemi.counting import enumerate_subuniverses, sigma, sigma_trace_bound
from subsemi.enumeration import enumerate_semilattices, process_pool, random_semilattice

CLAIMS = (
    ("i", 4, Fraction(25), "H5"),
    ("ii", 5, Fraction(49, 2), "H3_B4"),
    ("iii", 6, Fraction(24), "K3"),
)

TOP3_EXPECTED = (Fraction(32), Fraction(28), Fraction(26))

# the random lemma suites: a fixed seed keeps verify-lemmas' output fixed
LEMMA_SEED = 20260811
LEMMA_INSTANCES = 120


@dataclass(frozen=True)
class RankingReport:
    n: int
    values: tuple          # distinct counts, descending
    witnesses: dict        # count -> tuple of canonical code hex strings
    family_check: tuple    # ClaimCheck for the three ranked claims


@dataclass(frozen=True)
class ClaimCheck:
    claim: str             # "i" | "ii" | "iii"
    n: int
    expected_rank: int     # 4 | 5 | 6
    expected_sigma: Fraction
    status: str            # "verified" | "failed" | "size-infeasible"
    expected_count: int = None
    value_present: bool = False
    value_at_rank: bool = False
    count_at_rank: int = None
    witnesses_equal_family: bool = False
    extra_witnesses: tuple = ()
    missing_witnesses: tuple = ()
    notes: str = ""


def _rank_data(n, workers=1):
    # the worker that generates a structure of level n counts it, by both
    # algorithms; the run's counts line up with its sorted codes, so the
    # report is the same for any worker count
    with process_pool(workers) as pool:
        run = enumerate_semilattices(n, pool, counted=True)
    by_value = {}
    for code, count in zip(run.codes, run.counts):
        by_value.setdefault(count, []).append(code)
    values = tuple(sorted(by_value, reverse=True))
    witnesses = {v: tuple(sorted(c.hex() for c in by_value[v])) for v in values}
    return values, witnesses


def _check_claim(n, values, witnesses, claim, expected_rank, core_sigma, core_id,
                 rank_shift=0):
    expected = core_sigma * Fraction(2) ** (n - 5)
    if expected.denominator != 1:
        return ClaimCheck(
            claim=claim, n=n, expected_rank=expected_rank, expected_sigma=core_sigma,
            status="size-infeasible",
            notes=f"{expected} is not an integer, so no {n}-element structure attains it",
        )
    expected_count = int(expected)
    note_shift = ""
    if rank_shift:
        expected_rank -= rank_shift
        note_shift = (f"rank adjusted to {expected_rank}: {rank_shift} preceding "
                      "claimed value(s) are unrealizable at this size | ")
    family = tuple(sorted(c.hex() for c in analysis.family_codes(core_id, n)))
    got = witnesses.get(expected_count, ())
    idx = expected_rank - 1
    at_rank = idx < len(values) and values[idx] == expected_count
    equal = got == family
    extra = tuple(sorted(set(got) - set(family)))
    missing = tuple(sorted(set(family) - set(got)))
    notes = note_shift
    if not at_rank:
        actual_rank = values.index(expected_count) + 1 if expected_count in values else None
        notes += (f"value {expected_count} has rank {actual_rank}, not {expected_rank}; "
                  f"ranked values: {list(values[:expected_rank + 2])}")
    if extra or missing:
        notes += (" | witness sets differ from the predicted family: "
                  f"{len(extra)} extra, {len(missing)} missing")
    return ClaimCheck(
        claim=claim, n=n, expected_rank=expected_rank, expected_sigma=core_sigma,
        status="verified" if at_rank and equal else "failed",
        expected_count=expected_count,
        value_present=expected_count in values,
        value_at_rank=at_rank,
        count_at_rank=values[idx] if idx < len(values) else None,
        witnesses_equal_family=equal,
        extra_witnesses=extra,
        missing_witnesses=missing,
        notes=notes.strip(" |"),
    )


def rank(n, workers=1):
    """Distinct subuniverse counts at size n, with witnesses and claim checks."""
    values, witnesses = _rank_data(n, workers)
    checks = []
    shift = 0
    for claim, r, s, core in CLAIMS:
        check = _check_claim(n, values, witnesses, claim, r, s, core, rank_shift=shift)
        checks.append(check)
        if check.status == "size-infeasible":
            shift += 1
    return RankingReport(n=n, values=values, witnesses=witnesses,
                         family_check=tuple(checks))


@dataclass(frozen=True)
class TheoremVerification:
    n: int
    claims: tuple
    top3: tuple            # ((count, expected count, matches) for ranks 1..3)

    @property
    def all_passed(self):
        return all(
            c.status == "verified" or c.status == "size-infeasible" for c in self.claims
        )


def verify_theorem(n, workers=1):
    """Check the three ranking claims at size n against the enumerated universe."""
    report = rank(n, workers)
    top3 = []
    for i, exp in enumerate(TOP3_EXPECTED):
        want = exp * Fraction(2) ** (n - 5)
        have = report.values[i] if i < len(report.values) else None
        top3.append((have, int(want) if want.denominator == 1 else str(want),
                     have == want))
    return TheoremVerification(n=n, claims=report.family_check, top3=tuple(top3))


# -- lemma and catalog value verification --------------------------------


@dataclass(frozen=True)
class DiscrepancyEntry:
    location: str
    reported_values: tuple     # reference values as Fractions
    computed: Fraction
    classification: str     # exact-match | rounding | contradiction


@dataclass(frozen=True)
class PropertyResult:
    name: str
    instances: int
    violations: int


@dataclass(frozen=True)
class DiscrepancyReport:
    entries: tuple
    properties: tuple
    notes: tuple

    @property
    def all_passed(self):
        return all(p.violations == 0 for p in self.properties)


def _classify(reported_values, computed, tolerance):
    if len(reported_values) > 1:
        return "contradiction"
    v = reported_values[0]
    if v == computed:
        return "exact-match"
    if abs(computed - v) <= tolerance:
        return "rounding"
    return "contradiction"


def _lemma_properties():
    rng = random.Random(LEMMA_SEED)
    results = []

    violations = 0
    for _ in range(LEMMA_INSTANCES):
        n = rng.randint(2, 8)
        sl = random_semilattice(rng, n)
        subs = [s for s in enumerate_subuniverses(sl) if s]
        k_mask = rng.choice(subs)
        sub = sl.induced(k_mask)
        if sigma(sl) > sigma(sub):
            violations += 1
    results.append(PropertyResult("monotonicity (subsemilattice)", LEMMA_INSTANCES, violations))

    rng = random.Random(LEMMA_SEED + 1)
    violations = 0
    for _ in range(LEMMA_INSTANCES):
        n = rng.randint(2, 8)
        sl = random_semilattice(rng, n)
        h = rng.randrange(1 << n)
        if sigma(sl) > sigma_trace_bound(sl, h):
            violations += 1
    results.append(PropertyResult("trace bound", LEMMA_INSTANCES, violations))

    violations = 0
    checked = 0
    for core_id in analysis.FAMILY_CORES:
        core = catalog.build_named(core_id).structure
        base = sigma(core)
        for total in range(core.n, 11):
            spare = total - core.n + 1
            for c0 in range(spare):
                member = analysis.build_family_member(core, c0, spare - c0)
                checked += 1
                if sigma(member) != base:
                    violations += 1
    results.append(PropertyResult("chain attachment invariance", checked, violations))
    return tuple(results)


def verify_lemmas():
    """Audit every catalog value against its reported one; property-test the lemmas."""
    entries = []
    for id_ in catalog.catalog_ids():
        ns = catalog.build_named(id_)
        if not ns.reported_sigma5:
            continue
        computed = sigma(ns.structure)
        entries.append(DiscrepancyEntry(
            location=f"catalog:{id_}",
            reported_values=ns.reported_sigma5,
            computed=computed,
            classification=_classify(ns.reported_sigma5, computed, ns.tolerance),
        ))
    notes = (
        "the reference remark that the diamond has |Sub|+1 of something is "
        "truncated and unusable; the derived count 14 is relied on instead",
        "case structure H carries two different reported values (21 and 23); the "
        "constraint system as stated yields 26",
        "edge-list structures are read with the inherited-join rule; the "
        "named-joins-only reading does not reproduce the reported counts",
    )
    return DiscrepancyReport(
        entries=tuple(entries),
        properties=_lemma_properties(),
        notes=notes,
    )


# -- JSON-friendly serialization -----------------------------------------


def claim_to_dict(c):
    return {**asdict(c), "expected_sigma": str(c.expected_sigma)}


def ranking_to_dict(r):
    return {
        "n": r.n,
        "values": list(r.values),
        "witnesses": {str(v): list(w) for v, w in r.witnesses.items()},
        "claims": [claim_to_dict(c) for c in r.family_check],
    }


def theorem_to_dict(t):
    return {
        "n": t.n,
        "claims": [claim_to_dict(c) for c in t.claims],
        "top3": [
            {"count": c, "expected": e, "matches": m} for c, e, m in t.top3
        ],
        "all_passed": t.all_passed,
    }


def lemmas_to_dict(d):
    return {
        "entries": [
            {**asdict(e),
             "reported_values": [str(v) for v in e.reported_values],
             "computed": str(e.computed),
             "computed_decimal": float(e.computed)}
            for e in d.entries
        ],
        "properties": [asdict(p) for p in d.properties],
        "notes": list(d.notes),
        "all_passed": d.all_passed,
    }
