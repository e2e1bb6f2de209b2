"""Subuniverse counting, enumeration, and ranking verification for finite
join-semilattices and partial binary algebras."""

from subsemi.analysis import (
    build_family_member,
    matches_family,
    narrows,
)
from subsemi.catalog import (
    NamedStructure,
    build_named,
    catalog_ids,
    chain,
    glued_sum,
    ordinal_sum,
    reconstruct_figure_structures,
)
from subsemi.counting import (
    PartialBinaryAlgebra,
    SubuniverseReport,
    count_subuniverses_bruteforce,
    count_subuniverses_split,
    enumerate_subuniverses,
    sigma,
    sigma_trace_bound,
    split_parts,
)
from subsemi.enumeration import (
    EnumerationRun,
    bruteforce_semilattices,
    enumerate_semilattices,
)
from subsemi.order import (
    CanonicalForm,
    JoinSemilattice,
    Poset,
    are_isomorphic,
    canonical_form,
    to_semilattice,
)
from subsemi.verifier import rank, verify_lemmas, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm", "EnumerationRun", "JoinSemilattice", "NamedStructure",
    "PartialBinaryAlgebra", "Poset", "SubuniverseReport",
    "are_isomorphic", "build_family_member", "build_named",
    "bruteforce_semilattices", "canonical_form", "catalog_ids", "chain",
    "count_subuniverses_bruteforce", "count_subuniverses_split",
    "enumerate_semilattices", "enumerate_subuniverses", "glued_sum",
    "matches_family", "narrows", "ordinal_sum", "rank",
    "reconstruct_figure_structures", "sigma", "sigma_trace_bound",
    "split_parts", "to_semilattice", "verify_lemmas", "verify_theorem",
]
