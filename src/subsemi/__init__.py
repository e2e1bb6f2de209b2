"""Subuniverse counting, enumeration, and ranking verification for finite
join-semilattices and partial binary algebras.

Importing the package loads none of its modules. Each public name, and each
submodule, is imported on first access (PEP 562), so a caller pays only for
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "analysis": ("build_family_member", "matches_family", "narrows"),
    "catalog": ("NamedStructure", "build_named", "catalog_ids", "chain", "glued_sum",
                "ordinal_sum", "reconstruct_figure_structures"),
    "cli": (),
    "counting": ("PartialBinaryAlgebra", "SubuniverseReport",
                 "count_subuniverses_bruteforce", "count_subuniverses_split",
                 "enumerate_subuniverses", "sigma", "sigma_trace_bound", "split_parts"),
    "enumeration": ("EnumerationRun", "enumerate_semilattices"),
    "errors": (),
    "jsonio": (),
    "kernel": (),
    "order": ("CanonicalForm", "JoinSemilattice", "Poset", "canonical_form",
              "to_semilattice"),
    "verifier": ("rank", "verify_lemmas", "verify_theorem"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_OWNER.update((module, module) for module in _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{owner}")
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_OWNER))
