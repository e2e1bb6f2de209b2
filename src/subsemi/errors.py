"""Exception types shared across the package."""


class SubsemiError(Exception):
    """Base class for all package errors."""


class PosetAxiomError(SubsemiError, ValueError):
    """A relation violates a poset axiom. Carries a witnessing tuple."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness}")


class JoinMissingError(SubsemiError, ValueError):
    """A pair of elements has no least upper bound."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"no least upper bound for elements ({i}, {j})")


class NoUniqueBottomError(SubsemiError, ValueError):
    """Glued sum requires the upper summand to have a unique bottom."""


class SizeLimitError(SubsemiError, ValueError):
    """Requested size exceeds the documented limit of an operation."""


class ConfigError(SubsemiError, ValueError):
    """A flag or environment variable holds a value the program cannot use."""


class UnknownStructureError(SubsemiError, KeyError):
    """Catalog id not recognised."""

    def __str__(self):
        # KeyError's own str is the repr of the key
        return f"unknown catalog id {self.args[0]!r}"


class NoMatchError(SubsemiError, RuntimeError):
    """A reconstruction search found no structure satisfying its constraints."""
