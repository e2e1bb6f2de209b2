"""Seeded random semilattices for the lemma property suites."""

from subsemi.enumeration import _upclosed_extensions
from subsemi.order import Poset, to_semilattice


def random_semilattice(rng, n):
    """Uniform-ish random walk over the minimal-extension generation tree."""
    up = (1,)
    for _ in range(n - 1):
        choices = _upclosed_extensions(up)
        u = rng.choice(choices)
        up = up + (u | (1 << len(up)),)
    return to_semilattice(Poset(up))
