import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from subsemi.analysis import family_members
from subsemi.catalog import build_named, chain, glued_sum
from subsemi.counting import PartialBinaryAlgebra
from subsemi.enumeration import enumerate_semilattices
from subsemi.order import Poset, to_semilattice


def _broom(m):
    """An (m-1)-chain plus one extra minimal element covered by the top."""
    covers = [(i, i + 1) for i in range(m - 2)] + [(m - 1, m - 2)]
    return to_semilattice(Poset.from_covers(m, covers))


def _broom_count(m):
    """|Sub(broom(m))| by hand: the subsets of the chain (2^(m-1)), plus the
    sets holding the pendant, which must hold the top too unless the pendant
    stands alone (2^(m-2) + 1)."""
    return 3 * 2 ** (m - 2) + 1


def _random_partial_algebra(rng, n, max_joins=None):
    """Random constraint system: distinct pairs with arbitrary results."""
    if max_joins is None:
        max_joins = 2 * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_joins, len(pairs)))
    joins = [(i, j, rng.randrange(n)) for i, j in pairs[:m]]
    return PartialBinaryAlgebra(n, joins)


def _run_optimized(source):
    """Run Python source under -O, which strips assert statements, with the
    package importable; returns the completed process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-c", source], capture_output=True,
                          text=True, env=env, timeout=120)


def _half_value_class(n):
    """Predicted complete witness class of 24.5 * 2^(n-5): the claimed family
    with a chain inserted at the glue, plus the 6-element broom family."""
    h3 = build_named("H3").structure
    b4 = build_named("B4").structure
    codes = set()
    for m in range(1, n - 4):
        core = glued_sum(glued_sum(h3, chain(m)), b4)
        if core.n <= n:
            codes |= {c.hex() for c in family_members(core, n)}
    codes |= {c.hex() for c in family_members(_broom(6), n)}
    return codes


@pytest.fixture(scope="session")
def enumerated():
    """The EnumerationRun of a size, generated once for the whole suite."""
    return functools.cache(enumerate_semilattices)


@pytest.fixture(scope="session")
def all_structures(enumerated):
    """Enumerated universes keyed by size, shared across the suite."""
    return {n: enumerated(n).structures for n in range(1, 8)}


@pytest.fixture
def rng():
    return random.Random(20260811)


@pytest.fixture(scope="session")
def named():
    return {id_: build_named(id_) for id_ in
            ("B4", "H3", "H5", "K3", "H3_B4", "C5")}


@pytest.fixture(scope="session")
def random_partial_algebra():
    """Builder of a seeded random partial algebra: random_partial_algebra(rng, n)."""
    return _random_partial_algebra


@pytest.fixture(scope="session")
def broom():
    """Builder of broom(m), for m >= 2."""
    return _broom


@pytest.fixture(scope="session")
def broom_count():
    """Closed form of |Sub(broom(m))|."""
    return _broom_count


@pytest.fixture(scope="session")
def half_value_class():
    """Builder of the witness class of 24.5 * 2^(n-5), as canonical code hex."""
    return _half_value_class


@pytest.fixture(scope="session")
def run_optimized():
    """Runner of Python source in a subprocess under -O."""
    return _run_optimized
