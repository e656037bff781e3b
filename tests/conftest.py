"""Shared fixtures and small independent oracles for the test suite.

The oracle helpers here deliberately work from first definitions (direct
index scans, full cartesian products) so they share no code paths with the
library functions they are used to check.
"""

import itertools
import random

import pytest

from wkit.search import search
from wkit.seqcore import PmOneSequence, WilliamsonQuadruple


def all_pm_tuples(n):
    """Every ±1 tuple of length n, in itertools order."""
    return list(itertools.product((1, -1), repeat=n))


def symmetric_by_definition(entries):
    """Direct definition scan: entries[i] == entries[(n - i) % n] for all i."""
    n = len(entries)
    return all(entries[i] == entries[(n - i) % n] for i in range(n))


def symmetric_tuples(n):
    """All symmetric ±1 tuples of length n, by filtering the full space."""
    return [t for t in all_pm_tuples(n) if symmetric_by_definition(t)]


def random_pm_sequence(rng, n):
    return PmOneSequence(tuple(rng.choice((1, -1)) for _ in range(n)))


def random_symmetric_sequence(rng, n):
    entries = [0] * n
    for i in range(n // 2 + 1):
        v = rng.choice((1, -1))
        entries[i] = v
        entries[(n - i) % n] = v
    return PmOneSequence(tuple(entries))


def random_quadruple(rng, n):
    return WilliamsonQuadruple(
        random_symmetric_sequence(rng, n),
        random_symmetric_sequence(rng, n),
        random_symmetric_sequence(rng, n),
        random_symmetric_sequence(rng, n),
    )


def make_rng(seed):
    return random.Random(seed)


@pytest.fixture(autouse=True, scope="session")
def _no_order_cap_override():
    """Every test starts without WKIT_MAX_N, which `search` reads; a test
    that sets it uses its own monkeypatch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("WKIT_MAX_N", raising=False)
        yield


@pytest.fixture(scope="session")
def found_by_order():
    """Exhaustive search results for orders 1..8.

    Maps n to (quadruples, report).  Session-scoped: several test modules
    and the acceptance suite all consume the same sets.
    """
    results = {}
    for n in range(1, 9):
        results[n] = search(n)
    return results


@pytest.fixture(scope="session")
def canonical_by_order():
    """Canonical Williamson quadruples of every order 1..20, from the search.

    Maps n to a list of WilliamsonQuadruple.  Session-scoped: the Hall
    kernel and the batched verify tests share them.
    """
    return {n: list(search(n, canonical_only=True)[0]) for n in range(1, 21)}


def double_odd(q):
    """A Williamson quadruple of order 2n from one of odd order n.

    C_2n is C_2 x C_n for odd n, position j going to (j mod 2, j mod n);
    with u the generator of C_2, A+uB, A-uB, C+uD and C-uD have squares
    summing to 2(A^2+B^2+C^2+D^2) = 8n.
    """
    a, b, c, d = (s.entries for s in q.sequences())
    n = len(a)
    if n % 2 == 0:
        raise ValueError("doubling needs odd order")

    def join(x, y, sign):
        return PmOneSequence(tuple(y[j % n] * sign if j % 2 else x[j % n] for j in range(2 * n)))

    return WilliamsonQuadruple(join(a, b, 1), join(a, b, -1), join(c, d, 1), join(c, d, -1))
