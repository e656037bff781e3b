"""Product theorems for Williamson sequences and the 2-compression transform.

Williamson quadruples satisfy an entrywise product condition that depends
on the parity of the order n:

  * odd n:  a_i*b_i*c_i*d_i = -a_0*b_0*c_0*d_0  for 1 <= i < n/2;
  * even n = 2m:  a_i*b_i*c_i*d_i = a_{i+m}*b_{i+m}*c_{i+m}*d_{i+m}
    for 0 <= i < m.

For even n the condition can be restated through 2-compression: the four
compressed sequences a'_i = a_i + a_{i+m} sum entrywise to 0 mod 4.

Each condition has one implementation, an integer array kernel on a
(k, 4, n) stack of quadruples of one order: `product_rows` (through
`product_condition`, which takes any stack of product sequences) and
`mod4_rows`.  `wkit verify` calls them once per order on the rows that
passed the Williamson test.  The per-quadruple predicates are one-row
calls of them.  The *_check predicates assert the Williamson
precondition and raise PreconditionError when it fails; `theorem_filter`
and `mod4_filter` are the unguarded variants, run on unverified
quadruples by `wkit check product-filter` and `wkit check mod4-filter`.
They may only reject quadruples that cannot be Williamson.  The search
does not call them: it counts the product condition through xor
signatures (see `search`), read off one `product_condition` call on its
table, and on even orders the mod4 test is the same test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import (
    PmOneSequence,
    PreconditionError,
    WilliamsonQuadruple,
    is_williamson,
    stack_quadruples,
)


@dataclass(frozen=True)
class CompressedSequence:
    """2-compression of an even-length ±1 sequence; entries in {-2, 0, 2}."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if any(v not in (-2, 0, 2) for v in self.entries):
            raise ValueError("compressed entries must be -2, 0, or 2")

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.entries)


def product_condition(products) -> np.ndarray:
    """The parity-appropriate product condition on entrywise product sequences.

    `products` holds sequences p_i = a_i*b_i*c_i*d_i of candidate
    quadruples along its last axis; each p_i is ±1.  Returns a bool array
    over the leading axes (a numpy bool for one sequence).
    """
    p = np.asarray(products)
    n = p.shape[-1]
    if n % 2 == 1:
        return (p[..., 1 : (n + 1) // 2] == -p[..., :1]).all(axis=-1)
    m = n // 2
    return (p[..., :m] == p[..., m:]).all(axis=-1)


def product_rows(quads: np.ndarray) -> np.ndarray:
    """`theorem_filter` of each quadruple of a (k, 4, n) ±1 array, as a (k,) bool array."""
    return product_condition(quads.prod(axis=1))


def mod4_rows(quads: np.ndarray) -> np.ndarray:
    """`mod4_filter` of each quadruple of a (k, 4, n) ±1 array, as a (k,) bool array.

    Folds each sequence in half (entry i becomes s[i] + s[i+m], the
    2-compression) and sums the four folds; every sum must be 0 mod 4.
    Vacuously true on odd orders.
    """
    k, _, n = quads.shape
    if n % 2 != 0:
        return np.ones(k, dtype=bool)
    m = n // 2
    return ~((quads[..., :m] + quads[..., m:]).sum(axis=1) % 4).any(axis=1)


def _one_row(kernel, q: WilliamsonQuadruple) -> bool:
    return bool(kernel(stack_quadruples([q]))[0])


def _require_williamson(q: WilliamsonQuadruple, check: str, parity: str) -> None:
    # The guard of the *_check predicates: the parity ("odd" or "even") of
    # the order first, then the Williamson condition.
    if ("odd" if q.n % 2 else "even") != parity:
        raise PreconditionError(f"{check} requires {parity} order")
    if not is_williamson(q):
        raise PreconditionError(f"{check} requires a Williamson quadruple")


def product_theorem_odd_check(q: WilliamsonQuadruple) -> bool:
    """Odd-order product theorem: entry products flip sign against index 0."""
    _require_williamson(q, "product_theorem_odd_check", "odd")
    return theorem_filter(q)


def product_theorem_even_check(q: WilliamsonQuadruple) -> bool:
    """Even-order product theorem: entry products repeat across half-periods."""
    _require_williamson(q, "product_theorem_even_check", "even")
    return theorem_filter(q)


def compress2(s: PmOneSequence) -> CompressedSequence:
    """Fold an even-length sequence in half: entry i becomes s[i] + s[i+m]."""
    n = s.n
    if n % 2 != 0:
        raise PreconditionError("compress2 requires even length")
    m = n // 2
    e = s.entries
    return CompressedSequence(tuple(e[i] + e[i + m] for i in range(m)))


def corollary_mod4_check(q: WilliamsonQuadruple) -> bool:
    """The four 2-compressions sum entrywise to 0 mod 4 (even-order quadruples)."""
    _require_williamson(q, "corollary_mod4_check", "even")
    return mod4_filter(q)


def theorem_filter(q: WilliamsonQuadruple) -> bool:
    """Unguarded product-condition test for fully assigned search candidates.

    Returns False only when the parity-appropriate product condition is
    violated, so it never rejects a quadruple for which is_williamson holds.
    """
    return _one_row(product_rows, q)


def mod4_filter(q: WilliamsonQuadruple) -> bool:
    """Unguarded compression-sum test; vacuously True for odd orders."""
    return _one_row(mod4_rows, q)
