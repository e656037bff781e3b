"""Exact arithmetic in the integer group ring of a cyclic group.

An element of Z[C_n] is a coefficient vector (c_0, ..., c_{n-1}) standing
for c_0 + c_1*u + ... + c_{n-1}*u^{n-1} with u^n = 1; multiplication is
cyclic convolution.  A ±1 sequence X embeds as the element with its own
entries as coefficients, and its positive support P_X marks the +1
positions with coefficient 1.

Two identities about Williamson quadruples are implemented here as
independently computed checks:

  * the positive-support square identity
        P_A^2 + P_B^2 + P_C^2 + P_D^2
            = (p_A + p_B + p_C + p_D - n) * (1 + u + ... + u^{n-1}) + n
    where p_X counts the +1 entries of X, and

  * the mod-2 square collapse  P_X^2 = sum over +1 positions i of u^{2i}
    (mod 2), which holds for every ±1 sequence,

together with the parity consequence for even n: among the eight entries
feeding positions k/2 and (k+n)/2 of the four sequences, the number of
+1s is even for every even k.

`gre_mul` is the schoolbook product, kept as the reference.  The two
square identities use one kernel instead, `support_squares`: an exact
int64 cyclic convolution of each 0/1 support with itself over a
(j - i) mod n index table, which is not the PAF shift table, so the Hall
check stays a route independent of `is_williamson`.  `hall_rows` checks
the identity on a (k, 4, n) stack of quadruples at once, as `wkit
verify` does for each order; `hall_identity_check` is a one-row call of it.
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
class GroupRingElement:
    """Element of Z[C_n]: coeffs[i] is the coefficient of u^i."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.n < 1:
            raise ValueError("group order must be positive")
        if len(self.coeffs) != self.n:
            raise ValueError("coefficient count must equal the group order")

    def __str__(self) -> str:
        return " ".join(str(c) for c in self.coeffs)


def gre_from_signs(s: PmOneSequence) -> GroupRingElement:
    """Embed a ±1 sequence as a group ring element, entry i on u^i."""
    return GroupRingElement(s.n, s.entries)


def positive_support(s: PmOneSequence) -> GroupRingElement:
    """The 0/1 element marking the positions where s is +1."""
    return GroupRingElement(s.n, tuple(1 if v == 1 else 0 for v in s.entries))


def positive_count(s: PmOneSequence) -> int:
    """Number of +1 entries of s (the coefficient sum of its positive support)."""
    return sum(1 for v in s.entries if v == 1)


def gre_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Schoolbook cyclic convolution: result[k] = sum over i+j = k (mod n)."""
    if x.n != y.n:
        raise ValueError(f"order mismatch: {x.n} != {y.n}")
    n = x.n
    out = [0] * n
    xc, yc = x.coeffs, y.coeffs
    for i in range(n):
        xi = xc[i]
        if xi == 0:
            continue
        for j in range(n):
            out[(i + j) % n] += xi * yc[j]
    return GroupRingElement(n, tuple(out))


def support_squares(supports: np.ndarray) -> np.ndarray:
    """The square in Z[C_n] of each row of a (k, n) 0/1 array.

    Entry [r, j] is sum(s[r, i] * s[r, (j - i) % n] for i in range(n)),
    the coefficient of u^j, computed as one int64 matmul of each row
    against its gather through a (j - i) mod n index table, so the
    gather holds k*n*n entries.  Exact: no coefficient exceeds n.
    """
    supports = np.asarray(supports, dtype=np.int64)
    i = np.arange(supports.shape[1])
    # Row j of the table holds (j - i) mod n: u^i times u^(j-i) is u^j.
    gathered = supports.take((i[:, None] - i) % len(i), axis=1)
    return np.matmul(gathered, supports[:, :, None])[:, :, 0]


def hall_rows(quads: np.ndarray) -> np.ndarray:
    """The positive-support square identity on each quadruple of a
    (k, 4, n) ±1 array, as a (k,) bool array.

    Squares the 4k positive supports with `support_squares`, sums them
    per quadruple and compares the sum coefficientwise with
    (p_A+p_B+p_C+p_D-n) on every power of u plus an extra n on u^0.  The
    identity is only claimed for Williamson rows.
    """
    k, _, n = quads.shape
    supports = (quads == 1).astype(np.int64)
    lhs = support_squares(supports.reshape(4 * k, n)).reshape(k, 4, n).sum(axis=1)
    lhs[:, 0] -= n
    return (lhs == supports.sum(axis=(1, 2))[:, None] - n).all(axis=1)


def hall_identity_check(q: WilliamsonQuadruple) -> bool:
    """Check the positive-support square identity on a Williamson quadruple.

    A one-row call of `hall_rows`.  The identity is only claimed for
    Williamson input, so a non-Williamson quadruple raises
    PreconditionError instead of returning a meaningless boolean.
    """
    if not is_williamson(q):
        raise PreconditionError("hall_identity_check requires a Williamson quadruple")
    return bool(hall_rows(stack_quadruples([q]))[0])


def mod2_square_check(s: PmOneSequence) -> bool:
    """Check P_X^2 against the doubled-exponent sum, coefficientwise mod 2.

    Holds for every ±1 sequence; kept as a tested oracle, not a filter.
    """
    n = s.n
    support = np.array([s.entries]) == 1
    doubled = np.bincount(2 * np.flatnonzero(support[0]) % n, minlength=n)
    return not ((support_squares(support)[0] - doubled) % 2).any()


def even_coefficient_parity_check(q: WilliamsonQuadruple) -> bool:
    """For even n: every even k sees an even number of +1s among the eight
    entries at positions k/2 and (k+n)/2 of the four sequences.

    This is the counting fact behind the even-order product theorem.  The
    count itself is defined for any even-order quadruple, so no Williamson
    check is performed here; the theorem claim only covers Williamson input.
    """
    n = q.n
    if n % 2 != 0:
        raise PreconditionError("even_coefficient_parity_check requires even order")
    for k in range(0, n, 2):
        i, j = k // 2, (k + n) // 2
        ones = sum(1 for s in q.sequences() for v in (s.entries[i], s.entries[j]) if v == 1)
        if ones % 2 != 0:
            return False
    return True
