"""Hadamard matrices of order 4n from Williamson quadruples.

The block pattern used here is

    (  A   B   C   D )
    ( -B   A  -D   C )
    ( -C   D   A  -B )
    ( -D  -C   B   A )

with each block the circulant of the corresponding sequence.  Sign
conventions for this array vary across sources, so rather than trusting
any one of them, every construction in this package is verified by
`is_hadamard` (H * H^T = order * I, computed exactly).

A matrix is a `SquareMatrix`: one read-only order x order int64 array.
The blocks, the assembled array, the Hadamard check and the text form all
work on that array directly.  Every entry of H * H^T is bounded by the
order in magnitude, so int64 arithmetic is exact.
"""

from __future__ import annotations

import numpy as np

from .seqcore import (
    PreconditionError,
    SquareMatrix,
    WilliamsonQuadruple,
    circulant,
    is_williamson,
    rows_to_text,
)


def williamson_array(q: WilliamsonQuadruple) -> SquareMatrix:
    """Assemble the 4n x 4n block matrix from a verified Williamson quadruple."""
    if not is_williamson(q):
        raise PreconditionError("williamson_array requires a Williamson quadruple")
    a, b, c, d = (circulant(s).array for s in q.sequences())
    block = np.block(
        [
            [a, b, c, d],
            [-b, a, -d, c],
            [-c, d, a, -b],
            [-d, -c, b, a],
        ]
    )
    return SquareMatrix(block)


def _require_pm_one(m: SquareMatrix, what: str) -> None:
    if not (np.abs(m.array) == 1).all():
        raise ValueError(f"{what} requires ±1 entries")


def is_hadamard(m: SquareMatrix) -> bool:
    """True iff M * M^T equals order * I.  Entries must all be ±1."""
    _require_pm_one(m, "is_hadamard")
    h = m.array
    return np.array_equal(h @ h.T, m.order * np.eye(m.order, dtype=np.int64))


def matrix_to_text(m: SquareMatrix) -> str:
    """Matrix text form: "order N" then one '+'/'-' row per line."""
    _require_pm_one(m, "matrix text form")
    return "\n".join([f"order {m.order}", *rows_to_text(m.array)])
