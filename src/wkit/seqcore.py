"""Core types and checks for Williamson sequences.

A Williamson quadruple is four symmetric circulant ±1 matrices A, B, C, D
of order n satisfying A^2 + B^2 + C^2 + D^2 = 4n*I.  Circulants are
determined by their first row, so the quadruple is stored as four ±1
sequences.  The defining condition is available in two independent forms:
a periodic-autocorrelation sum test (`is_williamson`, the fast path) and
an explicit matrix computation (`matrix_williamson_check`, the oracle).
The two are tested against each other rather than assumed equivalent.

Periodic autocorrelations (PAFs) come from one kernel, `paf_rows`: for a
(k, n) array of ±1 rows it gathers each row's shifted copies through a
per-order index table and multiplies them by the row, one exact int64
matmul for shifts 0..n//2.  `is_williamson` reads the PAFs one sequence
at a time through the `_paf_vector` cache.  The search calls the kernel
once on its whole table of sequences, and `williamson_rows` once on a
(k, 4, n) stack of quadruples (`stack_quadruples`), as `wkit verify`
does for each order.

Text form used across the package: a sequence is a string over '+' and
'-' (e.g. "+--" for [1, -1, -1]); a quadruple is four such strings joined
by ';'.  `rows_to_text` renders every row of a ±1 array at once, for the
search's result lines and the Hadamard matrix text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

# Upper bound on sequence length.  4n and all PAF sums stay tiny at this
# size, so plain machine integers are exact everywhere.
MAX_ORDER = 64


class PreconditionError(ValueError):
    """An operation was called on input that violates its precondition."""


class ParseError(ValueError):
    """Bad sequence/quadruple text.  `column` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


_PM_ONE = {1: 1, -1: -1}


@dataclass(frozen=True)
class PmOneSequence:
    """A ±1 sequence, the first row of a circulant matrix."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        n = len(entries)
        if n < 1:
            raise ValueError("sequence must have at least one entry")
        if n > MAX_ORDER:
            raise ValueError(f"sequence length {n} exceeds cap {MAX_ORDER}")
        # Stored as ints whatever equal values (1.0, True) came; one C-level lookup.
        try:
            signs = itemgetter(*entries)(_PM_ONE)
        except (KeyError, TypeError):
            raise ValueError("entries must be +1 or -1") from None
        object.__setattr__(self, "entries", signs if n > 1 else (signs,))

    @property
    def n(self) -> int:
        return len(self.entries)

    def negated(self) -> "PmOneSequence":
        return PmOneSequence(tuple(-v for v in self.entries))

    def __str__(self) -> str:
        return sequence_to_text(self)


@dataclass(frozen=True)
class WilliamsonQuadruple:
    """Four symmetric ±1 sequences of equal length, candidate or verified.

    Construction enforces the structural invariants (equal lengths, each
    sequence symmetric) but not the defining equation; use `is_williamson`
    or `matrix_williamson_check` for that.
    """

    a: PmOneSequence
    b: PmOneSequence
    c: PmOneSequence
    d: PmOneSequence

    def __post_init__(self):
        n = self.a.n
        if not (self.b.n == n and self.c.n == n and self.d.n == n):
            raise ValueError("all four sequences must have the same length")
        for s in (self.a, self.b, self.c, self.d):
            if not is_symmetric(s):
                raise ValueError(f"sequence {sequence_to_text(s)} is not symmetric")

    @property
    def n(self) -> int:
        return self.a.n

    def sequences(self) -> tuple[PmOneSequence, PmOneSequence, PmOneSequence, PmOneSequence]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return quadruple_to_text(self)


@dataclass(frozen=True, eq=False)
class SquareMatrix:
    """Dense integer matrix, held as a read-only order x order int64 array."""

    array: np.ndarray

    def __post_init__(self):
        a = np.array(self.array)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"matrix must be a non-empty square 2-D array, got shape {a.shape}")
        if a.dtype.kind != "i":
            raise ValueError(f"matrix entries must be integers, got dtype {a.dtype}")
        a = a.astype(np.int64, copy=False)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)

    @property
    def order(self) -> int:
        return self.array.shape[0]


def is_symmetric(s: PmOneSequence) -> bool:
    """True iff s[i] = s[n-i] for all 1 <= i <= n-1 (indices mod n).

    Lengths 1 and 2 are vacuously symmetric.
    """
    return s.entries[1:] == s.entries[:0:-1]


@lru_cache(maxsize=MAX_ORDER)
def _shift_index(n: int) -> np.ndarray:
    # Row k holds (i + k) mod n for i in 0..n-1, k in 0..n//2.
    i = np.arange(n)
    index = (i + i[: n // 2 + 1, None]) % n
    index.setflags(write=False)
    return index


def paf_rows(rows: np.ndarray) -> np.ndarray:
    """PAFs at shifts 0..n//2 of each row of a (k, n) ±1 array.

    Returns a (k, n//2 + 1) int64 array: entry [r, j] is
    sum(rows[r, i] * rows[r, (i + j) % n] for i in range(n)), computed as
    one integer matmul of each row's shifted copies against the row.
    Exact: no sum exceeds n <= MAX_ORDER in size.
    """
    rows = np.asarray(rows, dtype=np.int64)
    shifted = rows.take(_shift_index(rows.shape[1]), axis=1)
    return np.matmul(shifted, rows[:, :, None])[:, :, 0]


# 4,096 entries hold every symmetric sequence of one order up to the
# search's default cap of 20 (at most 2,048), so piping search output into
# `wkit check williamson` computes each PAF vector once.
@lru_cache(maxsize=1 << 12)
def _paf_vector(entries: tuple[int, ...]) -> tuple[int, ...]:
    # Every shift 0..n-1; callers index into this.  The kernel gives shifts
    # 0..n//2, and paf(s, k) = paf(s, n - k) gives the rest.
    half = paf_rows(np.array([entries]))[0].tolist()
    return tuple(half + half[(len(entries) - 1) // 2 : 0 : -1])


def paf(s: PmOneSequence, shift: int) -> int:
    """Periodic autocorrelation of s at the given shift in [0, n)."""
    n = s.n
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} out of range [0, {n})")
    return _paf_vector(s.entries)[shift]


def row_sum(s: PmOneSequence) -> int:
    """Sum of the entries of s."""
    return sum(s.entries)


def is_williamson(q: WilliamsonQuadruple) -> bool:
    """True iff the PAFs of the four sequences sum to zero at every nonzero shift.

    Each sequence's PAF vector comes from the `paf_rows` kernel, through a
    cache keyed by its entries.  Only shifts 1..n//2 are compared;
    paf(s, k) = paf(s, n-k) makes the rest redundant.  The shift-0 value
    is 4n automatically for ±1 entries.
    """
    n = q.n
    va = _paf_vector(q.a.entries)
    vb = _paf_vector(q.b.entries)
    vc = _paf_vector(q.c.entries)
    vd = _paf_vector(q.d.entries)
    return all(va[k] + vb[k] + vc[k] + vd[k] == 0 for k in range(1, n // 2 + 1))


def stack_quadruples(quads) -> np.ndarray:
    """The (k, 4, n) int64 ±1 array of k quadruples of one order n."""
    return np.array([(q.a.entries, q.b.entries, q.c.entries, q.d.entries) for q in quads], np.int64)


def williamson_rows(quads: np.ndarray) -> np.ndarray:
    """`is_williamson` of each quadruple of a (k, 4, n) ±1 array, as a (k,) bool array.

    One `paf_rows` call on the 4k sequence rows; the PAFs are summed over
    the four slots and must vanish at shifts 1..n//2.
    """
    k, _, n = quads.shape
    sums = paf_rows(quads.reshape(4 * k, n)).reshape(k, 4, n // 2 + 1).sum(axis=1)
    return ~sums[:, 1:].any(axis=1)


def circulant(s: PmOneSequence) -> SquareMatrix:
    """The circulant matrix with first row s: M[i][j] = s[(j-i) mod n]."""
    n = s.n
    i = np.arange(n)
    return SquareMatrix(np.array(s.entries, dtype=np.int64)[(i - i[:, None]) % n])


# 1,024 squares are at most 32 MB at n = 64.  A search output up to n = 18
# has at most 2^10 distinct sequences, so piping it into `wkit check
# matrix-williamson` squares each one once.
@lru_cache(maxsize=1 << 10)
def _circulant_square(entries: tuple[int, ...]) -> np.ndarray:
    c = circulant(PmOneSequence(entries)).array
    sq = c @ c
    sq.setflags(write=False)
    return sq


def matrix_williamson_check(q: WilliamsonQuadruple) -> bool:
    """Oracle form of the Williamson condition by explicit matrix arithmetic.

    Expands each sequence to its circulant, squares it by real matrix
    multiplication, sums the four squares, subtracts 4n from the diagonal
    and checks that every entry is then 0.  Exact integer arithmetic
    throughout.
    """
    n = q.n
    # A new array: the cached squares are read-only and stay unchanged.
    acc = _circulant_square(q.a.entries) + _circulant_square(q.b.entries)
    acc += _circulant_square(q.c.entries)
    acc += _circulant_square(q.d.entries)
    acc.flat[:: n + 1] -= 4 * n
    return not acc.any()


# ---------------------------------------------------------------------------
# Text form


def sequence_to_text(s: PmOneSequence) -> str:
    return "".join("+" if v == 1 else "-" for v in s.entries)


def quadruple_to_text(q: WilliamsonQuadruple) -> str:
    return ";".join(sequence_to_text(s) for s in q.sequences())


def rows_to_text(rows: np.ndarray) -> list[str]:
    """The '+'/'-' text of each row of a 2-D ±1 array."""
    signs = np.where(rows == 1, ord("+"), ord("-")).astype(np.uint8)
    return [row.tobytes().decode() for row in signs]


_SIGNS = {"+": 1, "-": -1}


def _signs(part: str, column: int) -> PmOneSequence:
    # `part` is non-empty and its first character sits at 1-based `column`.
    entries = tuple(map(_SIGNS.get, part))
    if None in entries:
        i = entries.index(None)
        raise ParseError(f"unexpected character {part[i]!r}", column=column + i)
    return PmOneSequence(entries)


def parse_sequence(text: str) -> PmOneSequence:
    """Parse a '+'/'-' string; rejects any other character.

    Surrounding whitespace is ignored; error columns count from the start
    of `text`.
    """
    body = text.strip()
    start = len(text) - len(text.lstrip())
    if not body:
        raise ParseError("empty sequence", column=start + 1)
    return _signs(body, start + 1)


def parse_quadruple(text: str) -> WilliamsonQuadruple:
    """Parse four ';'-joined sign strings into a quadruple.

    Raises ParseError for malformed text and ValueError (from the
    quadruple constructor) for structurally invalid sequences.
    """
    body = text.strip()
    start = len(text) - len(text.lstrip())
    if not body:
        raise ParseError("empty quadruple", column=start + 1)
    parts = body.split(";")
    if len(parts) != 4:
        raise ParseError(
            f"expected 4 ';'-separated sequences, got {len(parts)}", column=start + len(body)
        )
    seqs = []
    column = start + 1
    for part in parts:
        if not part:
            raise ParseError("empty sequence in quadruple", column=column)
        seqs.append(_signs(part, column))
        column += len(part) + 1
    return WilliamsonQuadruple(*seqs)
