"""Independent oracle for the wkit benchmark.

Everything here works from first definitions with numpy and imports
nothing from wkit, so a defect in the program cannot hide itself by
also being in the check.

- `williamson_set(n)` is the full set of ordered Williamson quadruples of
  order n, found by a pair-sum join: every ordered pair (A, B) of
  symmetric sequences is keyed by PAF_A + PAF_B at shifts 1..n//2, and it
  completes a quadruple with every pair (C, D) whose key is the negation.
- `brute_force_set(n)` is the matrix-only check of every 4-tuple
  (A² + B² + C² + D² = 4nI with explicit circulants), used by the tests
  to check the join at small n.
- `is_williamson_rows`, `hadamard_ok` and `canonical_text` give the
  per-line verdicts the benchmark compares program output with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# The join keys PAF sums at shifts 1..n//2 into one int64; each sum lies in
# [-2n, 2n], so 4n+1 values per shift must fit in 63 bits.
JOIN_MAX_N = 19


def symmetric_sequences(n: int) -> np.ndarray:
    """All symmetric ±1 sequences of length n, one per row (int8).

    Row r sets entry i (and its mirror n-i) to -1 when bit i of r is set,
    for the free indices 0..n//2.
    """
    free = n // 2 + 1
    bits = (np.arange(1 << free)[:, None] >> np.arange(free)) & 1
    free_part = (1 - 2 * bits).astype(np.int8)
    mirror = [n - i for i in range(free, n)]
    return np.concatenate([free_part, free_part[:, mirror]], axis=1)


def paf_rows(seqs: np.ndarray, shifts: range) -> np.ndarray:
    """PAF of each row of `seqs` (any leading shape) at the given shifts."""
    s = seqs.astype(np.int64)
    return np.stack([(s * np.roll(s, -k, axis=-1)).sum(axis=-1) for k in shifts], axis=-1)


def _encode(sums: np.ndarray, n: int) -> np.ndarray:
    base = 4 * n + 1
    key = np.zeros(sums.shape[0], dtype=np.int64)
    for col in range(sums.shape[1]):
        key = key * base + (sums[:, col] + 2 * n)
    return key


@lru_cache(maxsize=None)
def williamson_set(n: int) -> np.ndarray:
    """Every ordered Williamson quadruple of order n, shape (count, 4, n)."""
    if not 1 <= n <= JOIN_MAX_N:
        raise ValueError(f"join supports orders 1..{JOIN_MAX_N}, not {n}")
    seqs = symmetric_sequences(n)
    count = len(seqs)
    half = n // 2
    if half == 0:
        # No nonzero shift: every quadruple is Williamson.
        idx = np.indices((count,) * 4).reshape(4, -1).T
        return seqs[idx]
    paf = paf_rows(seqs, range(1, half + 1))
    pair_sums = (paf[:, None, :] + paf[None, :, :]).reshape(-1, half)
    keys = _encode(pair_sums, n)
    wanted = _encode(-pair_sums, n)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, wanted, side="left")
    hi = np.searchsorted(sorted_keys, wanted, side="right")
    matches = hi - lo
    ab = np.repeat(np.arange(count * count), matches)
    starts = np.repeat(lo, matches)
    offsets = np.arange(len(ab)) - np.repeat(np.cumsum(matches) - matches, matches)
    cd = order[starts + offsets]
    quads = np.stack([ab // count, ab % count, cd // count, cd % count], axis=1)
    return seqs[quads]


def brute_force_set(n: int) -> np.ndarray:
    """Every ordered quadruple passing the explicit circulant-matrix test."""
    seqs = symmetric_sequences(n).astype(np.int64)
    circ = np.stack([np.stack([np.roll(s, i) for i in range(n)]) for s in seqs])
    squares = circ @ circ
    count = len(seqs)
    total = (
        squares[:, None, None, None]
        + squares[None, :, None, None]
        + squares[None, None, :, None]
        + squares[None, None, None, :]
    )
    hits = np.all(total == 4 * n * np.eye(n, dtype=np.int64), axis=(-2, -1))
    return seqs[np.argwhere(hits)].astype(np.int8)


def sequence_text(row) -> str:
    return "".join("+" if v > 0 else "-" for v in row)


def quad_text(quad) -> str:
    return ";".join(sequence_text(row) for row in quad)


_NEGATE = str.maketrans("+-", "-+")


def canonical_text(quad) -> str:
    """Orbit minimum under per-sequence negation and slot permutation."""
    texts = []
    for row in quad:
        t = sequence_text(row)
        texts.append(min(t, t.translate(_NEGATE)))
    return ";".join(sorted(texts))


def is_williamson_rows(quads: np.ndarray) -> np.ndarray:
    """Williamson verdict for each (4, n) quadruple in `quads` (one order)."""
    n = quads.shape[-1]
    half = n // 2
    if half == 0:
        return np.ones(quads.shape[0], dtype=bool)
    sums = paf_rows(quads, range(1, half + 1)).sum(axis=1)
    return ~np.any(sums, axis=-1)


def double_odd(quads: np.ndarray) -> np.ndarray:
    """Williamson quadruples of order 2n from ones of odd order n.

    C_2n is C_2 x C_n when n is odd, so with u the generator of C_2 the
    elements A+uB, A-uB, C+uD, C-uD have squares summing to
    2(A²+B²+C²+D²) = 8n.  Position j of C_2n maps to (j mod 2, j mod n).
    `quads` has shape (..., 4, n); the result has shape (..., 4, 2n).
    """
    n = quads.shape[-1]
    if n % 2 == 0:
        raise ValueError("doubling needs odd order")
    j = np.arange(2 * n)
    x = quads[..., j % n]
    odd = j % 2 == 1
    out = x[..., [0, 0, 2, 2], :].copy()
    out[..., 0, odd] = x[..., 1, odd]
    out[..., 1, odd] = -x[..., 1, odd]
    out[..., 2, odd] = x[..., 3, odd]
    out[..., 3, odd] = -x[..., 3, odd]
    return out


def parse_lines(lines: list[str]) -> dict[int, tuple[list[int], np.ndarray]]:
    """Group well-formed quadruple lines by order: n -> (line indices, (L, 4, n))."""
    by_order: dict[int, list[int]] = {}
    for i, line in enumerate(lines):
        by_order.setdefault(line.index(";"), []).append(i)
    out = {}
    for n, idx in by_order.items():
        raw = np.frombuffer("".join(lines[i] for i in idx).encode(), dtype=np.uint8)
        raw = raw.reshape(len(idx), 4 * n + 3)
        keep = np.ones(4 * n + 3, dtype=bool)
        keep[[n, 2 * n + 1, 3 * n + 2]] = False
        signs = np.where(raw[:, keep] == ord("+"), 1, -1).astype(np.int8)
        out[n] = (idx, signs.reshape(len(idx), 4, n))
    return out


def hadamard_ok(text: str, quad: np.ndarray) -> bool:
    """`wkit hadamard` output check: 'order 4n', ±1 rows, H·Hᵀ = 4n·I, and
    the top-left n×n block is the circulant of the first sequence.
    """
    lines = text.split("\n")
    n = quad.shape[-1]
    order = 4 * n
    if lines[0] != f"order {order}" or len(lines) != order + 2 or lines[-1] != "":
        return False
    rows = lines[1:-1]
    if any(len(r) != order or r.strip("+-") for r in rows):
        return False
    h = np.array([[1 if ch == "+" else -1 for ch in r] for r in rows], dtype=np.int64)
    if not np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64)):
        return False
    a = quad[0].astype(np.int64)
    circ = np.stack([np.roll(a, i) for i in range(n)])
    return np.array_equal(h[:n, :n], circ)
