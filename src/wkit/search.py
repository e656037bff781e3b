"""Exhaustive enumeration of Williamson quadruples of a given order.

A quadruple (A, B, C, D) of symmetric sequences is Williamson iff
PAF_A + PAF_B = -(PAF_C + PAF_D) at every shift in 1..m, where m = n//2.
The search is a meet-in-the-middle self-join on those pair sums, done on
integer arrays, so the work is count^2 pairs instead of count^4
quadruples, where count = 2^(m+1) is the number of symmetric sequences of
order n:

  table     - the symmetric sequences as one (count, n) ±1 int64 array,
              `symmetric_table`, whose row order is text order; and their
              PAFs at shifts 1..m, one `seqcore.paf_rows` call on it.
  keys      - one int64 key per ordered pair (A, B).  Every PAF of a ±1
              sequence of length n is congruent to n mod 4, so a pair sum s
              lies in [-2n, 2n] with (s + 2n)/4 a digit in 0..n.  The key
              packs the m digits in base n+1.  Packing is linear, so each
              sequence is packed once, shift by shift, and a pair's key is
              a sum of two packed values: the count^2 x m array of pair sums
              is never held.  Negating the sums maps each digit d to n - d,
              so a pair with key K meets exactly the pairs with key
              (n+1)^m - 1 - K.  Keys fit int64 while (n+1)^m <= 2^63, that
              is up to order KEY_MAX_N.
  join      - the keys are argsorted, and each pair's wanted key is looked
              up with searchsorted.  Each match is one index row
              (a, b, c, d); sorting the rows by their flat index in a
              count^4 grid puts the result lines in text order.
  re-check  - every row is checked again exactly: its four PAF rows must
              sum to 0 at every shift, or the search raises RuntimeError.
  canonical - negation maps index i to count-1-i, so a row's minimum under
              sequence negations and slot permutations is the sorted
              min(i, count-1-i) of its slots, and np.unique of their flat
              indices gives the canonical representatives in text order.

`search(n, canonical_only=False)` is the one entry point.  It returns the
rows as a `SearchResults`: a read-only sequence over the table and the
rows that builds a `WilliamsonQuadruple` only when an item is accessed.
`format_results` writes each line from `seqcore.rows_to_text` of the table.
Before any work it refuses an order outside 1..`order_cap()`: the
environment variable WKIT_MAX_N if set, checked against 1..KEY_MAX_N, and
ORDER_CAP otherwise.  `wkit search` calls `search`, so the command line
and the library refuse the same orders with the same message.

Two necessary conditions on a full candidate, the row-sum test and then
the product test, are not applied during the join: every Williamson
quadruple passes both, so they could never change the result set.  The
report instead gives exactly how much each would prune from the count^4
candidate space, in that order:

  rowsum   - the four row sums must have squares summing to 4n;
  product  - the parity-appropriate entrywise product condition.

The row sum s of any symmetric sequence of order n already has |s| <= n
and s = n (mod 2), so the squares-sum equation is the whole row-sum
condition.  The product signature of a sequence is xor-linear: the
signature of the entrywise product of a quadruple is the xor of its four
signatures, and the product condition holds iff that xor equals a fixed
target.  With H(q, x) the number of ordered pairs (A, B) with
s_A^2 + s_B^2 = q and sig_A ^ sig_B = x, and H(q) the sum of H(q, x) over x,
both int64 arrays computed from the table,

  R = sum over q of H(q) * H(4n - q)              (row sums admissible)
  P = sum over q, x of H(q, x) * H(4n - q, x ^ target)   (both hold)

  pruned_rowsum = count^4 - R
  pruned_product = R - P
  candidates_examined = P

So examined + pruned equals the number of symmetric quadruples, count^4.

There is no mod4 stage.  On even n the 2-compression mod-4 condition is
the same test as the product condition (an entry of the compression sum
is 2 mod 4 exactly when an odd number of the four sequences differ at i
and i+n/2), and on odd n it is vacuous, so it could never prune anything
the product test leaves.  The results format keeps a fixed
`# pruned_mod4 0` line, which `perfbench/run.py` parses.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    PmOneSequence,
    WilliamsonQuadruple,
    paf_rows,
    parse_quadruple,  # unused here; perfbench/tracing.py wraps this binding
    quadruple_to_text,  # unused here; perfbench/tracing.py wraps this binding
    rows_to_text,
    sequence_to_text,
)
from .theorems import product_condition

# Default order cap.  The join sorts count^2 = 4^(n//2 + 1) pair keys, so
# each two-step rise in n costs about 4x; n = 20 takes a few seconds
# (BENCH_search.json).  WKIT_MAX_N overrides it, see `order_cap`.
ORDER_CAP = 20

# Largest order whose packed pair keys fit int64: (n+1)^(n//2) <= 2^63.
KEY_MAX_N = 27


def order_cap() -> int:
    """The largest order `search` accepts: WKIT_MAX_N if set, else ORDER_CAP.

    Raises ValueError if WKIT_MAX_N is not an integer in 1..KEY_MAX_N.
    """
    raw = os.environ.get("WKIT_MAX_N")
    if raw is None:
        return ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"invalid WKIT_MAX_N value {raw!r}") from None
    if not 1 <= cap <= KEY_MAX_N:
        raise ValueError(f"WKIT_MAX_N {cap} outside 1..{KEY_MAX_N}")
    return cap


@dataclass
class SearchReport:
    """Counts and timing of one search.

    Accounting identity: candidates_examined + pruned_rowsum +
    pruned_product equals count^4, the number of quadruples of symmetric
    sequences of order n.  A candidate is pruned by the first test it
    fails, rowsum then product, and examined otherwise; the module
    docstring gives the squares-sum formula that counts them.
    """

    raw_count: int = 0
    canonical_count: int = 0
    candidates_examined: int = 0
    pruned_rowsum: int = 0
    pruned_product: int = 0
    elapsed: float = 0.0


class SearchResults(Sequence):
    """The quadruples one search found, as a read-only sequence.

    `table` is the order's `symmetric_table`, and `rows` a read-only
    (k, 4) int64 array of indices into it, sorted, so the items come in
    text order.  Each item is a `WilliamsonQuadruple` built from its four
    table rows when it is accessed; a slice is another `SearchResults`.
    """

    def __init__(self, table: np.ndarray, rows: np.ndarray):
        self.table = table
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SearchResults(self.table, self.rows[i])
        return WilliamsonQuadruple(*map(PmOneSequence, self.table[self.rows[i]].tolist()))


def symmetric_table(n: int) -> np.ndarray:
    """Every symmetric ±1 sequence of length n, as a read-only int64 array
    of 2^(n//2 + 1) rows.

    Free entries are the indices 0..n//2; the rest mirror them.  Row order
    is lexicographic over the free entries with +1 before -1, matching the
    '+' < '-' text ordering, and the last row is the first negated.
    """
    if n < 1:
        raise ValueError("order must be positive")
    free = n // 2 + 1
    # Entry j of row i is -1 iff bit free-1-j of i is set.
    half = 1 - 2 * ((np.arange(1 << free)[:, None] >> np.arange(free - 1, -1, -1)) & 1)
    table = np.concatenate([half, half[:, n - free : 0 : -1]], axis=1)
    table.setflags(write=False)
    return table


def enumerate_symmetric(n: int):
    """Yield each row of `symmetric_table(n)`, in order, as a `PmOneSequence`."""
    yield from map(PmOneSequence, symmetric_table(n).tolist())


def _product_signatures(table: np.ndarray) -> tuple[np.ndarray, int]:
    """Xor-linear product signature of each row of a `symmetric_table`, as
    one int64 array, and the target the four signatures must xor to.

    Even n = 2m: bit i is [s_i != s_{i+m}] for 0 <= i < m.  Odd n: bit i-1
    is [s_i != s_0] for 1 <= i <= (n-1)/2.  The target is read off
    `product_condition`, called once on the whole table: products of
    symmetric sequences are symmetric, so `table` holds every product
    sequence the search can meet, and the condition must accept exactly
    one signature.
    """
    n = table.shape[1]
    if n % 2 == 0:
        differ = table[:, : n // 2] != table[:, n // 2 :]
    else:
        differ = table[:, 1 : (n + 1) // 2] != table[:, :1]
    sigs = differ @ (1 << np.arange(differ.shape[1]))
    accepted = product_condition(table)
    targets = np.unique(sigs[accepted])
    if len(targets) != 1 or not np.array_equal(sigs == targets[0], accepted):
        raise RuntimeError(f"product signatures disagree with product_condition at order {n}")
    return sigs, int(targets[0])


def _counters(table: np.ndarray) -> tuple[int, int, int]:
    """The exact counters over `table` (all symmetric sequences of one
    order): candidates examined, pruned by rowsum and pruned by product.
    """
    count, n = table.shape
    sigs, target = _product_signatures(table)
    # H(q, x) of the module docstring for q <= 4n, over ordered pairs of
    # (s^2, sig) classes; int64 is exact, as count^4 <= 2^56 to KEY_MAX_N.
    width = 1 << int(sigs.max()).bit_length()
    classes, sizes = np.unique(table.sum(axis=1) ** 2 * width + sigs, return_counts=True)
    q, x = np.divmod(classes, width)
    pair_q = (q[:, None] + q).ravel()
    keep = pair_q <= 4 * n
    h_qx = np.zeros((4 * n + 1, width), dtype=np.int64)
    pairs = (pair_q[keep], (x[:, None] ^ x).ravel()[keep])
    np.add.at(h_qx, pairs, np.outer(sizes, sizes).ravel()[keep])
    h_q = h_qx.sum(axis=1)
    # Reversed rows are H(4n - q, .); permuted columns are H(., x ^ target).
    admitted = int(h_q @ h_q[::-1])
    kept = int((h_qx * h_qx[::-1, np.arange(width) ^ target]).sum())
    return kept, count**4 - admitted, admitted - kept


def _join(pafs: np.ndarray, n: int) -> np.ndarray:
    """Every index row (a, b, c, d) whose PAF rows in `pafs` sum to 0 at
    every shift, sorted; the module docstring describes the keys.
    """
    count, m = pafs.shape
    full = (n + 1) ** m - 1
    # A PAF is n + 4d with d an integer, and a pair's digit (sum + 2n)/4 is
    # d_a + d_b + n.  The n at every digit packs to `full`, so a pair's key
    # is the sum of its two sequences' packed d plus `full`.
    packed_d = np.zeros(count, dtype=np.int64)
    for shift in range(m):
        packed_d = packed_d * (n + 1) + (pafs[:, shift] - n) // 4
    keys = (packed_d[:, None] + (packed_d + full)).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # The wanted keys of the sorted pairs, reversed, ascend, so both
    # searches walk the sorted keys once.
    wanted = full - sorted_keys[::-1]
    lo = np.searchsorted(sorted_keys, wanted, side="left")[::-1]
    hits = np.searchsorted(sorted_keys, wanted, side="right")[::-1] - lo
    # The pair order[i] meets the pairs order[lo[i] : lo[i] + hits[i]].
    ab = np.repeat(order, hits)
    offset = np.repeat(lo - (np.cumsum(hits) - hits), hits)
    cd = order[offset + np.arange(len(ab))]
    # ab * count^2 + cd is the flat index of the row (a, b, c, d) in a
    # count^4 grid, so sorting the flat indices sorts the rows.
    return np.stack(np.unravel_index(np.sort(ab * (count * count) + cd), (count,) * 4), axis=1)


def _check_rows(pafs: np.ndarray, rows: np.ndarray) -> None:
    """Raise RuntimeError unless the four PAF rows of every index row sum
    to 0 at every shift: the exact Williamson test, on every match."""
    slots = rows.T.copy()
    for shift, col in enumerate(pafs.T, 1):
        bad = np.flatnonzero(col[slots[0]] + col[slots[1]] + col[slots[2]] + col[slots[3]])
        if len(bad):
            row = rows[bad[0]]
            raise RuntimeError(
                f"join matched index row {row.tolist()}, whose PAFs sum to "
                f"{col[row].sum()} at shift {shift}"
            )


def search(n: int, canonical_only: bool = False) -> tuple[SearchResults, SearchReport]:
    """Find every Williamson quadruple of order n.

    Returns the raw ordered quadruples (or canonical representatives if
    canonical_only), sorted by text form, as a `SearchResults`, plus a
    report.  Raises ValueError, before any work, if n is outside
    1..order_cap().
    """
    cap = order_cap()
    if not 1 <= n <= cap:
        raise ValueError(f"order {n} outside supported range 1..{cap}")

    start = time.perf_counter()
    table = symmetric_table(n)
    pafs = paf_rows(table)[:, 1:]
    rows = _join(pafs, n)
    _check_rows(pafs, rows)
    grid = (len(table),) * 4
    lowest = np.sort(np.minimum(rows, grid[0] - 1 - rows), axis=1)
    # Flat indices: np.unique(lowest, axis=0) is about 2x slower.
    flat = np.unique(np.ravel_multi_index(tuple(lowest.T), grid))
    canonical = np.stack(np.unravel_index(flat, grid), axis=1)
    report = SearchReport(len(rows), len(canonical), *_counters(table))
    kept = canonical if canonical_only else rows
    kept.setflags(write=False)
    report.elapsed = time.perf_counter() - start
    return SearchResults(table, kept), report


def canonicalize(q: WilliamsonQuadruple) -> WilliamsonQuadruple:
    """Smallest text-form representative of q under sequence negations and
    slot permutations.  Idempotent; preserves the Williamson property.
    """
    # Negations act per slot independently and permutations realize any
    # arrangement, so the orbit minimum is: minimize each sequence against
    # its negation, then sort.  Sequences share one length, so sorting
    # them by text sorts the joined text.
    slots = (min(s, s.negated(), key=sequence_to_text) for s in q.sequences())
    return WilliamsonQuadruple(*sorted(slots, key=sequence_to_text))


def format_results(results: SearchResults, report: SearchReport) -> str:
    """Results file: one quadruple text per line, then a '#' report block."""
    texts = rows_to_text(results.table)
    slots = [[texts[i] for i in column] for column in results.rows.T.tolist()]
    lines = list(map(";".join, zip(*slots)))
    lines += [
        f"# raw_count {report.raw_count}",
        f"# canonical_count {report.canonical_count}",
        f"# candidates_examined {report.candidates_examined}",
        f"# pruned_rowsum {report.pruned_rowsum}",
        f"# pruned_product {report.pruned_product}",
        "# pruned_mod4 0",  # no mod4 stage; perfbench/run.py reads this line
        f"# elapsed_seconds {report.elapsed:.6f}",
    ]
    return "\n".join(lines) + "\n"
