"""Exhaustive enumeration of Williamson quadruples of a given order.

A quadruple (A, B, C, D) of symmetric sequences is Williamson iff
PAF_A + PAF_B = -(PAF_C + PAF_D) at every shift in 1..m, where m = n//2.
The search is a meet-in-the-middle self-join on those pair sums, done on
integer arrays, so the work is count^2 pairs instead of count^4
quadruples, where count = 2^(m+1) is the number of symmetric sequences of
order n:

  table     - the symmetric sequences in `enumerate_symmetric` order, which
              is their text order, so index order is text order; and their
              PAFs at shifts 1..m as one (count, m) int64 array, from one
              call of the `seqcore.paf_rows` kernel on all of them.
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
              (a, b, c, d); the rows are sorted as packed base-count
              integers, which is the text order of the result lines.
  re-check  - every row is checked again exactly: its four PAF rows must
              sum to 0 at every shift, or the search raises RuntimeError.
  canonical - negation maps index i to count-1-i, so a row's minimum under
              sequence negations and slot permutations is the sorted
              min(i, count-1-i) of its slots, and np.unique of those rows
              gives the canonical representatives in text order.

`search(n, canonical_only=False)` is the one entry point.  It returns the
rows as a `SearchResults`: a read-only sequence over the table and the
rows that builds a `WilliamsonQuadruple` only when an item is accessed.
`format_results` writes each line from per-sequence texts computed once.
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

import itertools
import os
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    PmOneSequence,
    WilliamsonQuadruple,
    paf_rows,
    parse_quadruple,  # unused here; perfbench/tracing.py wraps this binding
    quadruple_to_text,  # unused here; perfbench/tracing.py wraps this binding
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

    `table` holds the symmetric sequences of the order in text order, and
    `rows` is a read-only (k, 4) int64 array of indices into it, sorted,
    so the items come in text order.  Each item is a `WilliamsonQuadruple`
    built when it is accessed; a slice is another `SearchResults`.
    """

    def __init__(self, table: tuple[PmOneSequence, ...], rows: np.ndarray):
        self.table = table
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SearchResults(self.table, self.rows[i])
        return WilliamsonQuadruple(*(self.table[j] for j in self.rows[i]))


def enumerate_symmetric(n: int):
    """Yield every symmetric ±1 sequence of length n exactly once.

    Free entries are the indices 0..n//2; the rest mirror them.  Order is
    lexicographic over the free entries with +1 before -1, matching the
    '+' < '-' text ordering.
    """
    if n < 1:
        raise ValueError("order must be positive")
    free = n // 2 + 1
    for bits in itertools.product((1, -1), repeat=free):
        entries = list(bits) + [0] * (n - free)
        for i in range(free, n):
            entries[i] = entries[n - i]
        yield PmOneSequence(tuple(entries))


def _product_signatures(seqs: list[tuple[int, ...]]) -> tuple[list[int], int]:
    """Xor-linear product signature of each symmetric sequence of one order,
    and the target the four signatures of a quadruple must xor to.

    Even n = 2m: bit i is [s_i != s_{i+m}] for 0 <= i < m.  Odd n: bit i-1
    is [s_i != s_0] for 1 <= i <= (n-1)/2.  The target is read off
    `product_condition`, called once per sequence: products of symmetric
    sequences are symmetric, so `seqs` holds every product sequence the
    search can meet, and the condition must accept exactly one signature.
    """
    n = len(seqs[0])
    if n % 2 == 0:
        pairs = [(i, i + n // 2) for i in range(n // 2)]
    else:
        pairs = [(i, 0) for i in range(1, (n + 1) // 2)]
    sigs = [sum(1 << k for k, (i, j) in enumerate(pairs) if s[i] != s[j]) for s in seqs]
    accepted = [product_condition(s) for s in seqs]
    targets = {sig for sig, ok in zip(sigs, accepted) if ok}
    if len(targets) != 1 or any(sig in targets and not ok for sig, ok in zip(sigs, accepted)):
        raise RuntimeError(f"product signatures disagree with product_condition at order {n}")
    (target,) = targets
    return sigs, target


def _counters(seqs: list[tuple[int, ...]]) -> tuple[int, int, int]:
    """The exact counters over `seqs` (all symmetric sequences of one
    order): candidates examined, pruned by rowsum and pruned by product.
    """
    n = len(seqs[0])
    # H(q, x) and H(q) of the module docstring, over ordered pairs.
    sigs, target = _product_signatures(seqs)
    classes = Counter(zip([sum(s) ** 2 for s in seqs], sigs))
    h_qx: Counter[tuple[int, int]] = Counter()
    for (qa, xa), na in classes.items():
        for (qb, xb), nb in classes.items():
            h_qx[qa + qb, xa ^ xb] += na * nb
    h_q: Counter[int] = Counter()
    for (q, _), k in h_qx.items():
        h_q[q] += k
    admitted = sum(k * h_q[4 * n - q] for q, k in h_q.items())
    kept = sum(k * h_qx[4 * n - q, x ^ target] for (q, x), k in h_qx.items())
    return kept, len(seqs) ** 4 - admitted, admitted - kept


def _pack(rows: np.ndarray, count: int) -> np.ndarray:
    """Each index row (a, b, c, d) as the base-count integer abcd."""
    packed = np.zeros(len(rows), dtype=np.int64)
    for slot in range(4):
        packed = packed * count + rows[:, slot]
    return packed


def _unpack(packed: np.ndarray, count: int) -> np.ndarray:
    """Inverse of `_pack`: the (k, 4) index rows of packed integers."""
    rows = np.empty((len(packed), 4), dtype=np.int64)
    for slot in (3, 2, 1, 0):
        packed, rows[:, slot] = np.divmod(packed, count)
    return rows


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
    # ab * count^2 + cd is the row (a, b, c, d) packed as by _pack.
    return _unpack(np.sort(ab * (count * count) + cd), count)


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
    table = tuple(enumerate_symmetric(n))
    seqs = [s.entries for s in table]
    pafs = paf_rows(np.array(seqs))[:, 1:]
    rows = _join(pafs, n)
    _check_rows(pafs, rows)
    count = len(table)
    lowest = np.sort(np.minimum(rows, count - 1 - rows), axis=1)
    canonical = _unpack(np.unique(_pack(lowest, count)), count)
    examined, pruned_rowsum, pruned_product = _counters(seqs)
    report = SearchReport(
        raw_count=len(rows),
        canonical_count=len(canonical),
        candidates_examined=examined,
        pruned_rowsum=pruned_rowsum,
        pruned_product=pruned_product,
    )
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
    texts = [sequence_to_text(s) for s in results.table]
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
