"""Exhaustive enumeration of Williamson quadruples of a given order.

Strategy: a meet-in-the-middle self-join on PAF sums.  A quadruple
(A, B, C, D) of symmetric sequences is Williamson iff
PAF_A + PAF_B = -(PAF_C + PAF_D) at every shift in 1..n//2.  One table maps
each PAF sum over shifts 1..n//2 to the ordered pairs that have it, and the
pairs under each key combine with the pairs under the negated key, so the
work is count^2 pairs instead of count^4 quadruples, where count is the
number of symmetric sequences of order n.

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
import time
from collections import Counter
from dataclasses import dataclass, field

from .seqcore import (
    PmOneSequence,
    WilliamsonQuadruple,
    _paf_vector,
    parse_quadruple,
    quadruple_to_text,
    sequence_to_text,
)
from .theorems import product_condition

# Exhaustive-mode order cap.  The join does count^2 = 4^(n//2 + 1) pair
# lookups, so each two-step rise in n costs about 4x; n = 16 takes seconds
# in pure Python.  The CLI can override it through WKIT_MAX_N.
ORDER_CAP = 16


@dataclass(frozen=True)
class SearchConfig:
    n: int
    canonical_only: bool = False


@dataclass
class SearchReport:
    """Counts and timing of one search.

    Accounting identity: candidates_examined plus the sum of
    candidates_pruned_by_filter equals count^4, the number of quadruples of
    symmetric sequences of order n.  A candidate is pruned by the first
    test it fails, rowsum then product, and examined otherwise; the module
    docstring gives the squares-sum formula that counts them.
    """

    raw_count: int = 0
    canonical_count: int = 0
    candidates_examined: int = 0
    candidates_pruned_by_filter: dict[str, int] = field(
        default_factory=lambda: {"rowsum": 0, "product": 0}
    )
    elapsed: float = 0.0


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


def _join(seqs: list[tuple[int, ...]]) -> tuple[list[tuple[int, int, int, int]], int, int, int]:
    """Every Williamson quadruple over `seqs` (all symmetric sequences of one
    order), as index quadruples, plus the exact counters: candidates
    examined, pruned by rowsum and pruned by product.
    """
    n = len(seqs[0])
    pafs = [_paf_vector(s)[1 : n // 2 + 1] for s in seqs]

    pairs: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for ia, pa in enumerate(pafs):
        for ib, pb in enumerate(pafs):
            key = tuple([x + y for x, y in zip(pa, pb)])
            pairs.setdefault(key, []).append((ia, ib))
    found: list[tuple[int, int, int, int]] = []
    for key, ab_pairs in pairs.items():
        cd_pairs = pairs.get(tuple([-x for x in key]), ())
        found.extend((ia, ib, ic, id_) for ia, ib in ab_pairs for ic, id_ in cd_pairs)

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
    return found, kept, len(seqs) ** 4 - admitted, admitted - kept


def search(cfg: SearchConfig, order_cap: int | None = None) -> tuple[list[WilliamsonQuadruple], SearchReport]:
    """Find every Williamson quadruple of order cfg.n.

    Returns the raw ordered quadruples (or canonical representatives if
    cfg.canonical_only), sorted by text form, plus a report.
    """
    cap = ORDER_CAP if order_cap is None else order_cap
    if not 1 <= cfg.n <= cap:
        raise ValueError(f"order {cfg.n} outside supported range 1..{cap}")

    start = time.perf_counter()
    seq_objs = list(enumerate_symmetric(cfg.n))
    found_idx, examined, pruned_rowsum, pruned_product = _join([s.entries for s in seq_objs])
    report = SearchReport(
        candidates_examined=examined,
        candidates_pruned_by_filter={"rowsum": pruned_rowsum, "product": pruned_product},
    )

    # Text once per sequence: sorting and canonical forms work on these
    # strings, and the canonical minimum per slot is the lesser of a
    # sequence's text and its negation's (see _canonical_text).
    texts = [sequence_to_text(s) for s in seq_objs]
    by_text = dict(zip(texts, seq_objs))
    lowest = [min(t, sequence_to_text(s.negated())) for t, s in zip(texts, seq_objs)]
    found_idx.sort(key=lambda idx: [texts[i] for i in idx])
    canonical = sorted({tuple(sorted(lowest[i] for i in idx)) for idx in found_idx})
    report.raw_count = len(found_idx)
    report.canonical_count = len(canonical)
    if cfg.canonical_only:
        result = [WilliamsonQuadruple(*(by_text[t] for t in c)) for c in canonical]
    else:
        result = [WilliamsonQuadruple(*(seq_objs[i] for i in idx)) for idx in found_idx]
    report.elapsed = time.perf_counter() - start
    return result, report


def _canonical_text(q: WilliamsonQuadruple) -> str:
    # Negations act per slot independently and permutations realize any
    # arrangement, so the orbit minimum is: minimize each sequence against
    # its negation, then sort.  Sequences share one length, so joined-text
    # comparison never straddles a ';' asymmetrically.
    best = sorted(
        min(sequence_to_text(s), sequence_to_text(s.negated())) for s in q.sequences()
    )
    return ";".join(best)


def canonicalize(q: WilliamsonQuadruple) -> WilliamsonQuadruple:
    """Smallest text-form representative of q under sequence negations and
    slot permutations.  Idempotent; preserves the Williamson property.
    """
    return parse_quadruple(_canonical_text(q))


def format_results(quads: list[WilliamsonQuadruple], report: SearchReport) -> str:
    """Results file: one quadruple text per line, then a '#' report block."""
    pruned = report.candidates_pruned_by_filter
    lines = [quadruple_to_text(q) for q in quads]
    lines += [
        f"# raw_count {report.raw_count}",
        f"# canonical_count {report.canonical_count}",
        f"# candidates_examined {report.candidates_examined}",
        f"# pruned_rowsum {pruned['rowsum']}",
        f"# pruned_product {pruned['product']}",
        "# pruned_mod4 0",  # no mod4 stage; perfbench/run.py reads this line
        f"# elapsed_seconds {report.elapsed:.6f}",
    ]
    return "\n".join(lines) + "\n"
