"""Exhaustive enumeration of Williamson quadruples of a given order.

Strategy: a meet-in-the-middle self-join on PAF sums.  A quadruple
(A, B, C, D) of symmetric sequences is Williamson iff
PAF_A + PAF_B = -(PAF_C + PAF_D) at every shift in 1..n//2.  One table maps
each PAF sum over shifts 1..n//2 to the ordered pairs that have it, and the
pairs under each key combine with the pairs under the negated key, so the
work is count^2 pairs instead of count^4 quadruples, where count is the
number of symmetric sequences of order n.

Two optional filters are necessary conditions on a full candidate, applied
in fixed order, and the report says how much each one would prune from the
count^4 candidate space:

  rowsum   - the four row sums must have squares summing to 4n;
  product  - the parity-appropriate entrywise product condition.

Every Williamson quadruple passes both, so the join finds the same set
whichever filters are on, and the counters are computed exactly rather
than by visiting candidates.  Each sequence gets a class (row sum, product
signature), where the signature is xor-linear: the signature of the
entrywise product of a quadruple is the xor of its four signatures, and the
product condition holds iff that xor equals a fixed target.  A histogram of
the ordered pairs by (row-sum pair, signature xor) then gives

  R = candidates whose row sums are admissible (`rowsum_prefilter`),
      or the whole space when the row-sum filter is off;
  P = those of R whose four signatures xor to the target;

  pruned_rowsum = space - R
  pruned_product = R - P              if product is on
  candidates_examined = the rest.

So examined + pruned equals the number of symmetric quadruples, count^4.

There is no separate mod4 stage.  On even n the 2-compression mod-4
condition is the same test as the product condition (an entry of the
compression sum is 2 mod 4 exactly when an odd number of the four
sequences differ at i and i+n/2), and on odd n it is vacuous, so it could
never prune anything the product filter leaves.  The report keeps its
"mod4" counter, always 0, because the results format has a
`# pruned_mod4` line.
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
    use_product_filter: bool = True
    use_rowsum_prefilter: bool = True
    canonical_only: bool = False


@dataclass
class SearchReport:
    """Counts and timing of one search.

    Accounting identity: candidates_examined plus the sum of
    candidates_pruned_by_filter equals count^4, the number of quadruples of
    symmetric sequences of order n.  A candidate is pruned by the first
    enabled filter (rowsum, product) it fails and examined otherwise.  The
    "mod4" entry is always 0: see the module docstring.
    """

    raw_count: int = 0
    canonical_count: int = 0
    candidates_examined: int = 0
    candidates_pruned_by_filter: dict[str, int] = field(
        default_factory=lambda: {"rowsum": 0, "product": 0, "mod4": 0}
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


def rowsum_prefilter(n: int) -> set[tuple[int, int, int, int]]:
    """All row-sum quadruples (s_A, s_B, s_C, s_D) a Williamson quadruple
    of order n could have: each |s| <= n with s = n (mod 2), squares
    summing to 4n.
    """
    vals = [s for s in range(-n, n + 1) if (s - n) % 2 == 0]
    roots: dict[int, list[int]] = {}
    for s in vals:
        roots.setdefault(s * s, []).append(s)
    target = 4 * n
    out: set[tuple[int, int, int, int]] = set()
    for sa in vals:
        for sb in vals:
            ab = sa * sa + sb * sb
            if ab > target:
                continue
            for sc in vals:
                rem = target - ab - sc * sc
                if rem < 0:
                    continue
                for sd in roots.get(rem, ()):
                    out.add((sa, sb, sc, sd))
    return out


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


def _pair_histogram(classes: list[tuple[int, int]]) -> dict[tuple[int, int], dict[int, int]]:
    """Ordered pairs of sequences with the given classes (row sum,
    signature), as {(row sum, row sum): {signature xor: number of pairs}}."""
    counts = Counter(classes)
    out: dict[tuple[int, int], dict[int, int]] = {}
    for (ra, xa), na in counts.items():
        for (rb, xb), nb in counts.items():
            bucket = out.setdefault((ra, rb), {})
            bucket[xa ^ xb] = bucket.get(xa ^ xb, 0) + na * nb
    return out


def _join(
    seqs: list[tuple[int, ...]], use_rowsum: bool, use_product: bool
) -> tuple[list[tuple[int, int, int, int]], int, int, int]:
    """Every Williamson quadruple over `seqs` (all symmetric sequences of one
    order), as index quadruples, plus the exact counters: candidates
    examined, pruned by rowsum and pruned by product.
    """
    n = len(seqs[0])
    count = len(seqs)
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

    # With the row-sum filter off every sequence is in row class 0, so one
    # bucket holds every pair and nothing is pruned by row sums.
    sigs, target = _product_signatures(seqs)
    rows = [sum(s) for s in seqs] if use_rowsum else [0] * count
    admissible = rowsum_prefilter(n) if use_rowsum else {(0, 0, 0, 0)}
    histogram = _pair_histogram(list(zip(rows, sigs)))
    admitted = kept = 0
    for sa, sb, sc, sd in admissible:
        ab_sigs, cd_sigs = histogram.get((sa, sb), {}), histogram.get((sc, sd), {})
        admitted += sum(ab_sigs.values()) * sum(cd_sigs.values())
        kept += sum(k * cd_sigs.get(x ^ target, 0) for x, k in ab_sigs.items())

    pruned_rowsum = count**4 - admitted
    if use_product:
        return found, kept, pruned_rowsum, admitted - kept
    return found, admitted, pruned_rowsum, 0


def search(cfg: SearchConfig, order_cap: int | None = None) -> tuple[list[WilliamsonQuadruple], SearchReport]:
    """Find every Williamson quadruple of order cfg.n.

    Returns the raw ordered quadruples (or canonical representatives if
    cfg.canonical_only), sorted by text form, plus a report.  The result
    set does not depend on which filters are enabled.
    """
    cap = ORDER_CAP if order_cap is None else order_cap
    if not 1 <= cfg.n <= cap:
        raise ValueError(f"order {cfg.n} outside supported range 1..{cap}")

    start = time.perf_counter()
    seq_objs = list(enumerate_symmetric(cfg.n))
    found_idx, examined, pruned_rowsum, pruned_product = _join(
        [s.entries for s in seq_objs], cfg.use_rowsum_prefilter, cfg.use_product_filter
    )
    report = SearchReport(candidates_examined=examined)
    report.candidates_pruned_by_filter["rowsum"] = pruned_rowsum
    report.candidates_pruned_by_filter["product"] = pruned_product

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
        f"# pruned_mod4 {pruned['mod4']}",
        f"# elapsed_seconds {report.elapsed:.6f}",
    ]
    return "\n".join(lines) + "\n"
