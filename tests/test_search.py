"""Exhaustive search, pruning counters, canonicalization, determinism."""

import importlib.util
import itertools
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import wkit.search
from conftest import make_rng, random_quadruple, symmetric_by_definition, symmetric_tuples
from wkit.search import (
    KEY_MAX_N,
    ORDER_CAP,
    _check_rows,
    _counters,
    _product_signatures,
    canonicalize,
    enumerate_symmetric,
    format_results,
    order_cap,
    search,
    symmetric_table,
)
from wkit.seqcore import (
    PmOneSequence,
    WilliamsonQuadruple,
    _paf_vector,
    is_williamson,
    matrix_williamson_check,
    paf_rows,
    quadruple_to_text,
    row_sum,
    sequence_to_text,
)
from wkit.theorems import mod4_filter, product_condition

# Raw counts per order.  1 and 2 are contract values; 3..5 are additionally
# cross-checked against the naive matrix-only scan below, and 6..8 are
# pinned here after confirming filter invariance and the per-quadruple
# oracles hold on every member.
RAW_COUNTS = {1: 16, 2: 96, 3: 64, 4: 256, 5: 192, 6: 1536, 7: 960, 8: 1536}

# (raw, canonical) counts at the larger orders the join reaches, each
# cross-checked against the independent numpy pair-sum join in
# perfbench/oracle.py, and the exact (examined, pruned_rowsum,
# pruned_product) counters; 10 and 11 are the benchmark's orders, whose
# counters the count^4 scan of earlier versions also gave.  The odd orders
# have the most (s^2, sig) classes behind the counters.
LARGE_COUNTS = {
    10: ((7680, 20), (235_008, 15_817_216, 724_992)),
    11: ((1920, 5), (57_600, 15_817_216, 902_400)),
    12: ((16384, 52), (1_809_792, 261_155_456, 5_470_208)),
    13: ((5184, 15), (473_280, 253_483_456, 14_478_720)),
    14: ((87552, 228), (22_468_608, 4_125_623_296, 146_875_392)),
    15: ((4608, 14), (4_334_400, 4_018_372_096, 272_260_800)),
    16: ((24576, 100), (29_256_448, 68_485_292_800, 204_927_488)),
    17: ((6144, 16), (16_289_280, 66_595_225_600, 2_107_961_856)),
    19: ((14400, 42), (144_926_208, 1_062_469_998_592, 36_896_702_976)),
}


def _candidate_space(n):
    return (2 ** (n // 2 + 1)) ** 4


# ---------------------------------------------------------------------------
# Symmetric enumeration


def test_enumerate_symmetric_small_orders():
    assert [s.entries for s in enumerate_symmetric(1)] == [(1,), (-1,)]
    assert len(list(enumerate_symmetric(2))) == 4
    assert [s.entries for s in enumerate_symmetric(3)] == [
        (1, 1, 1),
        (1, -1, -1),
        (-1, 1, 1),
        (-1, -1, -1),
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_enumerate_symmetric_is_complete_and_unique(n):
    got = [s.entries for s in enumerate_symmetric(n)]
    assert len(got) == len(set(got)) == 2 ** (n // 2 + 1)
    assert set(got) == set(symmetric_tuples(n))
    for t in got:
        assert symmetric_by_definition(t)
    # The sequences are the rows of the search's read-only int64 table.
    table = symmetric_table(n)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert [tuple(row) for row in table.tolist()] == got


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_symmetric_order(n):
    # lexicographic in the free entries with +1 before -1, which matches
    # the '+' < '-' text ordering; the search sorts index rows as integers
    # and maps negation to index count-1-i, so it relies on both
    seqs = list(enumerate_symmetric(n))
    texts = [sequence_to_text(s) for s in seqs]
    assert texts == sorted(texts)
    assert [s.negated() for s in seqs] == seqs[::-1]


def test_enumerate_symmetric_rejects_nonpositive():
    with pytest.raises(ValueError):
        list(enumerate_symmetric(0))
    with pytest.raises(ValueError):
        symmetric_table(0)


# ---------------------------------------------------------------------------
# Row-sum test


def _admissible_rowsums_oracle(n):
    vals = range(-n, n + 1)
    return {
        (sa, sb, sc, sd)
        for sa in vals
        for sb in vals
        for sc in vals
        for sd in vals
        if (sa - n) % 2 == 0
        and (sb - n) % 2 == 0
        and (sc - n) % 2 == 0
        and (sd - n) % 2 == 0
        and sa * sa + sb * sb + sc * sc + sd * sd == 4 * n
    }


@pytest.mark.parametrize("n", range(1, 11))
def test_rowsum_prefilter_matches_oracle(n):
    # The search counts admissible row sums by their squares alone; the
    # oracle also checks |s| <= n and s = n (mod 2) for every slot.
    per_row_sum = Counter(sum(t) for t in symmetric_tuples(n))
    admitted = sum(
        per_row_sum[sa] * per_row_sum[sb] * per_row_sum[sc] * per_row_sum[sd]
        for sa, sb, sc, sd in _admissible_rowsums_oracle(n)
    )
    _, report = search(n)
    assert report.pruned_rowsum == _candidate_space(n) - admitted


def test_found_rowsums_are_admissible(found_by_order):
    for n, (quads, _) in found_by_order.items():
        for q in quads:
            assert sum(row_sum(s) ** 2 for s in q.sequences()) == 4 * n


# ---------------------------------------------------------------------------
# Search counts and completeness


def test_raw_counts(found_by_order):
    for n, want in RAW_COUNTS.items():
        quads, report = found_by_order[n]
        assert report.raw_count == want
        assert len(quads) == want


@pytest.mark.parametrize("n", sorted(LARGE_COUNTS))
def test_large_order_counts(n):
    quads, report = search(n)
    counts, (examined, pruned_rowsum, pruned_product) = LARGE_COUNTS[n]
    assert (report.raw_count, report.canonical_count) == counts
    assert len(quads) == report.raw_count
    assert report.candidates_examined == examined
    assert (report.pruned_rowsum, report.pruned_product) == (pruned_rowsum, pruned_product)
    assert examined + pruned_rowsum + pruned_product == _candidate_space(n)


def test_contract_counts_fresh_runs():
    _, r1 = search(1)
    _, r2 = search(2)
    assert r1.raw_count == 16
    assert r2.raw_count == 96


@pytest.mark.parametrize("n", range(1, 6))
def test_completeness_vs_naive_matrix_scan(n):
    # Independent oracle: every symmetric quadruple, matrix check only.
    seqs = [PmOneSequence(t) for t in symmetric_tuples(n)]
    expected = {
        quadruple_to_text(WilliamsonQuadruple(a, b, c, d))
        for a, b, c, d in itertools.product(seqs, repeat=4)
        if matrix_williamson_check(WilliamsonQuadruple(a, b, c, d))
    }
    quads, _ = search(n)
    assert {quadruple_to_text(q) for q in quads} == expected


@pytest.fixture(scope="module")
def oracle():
    """perfbench/oracle.py, the benchmark's numpy join; it imports nothing
    from wkit, and the package never imports it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", (10, 11, 12))
def test_result_lines_match_the_benchmark_oracle(n, oracle):
    quads = oracle.williamson_set(n)
    for canonical_only, want in (
        (False, sorted(oracle.quad_text(q) for q in quads)),
        (True, sorted({oracle.canonical_text(q) for q in quads})),
    ):
        text = format_results(*search(n, canonical_only=canonical_only))
        assert [line for line in text.splitlines() if not line.startswith("#")] == want


def test_every_result_verifies(found_by_order):
    for quads, _ in found_by_order.values():
        for q in quads:
            assert is_williamson(q)
            assert matrix_williamson_check(q)


def test_results_are_sorted_and_unique(found_by_order):
    for quads, _ in found_by_order.values():
        texts = [quadruple_to_text(q) for q in quads]
        assert texts == sorted(texts)
        assert len(texts) == len(set(texts))


# ---------------------------------------------------------------------------
# Report accounting


def test_examined_plus_pruned_covers_the_space(found_by_order):
    for n, (_, report) in found_by_order.items():
        total = report.candidates_examined + report.pruned_rowsum + report.pruned_product
        assert total == _candidate_space(n)


# ---------------------------------------------------------------------------
# Direct count^4 scan: the reference for the join's result set and for its
# computed counters.  Works from the definitions and shares no code
# with the search module.


def _direct_scan(n, with_flags):
    """Every symmetric quadruple of order n, visited one by one.

    Returns the Williamson quadruples (as index tuples into
    symmetric_tuples(n)) and, if with_flags, a histogram of which of the
    two filter conditions (rowsum, product) each candidate meets.
    """
    seqs = symmetric_tuples(n)
    m = n // 2
    pafs = [
        tuple(sum(s[i] * s[(i + k) % n] for i in range(n)) for k in range(1, m + 1))
        for s in seqs
    ]
    found = set()
    flags = {}
    for idx in itertools.product(range(len(seqs)), repeat=4):
        quad = [seqs[i] for i in idx]
        if all(sum(pafs[i][k] for i in idx) == 0 for k in range(m)):
            found.add(idx)
        if not with_flags:
            continue
        rowsum_ok = sum(sum(s) ** 2 for s in quad) == 4 * n
        p = [quad[0][i] * quad[1][i] * quad[2][i] * quad[3][i] for i in range(n)]
        if n % 2:
            product_ok = all(p[i] == -p[0] for i in range(1, (n + 1) // 2))
        else:
            product_ok = all(p[i] == p[i + m] for i in range(m))
        key = (rowsum_ok, product_ok)
        flags[key] = flags.get(key, 0) + 1
    return found, flags


@pytest.mark.parametrize("n", (5, 6, 7))
def test_counters_match_direct_scan(n):
    # A candidate is pruned by the first test it fails, rowsum then product.
    _, flags = _direct_scan(n, with_flags=True)
    _, report = search(n)
    assert report.candidates_examined == flags.get((True, True), 0)
    assert report.pruned_rowsum == flags.get((False, True), 0) + flags.get((False, False), 0)
    assert report.pruned_product == flags.get((True, False), 0)


def test_results_match_direct_scan(found_by_order):
    for n, (quads, _) in found_by_order.items():
        found, _ = _direct_scan(n, with_flags=False)
        seqs = [PmOneSequence(t) for t in symmetric_tuples(n)]
        expected = sorted(
            quadruple_to_text(WilliamsonQuadruple(*(seqs[i] for i in idx))) for idx in found
        )
        assert [quadruple_to_text(q) for q in quads] == expected


# ---------------------------------------------------------------------------
# Product condition as a signature key


@pytest.mark.parametrize("n", range(1, ORDER_CAP + 1))
def test_product_signature_matches_theorem(n):
    seqs = symmetric_table(n)
    sigs, target = _product_signatures(seqs)
    # even n: no entry differs from its half-period partner; odd n: every
    # entry 1..(n-1)/2 differs from entry 0
    assert target == (0 if n % 2 == 0 else (1 << (n - 1) // 2) - 1)
    for s, sig in zip(seqs, sigs):
        assert (sig == target) == product_condition(s)


@pytest.mark.parametrize("n", range(1, ORDER_CAP + 1))
def test_counters_match_a_python_int_class_count(n):
    # Reference for the int64 arrays of _counters, sharing no code with
    # it: Python ints and dicts, sequences classed by (s^2, pattern), where
    # the pattern holds the entry products the theorem compares (s_i s_{i+m}
    # on even n, s_i s_0 on odd n), multiplied entrywise over a quadruple.
    m = n // 2
    seqs = [s.entries for s in enumerate_symmetric(n)]
    if n % 2 == 0:
        pattern, target = (lambda s: tuple(s[i] * s[i + m] for i in range(m))), (1,) * m
    else:
        pattern, target = (lambda s: tuple(s[i] * s[0] for i in range(1, m + 1))), (-1,) * m
    classes = Counter((sum(s) ** 2, pattern(s)) for s in seqs)
    pairs = Counter()
    for (qa, pa), na in classes.items():
        for (qb, pb), nb in classes.items():
            pairs[qa + qb, tuple(x * y for x, y in zip(pa, pb))] += na * nb
    by_q = Counter()
    for (q, _), k in pairs.items():
        by_q[q] += k
    admitted = sum(k * by_q[4 * n - q] for q, k in by_q.items())
    kept = sum(
        k * pairs[4 * n - q, tuple(x * t for x, t in zip(p, target))] for (q, p), k in pairs.items()
    )
    assert _counters(symmetric_table(n)) == (kept, len(seqs) ** 4 - admitted, admitted - kept)


def test_package_attribute_search_is_the_module():
    # The package must not rebind wkit.search to the search() function.
    assert isinstance(wkit.search, types.ModuleType)
    assert wkit.search.search is search
    assert wkit.search.product_condition is product_condition


def test_product_signatures_refuse_a_disagreeing_condition(monkeypatch):
    monkeypatch.setattr(wkit.search, "product_condition", lambda products: products[..., 0] == 1)
    with pytest.raises(RuntimeError, match="disagree"):
        _product_signatures(symmetric_table(4))


@pytest.mark.parametrize("n", range(2, 13))
def test_even_mod4_prunes_what_product_would(n):
    # There is no mod4 stage, and the report's mod4 line is a fixed 0: on
    # even n the mod4 test accepts a product sequence exactly when the
    # search's product signature hits its target, and on odd n it accepts
    # every one.  The test depends only on the entrywise product, and each
    # symmetric sequence s is the product of (s, 1, 1, 1).
    seqs = list(enumerate_symmetric(n))
    sigs, target = _product_signatures(symmetric_table(n))
    ones = PmOneSequence((1,) * n)
    for s, sig in zip(seqs, sigs):
        quad = WilliamsonQuadruple(s, ones, ones, ones)
        assert mod4_filter(quad) == (n % 2 == 1 or sig == target)
    assert "# pruned_mod4 0" in format_results(*search(n)).splitlines()


def test_report_counts_consistent(found_by_order):
    for quads, report in found_by_order.values():
        assert report.raw_count >= report.canonical_count >= 0
        assert report.elapsed >= 0.0


# ---------------------------------------------------------------------------
# Canonicalization


def _orbit_texts(q):
    texts = []
    seqs = q.sequences()
    for perm in itertools.permutations(range(4)):
        for mask in range(16):
            variant = [
                seqs[slot].negated() if mask & (1 << pos) else seqs[slot]
                for pos, slot in enumerate(perm)
            ]
            texts.append(quadruple_to_text(WilliamsonQuadruple(*variant)))
    return texts


def test_canonicalize_is_orbit_minimum():
    rng = make_rng(59)
    for _ in range(60):
        q = random_quadruple(rng, rng.randint(1, 8))
        assert quadruple_to_text(canonicalize(q)) == min(_orbit_texts(q))


def test_canonicalize_examples():
    all_ones = WilliamsonQuadruple(*(PmOneSequence((1,)),) * 4)
    assert canonicalize(all_ones) == all_ones

    rng = make_rng(61)
    q = random_quadruple(rng, 6)
    swapped = WilliamsonQuadruple(q.a, q.c, q.b, q.d)
    assert canonicalize(swapped) == canonicalize(q)
    negated = WilliamsonQuadruple(q.a.negated(), q.b, q.c, q.d)
    assert canonicalize(negated) == canonicalize(q)


def test_canonicalize_idempotent_and_preserving(found_by_order):
    for quads, _ in found_by_order.values():
        for q in quads:
            c = canonicalize(q)
            assert canonicalize(c) == c
            assert is_williamson(c)


def test_canonical_only_output_matches_orbit_reduction(found_by_order):
    for n in range(1, 7):
        raw, _ = found_by_order[n]
        expected = sorted({quadruple_to_text(canonicalize(q)) for q in raw})
        quads, report = search(n, canonical_only=True)
        assert [quadruple_to_text(q) for q in quads] == expected
        assert report.canonical_count == len(expected)
        assert report.raw_count == len(raw)


# ---------------------------------------------------------------------------
# Configuration errors


def test_search_rejects_bad_orders(monkeypatch):
    assert ORDER_CAP <= KEY_MAX_N
    with pytest.raises(ValueError):
        search(0)
    with pytest.raises(ValueError, match=f"outside supported range 1..{ORDER_CAP}"):
        search(ORDER_CAP + 1)
    # The library reads WKIT_MAX_N itself, as the command line does.
    monkeypatch.setenv("WKIT_MAX_N", "2")
    assert order_cap() == 2
    with pytest.raises(ValueError, match=r"order 3 outside supported range 1\.\.2"):
        search(3)
    monkeypatch.setenv("WKIT_MAX_N", "junk")
    with pytest.raises(ValueError, match="invalid WKIT_MAX_N value 'junk'"):
        search(1)


def test_search_refuses_orders_whose_keys_overflow(monkeypatch):
    # KEY_MAX_N is the last order whose largest packed key, (n+1)^(n//2) - 1,
    # fits int64, so it bounds WKIT_MAX_N: a larger cap is refused before
    # anything is enumerated.
    assert (KEY_MAX_N + 1) ** (KEY_MAX_N // 2) <= 2**63
    assert (KEY_MAX_N + 2) ** ((KEY_MAX_N + 1) // 2) > 2**63

    def enumerate_nothing(n):
        raise AssertionError("enumerated before the order check")

    monkeypatch.setattr(wkit.search, "symmetric_table", enumerate_nothing)
    monkeypatch.setenv("WKIT_MAX_N", str(KEY_MAX_N + 1))
    with pytest.raises(ValueError, match=f"^WKIT_MAX_N {KEY_MAX_N + 1} outside 1..{KEY_MAX_N}$"):
        search(KEY_MAX_N + 1)


# ---------------------------------------------------------------------------
# Exact re-check of the join's matches


def test_search_pafs_match_the_per_sequence_cache(monkeypatch):
    # The PAF table search() hands to the join, computed by one kernel call
    # on all sequences, equals each sequence's cached _paf_vector at shifts
    # 1..n//2, row for row; and the search leaves that cache empty.
    join = wkit.search._join
    seen = []
    monkeypatch.setattr(wkit.search, "_join", lambda pafs, n: seen.append(pafs) or join(pafs, n))
    for n in range(1, 17):
        _paf_vector.cache_clear()
        search(n)
        assert _paf_vector.cache_info().currsize == 0
        want = [_paf_vector(s.entries)[1 : n // 2 + 1] for s in enumerate_symmetric(n)]
        assert seen[-1].dtype == np.int64
        assert seen[-1].tolist() == [list(row) for row in want]


def test_row_recheck_refuses_a_non_williamson_row(monkeypatch):
    seqs = [s.entries for s in enumerate_symmetric(6)]
    pafs = paf_rows(np.array(seqs))[:, 1:]
    quads, _ = search(6)
    _check_rows(pafs, quads.rows)
    # Row 0 is the all-ones sequence four times: PAF sum 24 at every shift.
    bad = np.vstack([quads.rows, [[0, 0, 0, 0]]])
    with pytest.raises(RuntimeError, match="sum to 24 at shift 1"):
        _check_rows(pafs, bad)
    # search() re-checks whatever the join hands back.
    monkeypatch.setattr(wkit.search, "_join", lambda pafs, n: bad)
    with pytest.raises(RuntimeError, match=r"index row \[0, 0, 0, 0\]"):
        search(6)


# ---------------------------------------------------------------------------
# Lazy result sequence


def test_search_builds_no_sequence_object(monkeypatch):
    # The search and its results file work on the ±1 table alone; a
    # PmOneSequence appears only when an item of the results is accessed.
    def refuse(self):
        raise AssertionError("a PmOneSequence was built")

    want = {n: format_results(*search(n)) for n in (9, 10)}
    monkeypatch.setattr(PmOneSequence, "__post_init__", refuse)
    for n, text in want.items():
        quads, report = search(n)
        assert format_results(quads, report).split("# elapsed")[0] == text.split("# elapsed")[0]
        with pytest.raises(AssertionError, match="PmOneSequence"):
            quads[0]


def test_search_results_build_quadruples_on_access():
    quads, report = search(5)
    assert len(quads) == report.raw_count == 192
    assert not quads.rows.flags.writeable
    with pytest.raises(ValueError):
        quads.rows[0, 0] = 1
    lines = format_results(quads, report).splitlines()
    assert [quadruple_to_text(q) for q in quads] == lines[:192]
    assert quads[-1] == list(quads)[-1]
    assert list(quads[10:20]) == list(quads)[10:20]
    with pytest.raises(IndexError):
        quads[len(quads)]


# ---------------------------------------------------------------------------
# Results format


def test_format_results_layout():
    quads, report = search(2)
    text = format_results(quads, report)
    lines = text.splitlines()
    quad_lines = [line for line in lines if not line.startswith("#")]
    report_lines = [line for line in lines if line.startswith("#")]
    assert len(quad_lines) == 96
    assert quad_lines == sorted(quad_lines)
    assert report_lines[0] == "# raw_count 96"
    assert any(line.startswith("# canonical_count ") for line in report_lines)
    assert any(line.startswith("# candidates_examined ") for line in report_lines)
    assert any(line.startswith("# elapsed_seconds ") for line in report_lines)
    assert text.endswith("\n")
