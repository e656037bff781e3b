"""Product theorems, 2-compression, and the mod-4 corollary."""

import itertools

import numpy as np
import pytest

from conftest import make_rng, random_pm_sequence, random_quadruple, symmetric_tuples
from wkit.seqcore import PmOneSequence, PreconditionError, WilliamsonQuadruple, row_sum
from wkit.seqcore import stack_quadruples
from wkit.theorems import (
    CompressedSequence,
    compress2,
    corollary_mod4_check,
    mod4_filter,
    mod4_rows,
    product_condition,
    product_rows,
    product_theorem_even_check,
    product_theorem_odd_check,
    theorem_filter,
)


def seq(*entries):
    return PmOneSequence(tuple(entries))


def quad(a, b, c, d):
    return WilliamsonQuadruple(seq(*a), seq(*b), seq(*c), seq(*d))


N2_QUAD = quad((1, 1), (1, 1), (1, -1), (1, -1))
N3_QUAD = quad((1, 1, 1), (1, -1, -1), (1, -1, -1), (1, -1, -1))


# ---------------------------------------------------------------------------
# CompressedSequence


def test_compressed_sequence_validation():
    CompressedSequence((2, 0, -2))
    with pytest.raises(ValueError):
        CompressedSequence((1,))
    with pytest.raises(ValueError):
        CompressedSequence((2, 4))
    assert str(CompressedSequence((2, -2, 0))) == "2 -2 0"


# ---------------------------------------------------------------------------
# Odd product theorem


def test_product_odd_examples():
    # n=1: empty index range
    assert product_theorem_odd_check(quad((1,), (1,), (1,), (1,)))
    # n=3: a0b0c0d0=1, i=1 product (1)(-1)(-1)(-1) = -1
    assert product_theorem_odd_check(N3_QUAD)


def test_product_odd_preconditions():
    with pytest.raises(PreconditionError):
        product_theorem_odd_check(N2_QUAD)
    with pytest.raises(PreconditionError):
        product_theorem_odd_check(quad((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))


def test_product_odd_on_found(found_by_order):
    for n in (1, 3, 5, 7):
        quads, _ = found_by_order[n]
        assert quads
        for q in quads:
            assert product_theorem_odd_check(q)


# ---------------------------------------------------------------------------
# Even product theorem


def test_product_even_examples():
    # i=0 product 1, i+m=1 product 1*1*(-1)*(-1)=1
    assert product_theorem_even_check(N2_QUAD)
    # PAF sum at shift 1: 2 + 2 - 2 - 2 = 0, so Williamson; both products 1
    assert product_theorem_even_check(
        quad((1, 1), (-1, -1), (1, -1), (-1, 1))
    )


def test_product_even_preconditions():
    with pytest.raises(PreconditionError):
        product_theorem_even_check(N3_QUAD)
    with pytest.raises(PreconditionError):
        product_theorem_even_check(quad((1, 1), (1, 1), (1, 1), (1, 1)))


def test_product_even_on_found(found_by_order):
    for n in (2, 4, 6, 8):
        quads, _ = found_by_order[n]
        assert quads
        for q in quads:
            assert product_theorem_even_check(q)


# ---------------------------------------------------------------------------
# 2-compression


def test_compress2_examples():
    assert compress2(seq(1, 1)).entries == (2,)
    assert compress2(seq(1, -1, 1, -1)).entries == (2, -2)
    assert compress2(seq(1, -1, -1, 1)).entries == (0, 0)


def test_compress2_rejects_odd_length():
    with pytest.raises(PreconditionError):
        compress2(seq(1, -1, -1))


def test_compress2_matches_definition():
    rng = make_rng(41)
    for _ in range(300):
        m = rng.randint(1, 8)
        s = random_pm_sequence(rng, 2 * m)
        c = compress2(s)
        assert len(c.entries) == m
        for i in range(m):
            assert c.entries[i] == s.entries[i] + s.entries[i + m]


def test_compress2_preserves_row_sum():
    rng = make_rng(43)
    for _ in range(300):
        s = random_pm_sequence(rng, 2 * rng.randint(1, 8))
        assert sum(compress2(s).entries) == row_sum(s)


# ---------------------------------------------------------------------------
# Mod-4 corollary


def test_corollary_examples():
    # A'=[2], B'=[2], C'=[0], D'=[0]; sum [4] is 0 mod 4
    assert corollary_mod4_check(N2_QUAD)


def test_corollary_preconditions():
    with pytest.raises(PreconditionError):
        corollary_mod4_check(N3_QUAD)
    with pytest.raises(PreconditionError):
        corollary_mod4_check(quad((1, 1), (1, 1), (1, 1), (1, 1)))


def test_corollary_on_found_evens(found_by_order):
    for n in (2, 4, 6, 8):
        quads, _ = found_by_order[n]
        for q in quads:
            assert corollary_mod4_check(q)


def test_all_zero_compressions_pass_the_mod4_condition():
    # (1,-1) compresses to [0]; four zero compressions sum to zero.  The
    # quadruple is not Williamson, so the unguarded filter shows the
    # condition itself while the guarded corollary refuses the input.
    q = quad((1, -1), (1, -1), (1, -1), (1, -1))
    assert all(compress2(s).entries == (0,) for s in q.sequences())
    assert mod4_filter(q)
    with pytest.raises(PreconditionError):
        corollary_mod4_check(q)


def test_compression_sum_identity():
    # Entrywise, a'+b'+c'+d' = 2 N+ - 8 where N+ counts the +1s among the
    # eight contributing entries; holds for arbitrary quadruples.
    rng = make_rng(20260818)
    for _ in range(1000):
        n = 2 * rng.randint(1, 8)
        m = n // 2
        q = random_quadruple(rng, n)
        comps = [compress2(s).entries for s in q.sequences()]
        for i in range(m):
            total = sum(c[i] for c in comps)
            n_plus = sum(
                1
                for s in q.sequences()
                for v in (s.entries[i], s.entries[i + m])
                if v == 1
            )
            assert total == 2 * n_plus - 8


# ---------------------------------------------------------------------------
# Unguarded filters


def test_theorem_filter_accepts_williamson(found_by_order):
    for quads, _ in found_by_order.values():
        for q in quads:
            assert theorem_filter(q)


def test_theorem_filter_rejects_violating_candidates():
    # i=0 product 1 vs i=1 product -1
    assert not theorem_filter(quad((1, 1), (1, 1), (1, 1), (1, -1)))
    # odd case: all-ones n=3 has i=1 product +1, but -a0b0c0d0 = -1
    assert not theorem_filter(quad((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))


def test_mod4_filter_vacuous_on_odd_orders():
    rng = make_rng(47)
    for _ in range(100):
        n = rng.choice((1, 3, 5, 7, 9))
        assert mod4_filter(random_quadruple(rng, n))


def test_mod4_filter_equals_product_filter_on_even_orders():
    # For even orders the mod-4 compression condition and the product
    # condition reject exactly the same candidates: entrywise, the
    # compression sum is 2 N+ - 8, which is 0 mod 4 exactly when N+ is
    # even, i.e. when the eight-entry product is +1.
    for n in (2, 4):
        seqs = [PmOneSequence(t) for t in symmetric_tuples(n)]
        for a, b, c, d in itertools.product(seqs, repeat=4):
            q = WilliamsonQuadruple(a, b, c, d)
            assert mod4_filter(q) == theorem_filter(q)
    rng = make_rng(53)
    for _ in range(2000):
        q = random_quadruple(rng, rng.choice((6, 8, 10)))
        assert mod4_filter(q) == theorem_filter(q)


# ---------------------------------------------------------------------------
# Batched kernels


def _product_by_definition(q):
    a, b, c, d = (s.entries for s in q.sequences())
    p = [a[i] * b[i] * c[i] * d[i] for i in range(q.n)]
    if q.n % 2:
        return all(p[i] == -p[0] for i in range(1, (q.n + 1) // 2))
    m = q.n // 2
    return all(p[i] == p[i + m] for i in range(m))


def _mod4_by_definition(q):
    if q.n % 2:
        return True
    comps = [compress2(s).entries for s in q.sequences()]
    return all(sum(col) % 4 == 0 for col in zip(*comps))


def test_product_and_mod4_rows_follow_the_definitions(found_by_order):
    # Stacks of one order: random candidates at orders 1..24 (passing and
    # failing both conditions) and the exhaustive sets at orders 1..8.
    rng = make_rng(59)
    stacks = [[random_quadruple(rng, n) for _ in range(30)] for n in range(1, 25)]
    stacks += [list(quads) for quads, _ in found_by_order.values()]
    product_verdicts, mod4_verdicts = [], []
    for quads in stacks:
        rows = stack_quadruples(quads)
        products = product_rows(rows).tolist()
        assert products == [_product_by_definition(q) for q in quads]
        assert products == [theorem_filter(q) for q in quads]
        mod4 = mod4_rows(rows).tolist()
        assert mod4 == [_mod4_by_definition(q) for q in quads]
        assert mod4 == [mod4_filter(q) for q in quads]
        product_verdicts += products
        mod4_verdicts += mod4
    assert {True, False} <= set(product_verdicts) and {True, False} <= set(mod4_verdicts)


def test_product_condition_takes_one_sequence_or_a_stack():
    rows = np.array([[1, 1, -1, 1, 1, -1], [1, 1, 1, -1, 1, 1]])
    assert product_condition(rows[0]) and not product_condition(rows[1])
    assert product_condition(rows[:2]).tolist() == [True, False]
    assert product_condition([1, -1, -1]) and not product_condition((1, 1, 1))
    assert product_condition(np.array([[1]])).tolist() == [True]
