"""Group ring arithmetic in Z[C_n] and the two support identities."""

import itertools

import pytest

import numpy as np

from conftest import (
    all_pm_tuples,
    double_odd,
    make_rng,
    random_pm_sequence,
    random_quadruple,
)
from wkit.groupring import (
    GroupRingElement,
    even_coefficient_parity_check,
    gre_from_signs,
    gre_mul,
    hall_identity_check,
    hall_rows,
    mod2_square_check,
    positive_count,
    positive_support,
    support_squares,
)
from wkit.seqcore import (
    MAX_ORDER,
    PmOneSequence,
    PreconditionError,
    WilliamsonQuadruple,
    is_williamson,
    stack_quadruples,
)
from wkit.theorems import theorem_filter


def seq(*entries):
    return PmOneSequence(tuple(entries))


def quad(a, b, c, d):
    return WilliamsonQuadruple(seq(*a), seq(*b), seq(*c), seq(*d))


def gre(*coeffs):
    return GroupRingElement(len(coeffs), tuple(coeffs))


N2_QUAD = quad((1, 1), (1, 1), (1, -1), (1, -1))
N3_QUAD = quad((1, 1, 1), (1, -1, -1), (1, -1, -1), (1, -1, -1))


# ---------------------------------------------------------------------------
# Element construction


def test_element_validation():
    with pytest.raises(ValueError):
        GroupRingElement(0, ())
    with pytest.raises(ValueError):
        GroupRingElement(2, (1,))
    assert str(gre(1, -1, 0)) == "1 -1 0"


def test_gre_from_signs_examples():
    assert gre_from_signs(seq(1, -1)).coeffs == (1, -1)
    assert gre_from_signs(seq(1, 1, 1)).coeffs == (1, 1, 1)
    assert gre_from_signs(seq(-1, 1, -1)).coeffs == (-1, 1, -1)


def test_positive_support_examples():
    assert positive_support(seq(1, 1)).coeffs == (1, 1)
    assert positive_count(seq(1, 1)) == 2
    assert positive_support(seq(-1, -1)).coeffs == (0, 0)
    assert positive_count(seq(-1, -1)) == 0
    assert positive_support(seq(1, -1, -1)).coeffs == (1, 0, 0)
    assert positive_count(seq(1, -1, -1)) == 1


def test_signs_decompose_into_support():
    # X = 2 P_X - (1 + u + ... + u^{n-1}) coefficientwise.
    rng = make_rng(23)
    for _ in range(300):
        s = random_pm_sequence(rng, rng.randint(1, 16))
        signs = gre_from_signs(s).coeffs
        support = positive_support(s).coeffs
        assert signs == tuple(2 * p - 1 for p in support)


# ---------------------------------------------------------------------------
# Multiplication


def test_gre_mul_examples():
    one_plus_u = gre(1, 1)
    assert gre_mul(one_plus_u, one_plus_u).coeffs == (2, 2)
    u3 = gre(0, 0, 0, 1, 0)
    u4 = gre(0, 0, 0, 0, 1)
    assert gre_mul(u3, u4).coeffs == (0, 0, 1, 0, 0)
    all_ones_3 = gre(1, 1, 1)
    assert gre_mul(all_ones_3, all_ones_3).coeffs == (3, 3, 3)


def test_gre_mul_order_mismatch():
    with pytest.raises(ValueError):
        gre_mul(gre(1, 1), gre(1, 1, 1))


def _random_element(rng, n):
    return GroupRingElement(n, tuple(rng.randint(-5, 5) for _ in range(n)))


def test_ring_laws():
    rng = make_rng(20260818)
    for _ in range(1000):
        n = rng.randint(1, 16)
        x = _random_element(rng, n)
        y = _random_element(rng, n)
        z = _random_element(rng, n)
        assert gre_mul(x, y) == gre_mul(y, x)
        assert gre_mul(gre_mul(x, y), z) == gre_mul(x, gre_mul(y, z))
        identity = GroupRingElement(n, (1,) + (0,) * (n - 1))
        assert gre_mul(x, identity) == x


def test_mul_matches_direct_convolution():
    rng = make_rng(29)
    for _ in range(200):
        n = rng.randint(1, 12)
        x = _random_element(rng, n)
        y = _random_element(rng, n)
        product = gre_mul(x, y)
        for k in range(n):
            direct = sum(
                x.coeffs[i] * y.coeffs[j]
                for i in range(n)
                for j in range(n)
                if (i + j) % n == k
            )
            assert product.coeffs[k] == direct


# ---------------------------------------------------------------------------
# Mod-2 square identity


def test_mod2_square_examples():
    assert mod2_square_check(seq(1, 1))
    assert mod2_square_check(seq(-1, -1))
    assert mod2_square_check(seq(1, -1, 1))


def test_mod2_square_exhaustive_small():
    for n in range(1, 11):
        for t in all_pm_tuples(n):
            assert mod2_square_check(PmOneSequence(t))


def test_mod2_square_random_larger():
    rng = make_rng(31)
    for _ in range(300):
        assert mod2_square_check(random_pm_sequence(rng, rng.randint(11, 16)))


# ---------------------------------------------------------------------------
# Positive-support square identity


def test_hall_identity_examples():
    assert hall_identity_check(quad((1,), (1,), (1,), (1,)))
    # LHS (2+2u)+(2+2u)+1+1 = 6+4u; RHS (2+2+1+1-2)(1+u)+2 = 6+4u
    assert hall_identity_check(N2_QUAD)
    # LHS (3+3u+3u^2)+3 = 6+3u+3u^2; RHS (3+1+1+1-3)(1+u+u^2)+3
    assert hall_identity_check(N3_QUAD)


def test_hall_identity_requires_williamson():
    with pytest.raises(PreconditionError):
        hall_identity_check(quad((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))


def test_hall_identity_on_all_found(found_by_order):
    for quads, _ in found_by_order.values():
        for q in quads:
            assert hall_identity_check(q)


def test_support_squares_match_gre_mul_at_every_order():
    # The convolution kernel against the schoolbook product, several rows
    # per call, including the all-zero and all-one supports.
    rng = make_rng(41)
    for n in range(1, MAX_ORDER + 1):
        rows = [[0] * n, [1] * n] + [[rng.randint(0, 1) for _ in range(n)] for _ in range(6)]
        squares = support_squares(np.array(rows))
        assert squares.dtype == np.int64
        for row, square in zip(rows, squares.tolist()):
            p = GroupRingElement(n, tuple(row))
            assert tuple(square) == gre_mul(p, p).coeffs


def _hall_by_definition(q):
    # The identity computed with gre_mul and no precondition.
    n = q.n
    lhs = [0] * n
    psum = 0
    for s in q.sequences():
        p = positive_support(s)
        psum += sum(p.coeffs)
        lhs = [x + y for x, y in zip(lhs, gre_mul(p, p).coeffs)]
    return lhs == [psum - n + (n if i == 0 else 0) for i in range(n)]


def test_hall_rows_agree_with_hall_identity_check(canonical_by_order):
    # Williamson quadruples of orders 1..20 and the doubled orders 26..38.
    groups = list(canonical_by_order.values())
    groups += [[double_odd(q) for q in canonical_by_order[n]] for n in (13, 15, 17, 19)]
    assert {g[0].n for g in groups} == set(range(1, 21)) | {26, 30, 34, 38}
    for quads in groups:
        assert all(is_williamson(q) for q in quads)
        batched = hall_rows(stack_quadruples(quads)).tolist()
        assert batched == [hall_identity_check(q) for q in quads]
        assert all(batched)


def test_hall_rows_on_non_williamson_rows_follow_the_definition():
    # Unguarded, the kernel computes the identity on any row, and random
    # quadruples make it fail as well as hold.
    rng = make_rng(43)
    verdicts = []
    for n in (2, 3, 4, 5, 6, 7, 9, 12):
        quads = [random_quadruple(rng, n) for _ in range(40)]
        batched = hall_rows(stack_quadruples(quads)).tolist()
        assert batched == [_hall_by_definition(q) for q in quads]
        verdicts += batched
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# Even-coefficient parity


def test_parity_check_examples():
    # k=0 entries (1,1,1,1,1,-1,1,-1): six +1s, even
    assert even_coefficient_parity_check(N2_QUAD)
    # all-ones n=2 quadruple is not Williamson, but the count (8) is even,
    # so the operation itself reports true
    assert even_coefficient_parity_check(quad((1, 1), (1, 1), (1, 1), (1, 1)))


def test_parity_check_rejects_odd_order():
    with pytest.raises(PreconditionError):
        even_coefficient_parity_check(quad((1,), (1,), (1,), (1,)))
    with pytest.raises(PreconditionError):
        even_coefficient_parity_check(N3_QUAD)


def test_parity_check_on_found_evens(found_by_order):
    for n in (2, 4, 6, 8):
        quads, _ = found_by_order[n]
        assert quads
        for q in quads:
            assert even_coefficient_parity_check(q)


def test_parity_check_false_case():
    # a=(1,1), b=c=d all-ones, k=0 entries: seven +1s, odd
    assert not even_coefficient_parity_check(
        quad((1, -1), (1, 1), (1, 1), (1, 1))
    )


def test_parity_equals_product_condition_exhaustive():
    # The parity count at even k = 2i covers exactly the eight entries of
    # the product condition at index i, so the two predicates agree on
    # every even-order candidate, Williamson or not.
    for n in (2, 4):
        seqs = [
            PmOneSequence(t)
            for t in all_pm_tuples(n)
            if all(t[i] == t[(n - i) % n] for i in range(n))
        ]
        for a, b, c, d in itertools.product(seqs, repeat=4):
            q = WilliamsonQuadruple(a, b, c, d)
            assert even_coefficient_parity_check(q) == theorem_filter(q)


def test_parity_equals_product_condition_random():
    rng = make_rng(37)
    for _ in range(2000):
        n = rng.choice((6, 8, 10, 12))
        q = random_quadruple(rng, n)
        assert even_coefficient_parity_check(q) == theorem_filter(q)
