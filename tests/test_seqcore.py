"""Sequence types, PAF arithmetic, circulants, and the two Williamson checks."""

import itertools

import numpy as np
import pytest

from conftest import (
    all_pm_tuples,
    double_odd,
    make_rng,
    random_pm_sequence,
    random_quadruple,
    symmetric_by_definition,
    symmetric_tuples,
)
from wkit.groupring import gre_from_signs
from wkit.search import search
from wkit.seqcore import (
    MAX_ORDER,
    ParseError,
    PmOneSequence,
    SquareMatrix,
    WilliamsonQuadruple,
    _paf_vector,
    circulant,
    is_symmetric,
    is_williamson,
    matrix_williamson_check,
    paf,
    paf_rows,
    parse_quadruple,
    parse_sequence,
    quadruple_to_text,
    row_sum,
    rows_to_text,
    sequence_to_text,
    stack_quadruples,
    williamson_rows,
)
from wkit.theorems import compress2


def seq(*entries):
    return PmOneSequence(tuple(entries))


def quad(a, b, c, d):
    return WilliamsonQuadruple(seq(*a), seq(*b), seq(*c), seq(*d))


N2_QUAD = quad((1, 1), (1, 1), (1, -1), (1, -1))
N3_QUAD = quad((1, 1, 1), (1, -1, -1), (1, -1, -1), (1, -1, -1))


# ---------------------------------------------------------------------------
# Construction and validation


def test_sequence_rejects_bad_entries():
    with pytest.raises(ValueError):
        PmOneSequence((1, 0))
    with pytest.raises(ValueError):
        PmOneSequence((1, 2, 1))
    for entries in ((1, None), (1, "+"), (1, 0.5)):
        with pytest.raises(ValueError, match=r"entries must be \+1 or -1"):
            PmOneSequence(entries)
    with pytest.raises(ValueError):
        PmOneSequence(())
    with pytest.raises(ValueError):
        PmOneSequence((1,) * (MAX_ORDER + 1))


def test_sequence_stores_int_entries():
    # Entries equal to ±1 but of another type are stored as the ints 1 and
    # -1, so row sums, compressions and group ring coefficients print as ints.
    for given in ((1.0, -1.0), (True, -1), (np.int64(1), np.int64(-1)), np.array([1, -1])):
        entries = PmOneSequence(given).entries
        assert entries == (1, -1)
        assert [type(v) for v in entries] == [int, int]
    assert str(compress2(PmOneSequence((1.0, 1.0)))) == "2"
    assert repr(row_sum(PmOneSequence((1.0, 1.0)))) == "2"
    assert str(gre_from_signs(PmOneSequence((1.0, -1.0)))) == "1 -1"


def test_sequence_basics():
    s = seq(1, -1, -1)
    assert s.n == 3
    assert s.negated().entries == (-1, 1, 1)
    assert str(s) == "+--"
    # at the cap, still fine
    assert PmOneSequence((1,) * MAX_ORDER).n == MAX_ORDER


def test_quadruple_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        WilliamsonQuadruple(seq(1), seq(1), seq(1), seq(1, 1))


def test_quadruple_rejects_asymmetric_sequences():
    with pytest.raises(ValueError):
        quad((1, 1, -1), (1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_quadruple_basics():
    q = N2_QUAD
    assert q.n == 2
    assert q.sequences() == (q.a, q.b, q.c, q.d)


def test_square_matrix_validation():
    with pytest.raises(ValueError):
        SquareMatrix(np.zeros((0, 0), dtype=np.int64))
    with pytest.raises(ValueError):
        SquareMatrix(np.array([[1, 1, 1], [1, 1, 1]]))
    with pytest.raises(ValueError):
        SquareMatrix(np.array([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        SquareMatrix(np.array([[1.5]]))
    m = SquareMatrix(np.array([[1, 2], [3, 4]]))
    assert m.order == 2
    assert m.array.dtype == np.int64
    assert m.array[0, 1] == 2
    assert m.array[1, 0] == 3
    assert m.array[1].tolist() == [3, 4]
    with pytest.raises(ValueError):
        m.array[0, 0] = 7
    assert m.array[0, 0] == 1


# ---------------------------------------------------------------------------
# Symmetry


def test_is_symmetric_examples():
    assert is_symmetric(seq(1))
    assert is_symmetric(seq(1, -1, -1))
    # n=4 cases, each checked by hand against s[i] = s[n-i]:
    # (1,1,-1,1): s1=1, s3=1 agree -> symmetric
    assert is_symmetric(seq(1, 1, -1, 1))
    # (1,-1,-1,-1): s1=-1, s3=-1 agree -> symmetric
    assert is_symmetric(seq(1, -1, -1, -1))
    # (1,1,-1,-1): s1=1, s3=-1 differ -> not symmetric
    assert not is_symmetric(seq(1, 1, -1, -1))
    assert not is_symmetric(seq(1, -1, 1, 1))


def test_length_one_and_two_vacuously_symmetric():
    for t in all_pm_tuples(1) + all_pm_tuples(2):
        assert is_symmetric(PmOneSequence(t))


@pytest.mark.parametrize("n", range(1, 13))
def test_is_symmetric_matches_definition_scan(n):
    for t in all_pm_tuples(n):
        assert is_symmetric(PmOneSequence(t)) == symmetric_by_definition(t)


# ---------------------------------------------------------------------------
# PAF


def test_paf_examples():
    assert paf(seq(1, 1, 1), 0) == 3
    assert paf(seq(1, 1, 1), 1) == 3
    # (1)(-1) + (-1)(-1) + (-1)(1) = -1
    assert paf(seq(1, -1, -1), 1) == -1


def test_paf_shift_out_of_range():
    s = seq(1, -1, -1)
    with pytest.raises(ValueError):
        paf(s, 3)
    with pytest.raises(ValueError):
        paf(s, -1)


def test_paf_symmetry_and_zero_shift():
    rng = make_rng(20260818)
    for _ in range(300):
        n = rng.randint(1, 16)
        s = random_pm_sequence(rng, n)
        assert paf(s, 0) == n
        for k in range(1, n):
            assert paf(s, k) == paf(s, n - k)


def test_paf_matches_direct_sum():
    rng = make_rng(7)
    for _ in range(200):
        n = rng.randint(1, 16)
        s = random_pm_sequence(rng, n)
        k = rng.randrange(n)
        e = s.entries
        assert paf(s, k) == sum(e[i] * e[(i + k) % n] for i in range(n))


def test_paf_kernel_matches_definition_at_every_order():
    # Every order up to MAX_ORDER, odd and even, n = 1 and 2 included: the
    # kernel's shifts 0..n//2 and the cached full vector's shifts 0..n-1
    # (the mirrored half) against the defining sum.
    rng = np.random.default_rng(20261018)
    for n in range(1, MAX_ORDER + 1):
        rows = rng.choice((1, -1), size=(5, n))
        rows[0] = 1
        rows[1] = (-1) ** np.arange(n)
        got = paf_rows(rows)
        assert got.dtype == np.int64 and got.shape == (5, n // 2 + 1)
        for row, half in zip(rows.tolist(), got.tolist()):
            want = [sum(row[i] * row[(i + k) % n] for i in range(n)) for k in range(n)]
            assert half == want[: n // 2 + 1]
            assert _paf_vector(tuple(row)) == tuple(want)


def test_row_sum_examples():
    assert row_sum(seq(1, 1, 1)) == 3
    assert row_sum(seq(1, -1, -1)) == -1
    assert row_sum(seq(1, -1, 1, -1)) == 0


# ---------------------------------------------------------------------------
# Williamson condition, both forms


def test_is_williamson_examples():
    assert is_williamson(quad((1,), (1,), (1,), (1,)))
    # PAFs at shift 1: 2, 2, -2, -2 sum to zero
    assert is_williamson(N2_QUAD)
    # PAF sum at shift 1 is 12, not zero
    assert not is_williamson(quad((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))
    assert is_williamson(N3_QUAD)


def test_matrix_williamson_check_examples():
    assert matrix_williamson_check(quad((1,), (1,), (1,), (1,)))
    assert matrix_williamson_check(N2_QUAD)
    assert matrix_williamson_check(N3_QUAD)
    assert not matrix_williamson_check(quad((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))


def test_oracle_equivalence_exhaustive():
    # Every symmetric quadruple with n <= 8: the PAF fast path and the
    # explicit matrix arithmetic must agree.
    for n in range(1, 9):
        seqs = [PmOneSequence(t) for t in symmetric_tuples(n)]
        for a, b, c, d in itertools.product(seqs, repeat=4):
            q = WilliamsonQuadruple(a, b, c, d)
            assert is_williamson(q) == matrix_williamson_check(q)


def test_oracle_equivalence_random():
    rng = make_rng(20260818)
    for _ in range(1000):
        n = rng.randint(1, 16)
        q = random_quadruple(rng, n)
        assert is_williamson(q) == matrix_williamson_check(q)


def test_oracle_equivalence_at_large_orders():
    # Orders 17..64, beyond the random test above: random quadruples
    # (almost all fail), doubled Williamson quadruples of orders 18..30,
    # and each of those with one symmetric pair of entries flipped.
    rng = make_rng(20261018)
    quads = [random_quadruple(rng, rng.randint(17, MAX_ORDER)) for _ in range(150)]
    for odd in (9, 11, 13, 15):
        found, _ = search(odd)
        for i in rng.sample(range(len(found)), 10):
            q = double_odd(found[i])
            entries = list(q.a.entries)
            k = rng.randrange(1, q.n)
            entries[k] = entries[q.n - k] = -entries[k]
            quads += [q, WilliamsonQuadruple(seq(*entries), q.b, q.c, q.d)]
    verdicts = [is_williamson(q) for q in quads]
    assert verdicts == [matrix_williamson_check(q) for q in quads]
    assert sum(verdicts) >= 40


def test_williamson_rows_match_is_williamson():
    # The batched kernel on stacks of one order: random quadruples at
    # every order 1..64, the exhaustive sets at orders 1..8 and doubled
    # Williamson quadruples of orders 18..30.
    rng = make_rng(20261019)
    stacks = [[random_quadruple(rng, n) for _ in range(12)] for n in range(1, MAX_ORDER + 1)]
    stacks += [list(search(n)[0]) for n in range(1, 9)]
    stacks += [[double_odd(q) for q in search(n, canonical_only=True)[0]] for n in (9, 11, 13, 15)]
    verdicts = []
    for quads in stacks:
        rows = stack_quadruples(quads)
        assert rows.shape == (len(quads), 4, quads[0].n) and rows.dtype == np.int64
        batched = williamson_rows(rows).tolist()
        assert batched == [is_williamson(q) for q in quads]
        verdicts += batched
    assert True in verdicts and False in verdicts


def test_paf_total_over_all_shifts_is_row_sum_squared():
    # sum_k paf(s, k) counts every ordered entry pair once: (sum s_i)^2.
    rng = make_rng(11)
    for _ in range(200):
        n = rng.randint(1, 16)
        s = random_pm_sequence(rng, n)
        assert sum(paf(s, k) for k in range(n)) == row_sum(s) ** 2


def test_row_sum_consistency_on_found(found_by_order):
    # Summing the defining PAF identity over all shifts forces
    # sum of squared row sums = 4n.
    for n, (quads, _) in found_by_order.items():
        for q in quads:
            assert sum(row_sum(s) ** 2 for s in q.sequences()) == 4 * n


# ---------------------------------------------------------------------------
# Circulant matrices


def test_circulant_examples():
    assert circulant(seq(1)).array.tolist() == [[1]]
    assert circulant(seq(1, -1)).array.tolist() == [[1, -1], [-1, 1]]
    m = circulant(seq(1, -1, -1))
    assert m.array[0].tolist() == [1, -1, -1]
    assert m.array[1].tolist() == [-1, 1, -1]
    assert m.array[2].tolist() == [-1, -1, 1]


def test_circulant_matches_definition():
    rng = make_rng(13)
    for _ in range(100):
        n = rng.randint(1, 12)
        s = random_pm_sequence(rng, n)
        m = circulant(s)
        assert m.order == n
        for i in range(n):
            for j in range(n):
                assert m.array[i, j] == s.entries[(j - i) % n]


def test_circulant_of_symmetric_is_symmetric_matrix():
    for n in range(1, 11):
        for t in symmetric_tuples(n):
            m = circulant(PmOneSequence(t))
            assert all(
                m.array[i, j] == m.array[j, i] for i in range(n) for j in range(n)
            )


# ---------------------------------------------------------------------------
# Text forms


def test_sequence_text_round_trip():
    assert sequence_to_text(seq(1, -1, -1)) == "+--"
    assert parse_sequence("+--").entries == (1, -1, -1)
    assert parse_sequence("  +--  ").entries == (1, -1, -1)
    rng = make_rng(17)
    for _ in range(200):
        s = random_pm_sequence(rng, rng.randint(1, 16))
        assert parse_sequence(sequence_to_text(s)) == s


def test_rows_to_text_renders_each_row_as_its_sequence_text():
    rng = make_rng(23)
    for n in (1, 2, 7, MAX_ORDER):
        seqs = [random_pm_sequence(rng, n) for _ in range(20)]
        rows = np.array([s.entries for s in seqs])
        assert rows_to_text(rows) == [sequence_to_text(s) for s in seqs]
    assert rows_to_text(np.empty((0, 3), dtype=np.int64)) == []


def test_quadruple_text_round_trip():
    text = "+++;+--;+--;+--"
    q = parse_quadruple(text)
    assert quadruple_to_text(q) == text
    assert parse_quadruple("  +++;+--;+--;+--  ") == q
    # whitespace inside the quadruple is not a sign character
    with pytest.raises(ParseError):
        parse_quadruple("+++ ;+--;+--;+--")
    rng = make_rng(19)
    for _ in range(200):
        q = random_quadruple(rng, rng.randint(1, 16))
        assert parse_quadruple(quadruple_to_text(q)) == q


def test_parse_sequence_errors():
    with pytest.raises(ParseError) as exc:
        parse_sequence("++x")
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        parse_sequence("")
    with pytest.raises(ParseError):
        parse_sequence("   ")
    # Columns count from the start of the untrimmed text.
    for text, message in (
        ("   ", "column 4: empty sequence"),
        ("\t+-x", "column 4: unexpected character 'x'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_sequence(text)
        assert str(exc.value) == message, text


def test_parse_quadruple_errors():
    with pytest.raises(ParseError) as exc:
        parse_quadruple("+;+;x;+")
    assert exc.value.column == 5
    with pytest.raises(ParseError):
        parse_quadruple("+;+;+")
    with pytest.raises(ParseError):
        parse_quadruple("+;+;+;+;+")
    with pytest.raises(ParseError):
        parse_quadruple("+;+;;+")
    with pytest.raises(ParseError):
        parse_quadruple("")
    for text, message in (
        ("  +;+;x;+", "column 7: unexpected character 'x'"),
        ("  +;+;+  ", "column 7: expected 4 ';'-separated sequences, got 3"),
        ("+;+;+;+;", "column 8: expected 4 ';'-separated sequences, got 5"),
        ("+;;+;+", "column 3: empty sequence in quadruple"),
        (" ;+;+;+", "column 2: empty sequence in quadruple"),
        ("   ", "column 4: empty quadruple"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_quadruple(text)
        assert str(exc.value) == message, text


def test_parse_quadruple_structural_errors_are_not_parse_errors():
    # Well-formed text with a structural violation raises a plain
    # ValueError from the constructor, not a ParseError.
    for text in ("+;+;+;++", "++-;+++;+++;+++"):
        with pytest.raises(ValueError) as exc:
            parse_quadruple(text)
        assert not isinstance(exc.value, ParseError)


def test_parse_error_message_names_column():
    with pytest.raises(ParseError, match="column 3"):
        parse_sequence("++x")
