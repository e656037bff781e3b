"""Williamson array construction and the Hadamard check."""

import numpy as np
import pytest

from wkit.hadamard import is_hadamard, matrix_to_text, williamson_array
from wkit.seqcore import PmOneSequence, PreconditionError, SquareMatrix, WilliamsonQuadruple


def seq(*entries):
    return PmOneSequence(tuple(entries))


def quad(a, b, c, d):
    return WilliamsonQuadruple(seq(*a), seq(*b), seq(*c), seq(*d))


N1_QUAD = quad((1,), (1,), (1,), (1,))
N2_QUAD = quad((1, 1), (1, 1), (1, -1), (1, -1))
N3_QUAD = quad((1, 1, 1), (1, -1, -1), (1, -1, -1), (1, -1, -1))


def test_array_order_one_explicit():
    m = williamson_array(N1_QUAD)
    assert m.order == 4
    assert m.array.tolist() == [
        [1, 1, 1, 1],
        [-1, 1, -1, 1],
        [-1, 1, 1, -1],
        [-1, -1, 1, 1],
    ]
    assert is_hadamard(m)


def test_array_order_two():
    m = williamson_array(N2_QUAD)
    assert m.order == 8
    assert np.isin(m.array, (1, -1)).all()
    assert is_hadamard(m)


def test_array_order_three():
    m = williamson_array(N3_QUAD)
    assert m.order == 12
    assert np.isin(m.array, (1, -1)).all()
    assert is_hadamard(m)


def test_array_blocks_are_circulants_of_the_inputs():
    m = williamson_array(N3_QUAD)
    n = 3
    # top block row is (A B C D): block (0, j) holds circulant of sequence j
    for j, s in enumerate(N3_QUAD.sequences()):
        for r in range(n):
            for c in range(n):
                assert m.array[r, j * n + c] == s.entries[(c - r) % n]


def test_array_requires_williamson():
    with pytest.raises(PreconditionError):
        williamson_array(quad((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)))


def test_is_hadamard_small_cases():
    assert is_hadamard(SquareMatrix(np.array([[1]])))
    assert is_hadamard(SquareMatrix(np.array([[1, 1], [1, -1]])))
    assert not is_hadamard(SquareMatrix(np.array([[1, 1], [1, 1]])))


def test_is_hadamard_rejects_non_pm_entries():
    with pytest.raises(ValueError):
        is_hadamard(SquareMatrix(np.array([[1, 0], [0, 1]])))


def test_matrix_to_text_format():
    text = matrix_to_text(williamson_array(N1_QUAD))
    assert text.splitlines() == ["order 4", "++++", "-+-+", "-++-", "--++"]
    with pytest.raises(ValueError):
        matrix_to_text(SquareMatrix(np.array([[3]])))


def test_constructions_from_search_are_hadamard(found_by_order):
    for n in range(1, 6):
        quads, _ = found_by_order[n]
        for q in quads:
            m = williamson_array(q)
            assert m.order == 4 * n
            assert np.isin(m.array, (1, -1)).all()
            assert is_hadamard(m)
