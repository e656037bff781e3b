"""Williamson sequence toolkit: verification, search, and Hadamard construction."""

from .groupring import (
    GroupRingElement,
    even_coefficient_parity_check,
    gre_from_signs,
    gre_mul,
    hall_identity_check,
    mod2_square_check,
    positive_count,
    positive_support,
)
from .hadamard import is_hadamard, matrix_to_text, williamson_array
from .search import (
    ORDER_CAP,
    SearchReport,
    canonicalize,
    enumerate_symmetric,
    format_results,
)
from .seqcore import (
    MAX_ORDER,
    ParseError,
    PmOneSequence,
    PreconditionError,
    SquareMatrix,
    WilliamsonQuadruple,
    circulant,
    is_symmetric,
    is_williamson,
    matrix_williamson_check,
    paf,
    parse_quadruple,
    parse_sequence,
    quadruple_to_text,
    row_sum,
    sequence_to_text,
)
from .theorems import (
    CompressedSequence,
    compress2,
    corollary_mod4_check,
    mod4_filter,
    product_condition,
    product_theorem_even_check,
    product_theorem_odd_check,
    theorem_filter,
)

__version__ = "0.1.0"
