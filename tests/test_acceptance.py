"""Acceptance battery: one test and one printed verdict line per requirement.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines;
each assertion carries the same truth as its printed line.
"""

import itertools
import time

import pytest

from conftest import (
    all_pm_tuples,
    make_rng,
    random_quadruple,
    symmetric_tuples,
)
from wkit.groupring import (
    even_coefficient_parity_check,
    hall_identity_check,
    mod2_square_check,
)
from wkit.cli import main
from wkit.hadamard import is_hadamard, williamson_array
from wkit.search import search
from wkit.seqcore import (
    PmOneSequence,
    WilliamsonQuadruple,
    matrix_williamson_check,
    quadruple_to_text,
)
from wkit.theorems import (
    compress2,
    corollary_mod4_check,
    product_theorem_even_check,
    product_theorem_odd_check,
    theorem_filter,
)


def _verdict(index, name, ok, detail):
    print(f"acceptance {index} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {index} {name}: {detail}"


def _brute_force_count(n):
    seqs = [PmOneSequence(t) for t in symmetric_tuples(n)]
    return sum(
        1
        for a, b, c, d in itertools.product(seqs, repeat=4)
        if matrix_williamson_check(WilliamsonQuadruple(a, b, c, d))
    )


def test_acceptance_1_exhaustive_counts():
    t0 = time.perf_counter()
    _, r1 = search(1)
    _, r2 = search(2)
    b1 = _brute_force_count(1)
    b2 = _brute_force_count(2)
    elapsed = time.perf_counter() - t0
    ok = r1.raw_count == b1 == 16 and r2.raw_count == b2 == 96 and elapsed < 1.0
    _verdict(
        1,
        "exhaustive counts",
        ok,
        f"n=1: {r1.raw_count}/{b1} (want 16), n=2: {r2.raw_count}/{b2} (want 96), {elapsed:.3f}s",
    )


def test_acceptance_2_odd_product_theorem():
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    for n in (1, 3, 5, 7):
        quads, _ = search(n)
        for q in quads:
            checked += 1
            if not product_theorem_odd_check(q):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = checked > 0 and violations == 0 and elapsed < 60.0
    _verdict(
        2,
        "odd product theorem",
        ok,
        f"{checked} quadruples, {violations} violations, {elapsed:.2f}s",
    )


def test_acceptance_3_even_product_theorem_and_parity():
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    for n in (2, 4, 6, 8):
        quads, _ = search(n)
        for q in quads:
            checked += 1
            if not product_theorem_even_check(q):
                violations += 1
            if not even_coefficient_parity_check(q):
                violations += 1
    # parity agreement on arbitrary even-order inputs, via the unguarded
    # product condition: exhaustive at n=2,4 and sampled at n=6,8
    disagreements = 0
    for n in (2, 4):
        seqs = [PmOneSequence(t) for t in symmetric_tuples(n)]
        for a, b, c, d in itertools.product(seqs, repeat=4):
            q = WilliamsonQuadruple(a, b, c, d)
            if even_coefficient_parity_check(q) != theorem_filter(q):
                disagreements += 1
    rng = make_rng(20260818)
    for _ in range(2000):
        q = random_quadruple(rng, rng.choice((6, 8)))
        if even_coefficient_parity_check(q) != theorem_filter(q):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = checked > 0 and violations == 0 and disagreements == 0 and elapsed < 300.0
    _verdict(
        3,
        "even product theorem + parity",
        ok,
        f"{checked} quadruples, {violations} violations, {disagreements} disagreements, {elapsed:.2f}s",
    )


def test_acceptance_4_mod4_corollary_and_compression_identity(found_by_order):
    violations = 0
    checked = 0
    for n in (2, 4, 6, 8):
        quads, _ = found_by_order[n]
        for q in quads:
            checked += 1
            if not corollary_mod4_check(q):
                violations += 1
    identity_failures = 0
    rng = make_rng(4)
    for _ in range(1000):
        n = 2 * rng.randint(1, 8)
        m = n // 2
        q = random_quadruple(rng, n)
        comps = [compress2(s).entries for s in q.sequences()]
        for i in range(m):
            n_plus = sum(
                1
                for s in q.sequences()
                for v in (s.entries[i], s.entries[i + m])
                if v == 1
            )
            if sum(c[i] for c in comps) != 2 * n_plus - 8:
                identity_failures += 1
    ok = checked > 0 and violations == 0 and identity_failures == 0
    _verdict(
        4,
        "mod-4 corollary + compression identity",
        ok,
        f"{checked} quadruples, {violations} violations, 1000 random, {identity_failures} identity failures",
    )


def test_acceptance_5_group_ring_oracles(found_by_order):
    hall_checked = 0
    hall_failures = 0
    for quads, _ in found_by_order.values():
        for q in quads:
            hall_checked += 1
            if not hall_identity_check(q):
                hall_failures += 1
    mod2_checked = 0
    mod2_failures = 0
    for n in range(1, 11):
        for t in all_pm_tuples(n):
            mod2_checked += 1
            if not mod2_square_check(PmOneSequence(t)):
                mod2_failures += 1
    ok = hall_failures == 0 and mod2_failures == 0 and hall_checked > 0
    _verdict(
        5,
        "group-ring oracles",
        ok,
        f"hall {hall_checked}/{hall_failures} failures, mod2 {mod2_checked}/{mod2_failures} failures",
    )


def test_acceptance_6_filter_and_worker_invariance(tmp_path):
    # The search has no filter options left, so worker invariance is the
    # whole check: --workers must not change a byte of the output.
    runs = 0
    mismatches = 0
    for n in range(1, 9):
        outputs = []
        for workers in ("1", "3"):
            path = tmp_path / f"n{n}_w{workers}.txt"
            assert main(["search", "--n", str(n), "--workers", workers, "--out", str(path)]) == 0
            lines = path.read_text().splitlines()
            outputs.append([line for line in lines if not line.startswith("# elapsed_seconds ")])
            runs += 1
        mismatches += outputs[0] != outputs[1]
    ok = mismatches == 0
    _verdict(
        6,
        "worker invariance",
        ok,
        f"orders 1..8, {runs} runs, {mismatches} output mismatches",
    )


def test_acceptance_7_hadamard_end_to_end(found_by_order):
    checked = 0
    failures = 0
    for n, (quads, _) in found_by_order.items():
        for q in quads:
            checked += 1
            m = williamson_array(q)
            if m.order != 4 * n or not is_hadamard(m):
                failures += 1
    ok = checked > 0 and failures == 0
    _verdict(
        7,
        "hadamard construction",
        ok,
        f"{checked} matrices built, {failures} failures",
    )
