"""Tests for the benchmark itself: oracle, generators and output checking."""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n", range(1, 7))
def test_join_matches_matrix_brute_force(n):
    join = {oracle.quad_text(q) for q in oracle.williamson_set(n)}
    brute = {oracle.quad_text(q) for q in oracle.brute_force_set(n)}
    assert join == brute
    assert len(join) == len(oracle.williamson_set(n))


@pytest.mark.parametrize("n, raw, canonical", [(10, 7680, 20), (11, 1920, 5)])
def test_join_reproduces_known_counts(n, raw, canonical):
    texts, raw_count, canonical_count = workloads.expected_search_lines(n)
    assert (raw_count, canonical_count) == (raw, canonical)
    assert texts == sorted(set(texts))


def test_doubling_gives_williamson_quadruples():
    doubled = oracle.double_odd(oracle.williamson_set(7))
    assert doubled.shape[1:] == (4, 14)
    assert oracle.is_williamson_rows(doubled).all()
    assert np.array_equal(doubled, doubled[..., (-np.arange(14)) % 14])  # symmetric


def test_planted_pool_is_williamson_and_shares_no_sequence():
    pool = workloads.planted_pool()
    seqs = [s for line in pool for s in line.split(";")]
    assert len(seqs) == len(set(seqs))
    assert len(pool) >= 500
    for idx, quads in oracle.parse_lines(pool).values():
        assert oracle.is_williamson_rows(quads).all()


def test_permute_is_a_bijection():
    for bits in (1, 3, 8):
        key = (0x9E3779B97F4A7C15, 12345, 0xDEADBEEF)
        assert sorted(workloads._permute(x, bits, key) for x in range(1 << bits)) == list(range(1 << bits))


def _batches(seed, pool, count):
    stream = workloads.ScreenStream(seed, pool)
    return [stream.next_batch() for _ in range(count)]


def test_screen_stream_is_deterministic_and_seed_dependent():
    pool = ["+;+;+;+"]  # any pool; determinism does not depend on it
    assert _batches(3, pool, 4) == _batches(3, pool, 4)
    assert _batches(3, pool, 4) != _batches(4, pool, 4)


def test_screen_stream_never_repeats_a_sequence():
    pool = workloads.planted_pool()
    lines = [line for _, _, batch in _batches(7, pool, 80) for line in batch]
    seqs = [s for line in lines for s in line.split(";")]
    assert len(seqs) == len(set(seqs))
    orders = {len(s) for s in seqs}
    assert orders <= set(workloads.SCREEN_ORDERS) and len(orders) > 30
    planted = set(pool).intersection(lines)
    assert 0 < len(planted) < 0.03 * len(lines)


def test_screen_stream_drops_an_exhausted_order(monkeypatch):
    # Order 1 has 2 symmetric sequences, too few for a line; order 4 has 8.
    monkeypatch.setattr(workloads, "SCREEN_ORDERS", (1, 4))
    stream = workloads.ScreenStream(0, [])
    lines = [stream.line() for _ in range(2)]
    seqs = [s for line in lines for s in line.split(";")]
    assert len(seqs) == len(set(seqs)) == 8 and {len(s) for s in seqs} == {4}
    with pytest.raises(IndexError):
        stream.line()
    assert stream.open == []


def test_certify_and_search_ops_are_deterministic(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    ops_a = workloads.certify_ops(5, a)
    ops_b = workloads.certify_ops(5, b)
    ops_c = workloads.certify_ops(6, c)
    read = lambda ops: [Path(op.input).read_text() for op in ops]
    assert read(ops_a) == read(ops_b)
    assert read(ops_a) != read(ops_c)
    assert workloads.search_ops(5) == workloads.search_ops(5)
    lines = [line for op in ops_a if op.kind == "a" for line in Path(op.input).read_text().split()]
    orders = {line.index(";") for line in lines}
    assert orders == set(workloads.CERTIFY_ORDERS)


def _search_output(n):
    texts, raw, canonical = workloads.expected_search_lines(n)
    return "\n".join(texts + [f"# raw_count {raw}", f"# canonical_count {canonical}",
                              "# elapsed_seconds 0.1"]) + "\n"


def test_corrupted_output_or_wrong_exit_code_is_a_failed_op():
    verify = workloads.Op("a", ("verify",), 1, 0, workloads.verify_line(1, 4, True) + "\n")
    search = workloads.Op("a", ("search",), 1, 0, ("search", 6))
    good_verify = {"rc": 0, "error": None, "out": verify.expect}
    good_search = {"rc": 0, "error": None, "out": _search_output(6)}
    ops = [verify, search]
    assert run.count_failed(ops, [good_verify, good_search], {}) == 0

    corrupted = dict(good_verify, out=verify.expect.replace("hall=PASS", "hall=FAIL"))
    assert run.count_failed(ops, [corrupted, good_search], {}) == 1
    lines = good_search["out"].split("\n")
    lines[3] = lines[3].replace("+", "-", 1)
    assert run.count_failed(ops, [good_verify, dict(good_search, out="\n".join(lines))], {}) == 1
    assert run.count_failed(ops, [dict(good_verify, rc=1), dict(good_search, rc=2)], {}) == 2
    assert run.count_failed(ops, [dict(good_verify, error="boom"), dict(good_search, out=None)], {}) == 2


def test_hadamard_check_accepts_the_program_output_and_rejects_a_bad_row():
    from wkit.hadamard import matrix_to_text, williamson_array
    from wkit.seqcore import parse_quadruple

    quad = oracle.williamson_set(5)[17]
    text = matrix_to_text(williamson_array(parse_quadruple(oracle.quad_text(quad)))) + "\n"
    assert oracle.hadamard_ok(text, quad)
    rows = text.split("\n")
    rows[2] = rows[2].translate(str.maketrans("+-", "-+"))
    assert not oracle.hadamard_ok("\n".join(rows), quad)
    assert not oracle.hadamard_ok(text, oracle.williamson_set(5)[0] * -1)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracing_fails_on_a_missing_binding(monkeypatch):
    import tracing
    import wkit.cli

    monkeypatch.delattr(wkit.cli, tracing.WRAPPED[0][1])  # the first binding install wraps
    with pytest.raises(LookupError, match="update tracing.WRAPPED"):
        tracing.install(tracing.Tracer())


def test_search_counters_come_from_the_output_and_must_all_be_there():
    out = _search_output(6) + "".join(f"# {key} {i}\n" for i, key in enumerate(run.SEARCH_COUNTERS[1:]))
    assert run.search_counters(out) == {"raw_count": 1536, "candidates_examined": 0,
                                        "pruned_rowsum": 1, "pruned_product": 2, "pruned_mod4": 3}
    with pytest.raises(LookupError, match="pruned_mod4"):
        run.search_counters(out.replace("# pruned_mod4", "# pruned_other"))
