"""Command-line interface: subcommands, text formats, exit codes."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wkit
from wkit.cli import OK, USAGE_ERROR, VERIFY_FAILED, main
from wkit.search import ORDER_CAP
from wkit.seqcore import MAX_ORDER


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("WKIT_MAX_N", raising=False)


@pytest.fixture()
def run_cli(monkeypatch, capsys):
    def run(argv, stdin_text=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err

    return run


# ---------------------------------------------------------------------------
# verify


def test_verify_all_pass_odd(run_cli):
    rc, out, err = run_cli(["verify"], "+;+;+;+\n")
    assert rc == OK
    assert out == "line 1: williamson=PASS product=PASS hall=PASS\n"
    assert err == ""


def test_verify_all_pass_even(run_cli):
    rc, out, _ = run_cli(["verify"], "++;++;+-;+-\n")
    assert rc == OK
    assert out == "line 1: williamson=PASS product=PASS mod4=PASS hall=PASS\n"


def test_verify_failure(run_cli):
    rc, out, _ = run_cli(["verify"], "+++;+++;+++;+++\n")
    assert rc == VERIFY_FAILED
    assert out == "line 1: williamson=FAIL product=SKIP hall=SKIP\n"


def test_verify_multiple_lines_and_blanks(run_cli):
    rc, out, _ = run_cli(["verify"], "+;+;+;+\n\n+++;+++;+++;+++\n")
    assert rc == VERIFY_FAILED
    lines = out.splitlines()
    assert lines[0].startswith("line 1: williamson=PASS")
    assert lines[1].startswith("line 3: williamson=FAIL")


def test_verify_parse_error(run_cli):
    rc, out, err = run_cli(["verify"], "++x;++;+-;+-\n")
    assert rc == USAGE_ERROR
    assert out == ""
    assert "line 1, column 3: unexpected character 'x'" in err


def test_verify_structural_error_is_a_failure(run_cli):
    rc, out, _ = run_cli(["verify"], "+;+;+;++\n")
    assert rc == VERIFY_FAILED
    assert out.startswith("line 1: williamson=FAIL (")


# ---------------------------------------------------------------------------
# search


def _split_results(out):
    lines = out.splitlines()
    return (
        [line for line in lines if not line.startswith("#")],
        [line for line in lines if line.startswith("#")],
    )


def test_search_n1(run_cli):
    rc, out, _ = run_cli(["search", "--n", "1"])
    assert rc == OK
    quad_lines, report_lines = _split_results(out)
    assert len(quad_lines) == 16
    assert "# raw_count 16" in report_lines


def test_search_n2(run_cli):
    rc, out, _ = run_cli(["search", "--n", "2"])
    assert rc == OK
    quad_lines, report_lines = _split_results(out)
    assert len(quad_lines) == 96
    assert "# raw_count 96" in report_lines


def test_search_canonical(run_cli):
    rc, raw_out, _ = run_cli(["search", "--n", "2"])
    assert rc == OK
    rc, out, _ = run_cli(["search", "--n", "2", "--canonical"])
    assert rc == OK
    quad_lines, report_lines = _split_results(out)
    assert "# raw_count 96" in report_lines
    assert f"# canonical_count {len(quad_lines)}" in report_lines
    assert len(quad_lines) < 96
    raw_quads, _ = _split_results(raw_out)
    assert set(quad_lines) <= set(raw_quads)


@pytest.mark.parametrize("flag", ["--no-product-filter", "--no-rowsum-filter", "--no-mod4-filter"])
def test_search_removed_filter_flags_are_usage_errors(run_cli, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(["search", "--n", "4", flag])
    assert exc.value.code == USAGE_ERROR


def test_search_takes_no_input_file(run_cli, tmp_path):
    # The search reads nothing, so --in is a usage error, for a missing
    # file as for a readable one.
    present = tmp_path / "present.txt"
    present.write_text("+;+;+;+\n")
    for path in (tmp_path / "missing", present):
        with pytest.raises(SystemExit) as exc:
            run_cli(["search", "--n", "2", "--in", str(path)])
        assert exc.value.code == USAGE_ERROR


def test_search_workers_flag(run_cli):
    rc, one, _ = run_cli(["search", "--n", "4", "--workers", "1"])
    assert rc == OK
    rc, four, _ = run_cli(["search", "--n", "4", "--workers", "4"])
    assert rc == OK
    assert _split_results(one)[0] == _split_results(four)[0]


def test_search_rejects_bad_worker_count(run_cli):
    for workers in ("0", "-2"):
        rc, out, err = run_cli(["search", "--n", "2", "--workers", workers])
        assert rc == USAGE_ERROR
        assert out == ""
        assert err.startswith("wkit search:")
        assert err.count("\n") == 1


def test_search_rejects_bad_orders(run_cli):
    rc, _, err = run_cli(["search", "--n", "0"])
    assert rc == USAGE_ERROR
    assert "wkit search:" in err
    rc, _, err = run_cli(["search", "--n", str(ORDER_CAP + 1)])
    assert rc == USAGE_ERROR


def test_search_env_cap(run_cli, monkeypatch):
    monkeypatch.setenv("WKIT_MAX_N", "2")
    rc, _, err = run_cli(["search", "--n", "3"])
    assert rc == USAGE_ERROR
    monkeypatch.setenv("WKIT_MAX_N", "3")
    rc, out, _ = run_cli(["search", "--n", "3"])
    assert rc == OK
    assert len(_split_results(out)[0]) == 64


def test_search_env_cap_above_the_join_key_width(run_cli, monkeypatch):
    # WKIT_MAX_N accepts 28, but the join's packed keys overflow int64 there:
    # a one-line refusal, before any work.
    monkeypatch.setenv("WKIT_MAX_N", "28")
    rc, out, err = run_cli(["search", "--n", "28"])
    assert rc == USAGE_ERROR
    assert out == ""
    assert err.startswith("wkit search: order 28 ")
    assert err.count("\n") == 1


def test_search_env_cap_junk(run_cli, monkeypatch):
    monkeypatch.setenv("WKIT_MAX_N", "junk")
    rc, _, err = run_cli(["search", "--n", "2"])
    assert rc == USAGE_ERROR
    assert "WKIT_MAX_N" in err


@pytest.mark.parametrize("value", ["-3", "0", str(MAX_ORDER + 1)])
def test_search_env_cap_out_of_range(run_cli, monkeypatch, value):
    monkeypatch.setenv("WKIT_MAX_N", value)
    rc, out, err = run_cli(["search", "--n", "2"])
    assert rc == USAGE_ERROR
    assert out == ""
    assert err == f"wkit search: WKIT_MAX_N {value} outside 1..{MAX_ORDER}\n"


# ---------------------------------------------------------------------------
# compress


def test_compress_examples(run_cli):
    rc, out, err = run_cli(["compress"], "++\n+-+-\n+--+\n")
    assert rc == OK
    assert out == "2\n2 -2\n0 0\n"
    assert err == ""


def test_compress_odd_length_line(run_cli):
    rc, out, err = run_cli(["compress"], "++\n+-+\n")
    assert rc == VERIFY_FAILED
    assert out == "2\n"
    assert "line 2:" in err


def test_compress_over_long_line(run_cli):
    # Reported like an odd-length line, not as a traceback.
    long_line = "+" * (MAX_ORDER + 2)
    rc, out, err = run_cli(["compress"], f"++\n{long_line}\n+-+-\n")
    assert rc == VERIFY_FAILED
    assert out == "2\n2 -2\n"
    assert err == f"line 2: sequence length {MAX_ORDER + 2} exceeds cap {MAX_ORDER}\n"


def test_compress_parse_error(run_cli):
    rc, _, err = run_cli(["compress"], "+x\n")
    assert rc == USAGE_ERROR
    assert "column 2" in err


# ---------------------------------------------------------------------------
# hadamard


def test_hadamard_order_four(run_cli):
    rc, out, _ = run_cli(["hadamard"], "+;+;+;+\n")
    assert rc == OK
    assert out == "order 4\n++++\n-+-+\n-++-\n--++\n"


def test_hadamard_order_eight(run_cli):
    rc, out, _ = run_cli(["hadamard"], "++;++;+-;+-\n")
    assert rc == OK
    lines = out.splitlines()
    assert lines[0] == "order 8"
    assert len(lines) == 9
    assert all(set(line) <= {"+", "-"} and len(line) == 8 for line in lines[1:])


def test_hadamard_refuses_non_williamson(run_cli):
    rc, out, err = run_cli(["hadamard"], "+++;+++;+++;+++\n")
    assert rc == VERIFY_FAILED
    assert out == ""
    assert "refusing" in err


def test_hadamard_rejects_junk(run_cli):
    rc, _, err = run_cli(["hadamard"], "+;+;+\n")
    assert rc == USAGE_ERROR
    rc, _, err = run_cli(["hadamard"], "")
    assert rc == USAGE_ERROR
    # the error names the line the quadruple is on, after blank lines
    rc, out, err = run_cli(["hadamard"], "\n\n++;+x;+-;+-")
    assert rc == USAGE_ERROR
    assert out == ""
    assert err == "line 3, column 5: unexpected character 'x'\n"


def test_hadamard_rejects_extra_lines(run_cli):
    rc, out, err = run_cli(["hadamard"], "+;+;+;+\n\n++;++;+-;+-\n")
    assert rc == USAGE_ERROR
    assert out == ""
    assert err == "wkit hadamard: expected one quadruple line, got 2\n"


# ---------------------------------------------------------------------------
# check


def test_check_symmetric(run_cli):
    rc, out, _ = run_cli(["check", "symmetric"], "+--\n++-\n")
    assert rc == VERIFY_FAILED
    assert out == "line 1: PASS\nline 2: FAIL\n"


def test_check_williamson(run_cli):
    rc, out, _ = run_cli(["check", "williamson"], "++;++;+-;+-\n")
    assert rc == OK
    assert out == "line 1: PASS\n"


def test_check_precondition_errors_are_reported(run_cli):
    rc, out, _ = run_cli(["check", "product-odd"], "++;++;+-;+-\n")
    assert rc == VERIFY_FAILED
    assert out.startswith("line 1: ERROR (")


def test_check_unguarded_filter_runs_on_non_williamson_input(run_cli):
    rc, out, _ = run_cli(["check", "mod4-filter"], "+-;+-;+-;+-\n")
    assert rc == OK
    assert out == "line 1: PASS\n"


def test_check_unknown_name_is_usage_error(run_cli):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-check"])
    assert exc.value.code == USAGE_ERROR


# ---------------------------------------------------------------------------
# file I/O and round trips


def test_search_to_file_then_verify_from_file(run_cli, tmp_path):
    results = tmp_path / "results.txt"
    rc, _, _ = run_cli(["search", "--n", "2", "--out", str(results)])
    assert rc == OK
    quads = tmp_path / "quads.txt"
    quads.write_text(
        "".join(
            line + "\n"
            for line in results.read_text().splitlines()
            if not line.startswith("#")
        )
    )
    report = tmp_path / "report.txt"
    rc, out, _ = run_cli(["verify", "--in", str(quads), "--out", str(report)])
    assert rc == OK
    assert out == ""
    lines = report.read_text().splitlines()
    assert len(lines) == 96
    assert all("williamson=PASS" in line and "FAIL" not in line for line in lines)


def test_search_round_trip_via_stdin(run_cli):
    rc, out, _ = run_cli(["search", "--n", "3"])
    assert rc == OK
    quads = "".join(
        line + "\n" for line in out.splitlines() if not line.startswith("#")
    )
    rc, out, _ = run_cli(["verify"], quads)
    assert rc == OK
    assert all("PASS" in line for line in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--in", "{missing}"],
        ["compress", "--in", "{missing}"],
        ["hadamard", "--in", "{missing}"],
        ["check", "williamson", "--in", "{missing}"],
        ["search", "--n", "2", "--out", "{missing}/results.txt"],
        ["verify", "--out", "{missing}/report.txt"],
        ["verify", "--in", "{not_utf8}"],
    ],
)
def test_unreadable_input_or_unwritable_output_is_usage_error(run_cli, tmp_path, argv):
    missing = str(tmp_path / "missing")
    not_utf8 = tmp_path / "not_utf8"
    not_utf8.write_bytes(b"\xff\xfe++;++;+-;+-\n")
    argv = [arg.format(missing=missing, not_utf8=not_utf8) for arg in argv]
    rc, out, err = run_cli(argv, "+;+;+;+\n")
    assert rc == USAGE_ERROR
    assert out == ""
    assert err.startswith(f"wkit {argv[0]}: cannot ")
    assert str(tmp_path) in err
    assert err.count("\n") == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == USAGE_ERROR


# ---------------------------------------------------------------------------
# real process exit codes


def test_exit_codes_end_to_end():
    # The child imports the same wkit as this process, installed or not.
    src = str(Path(wkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "wkit.cli", "verify"],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=env,
        ).returncode

    assert run("+;+;+;+\n") == OK
    assert run("+++;+++;+++;+++\n") == VERIFY_FAILED
    assert run("++x;++;+-;+-\n") == USAGE_ERROR
