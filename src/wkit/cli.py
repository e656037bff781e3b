"""Command-line interface.

Subcommands: verify, search, compress, hadamard, check.  Line-oriented
I/O throughout; input comes from --in or stdin (search reads none),
output goes to --out or stdout.  Exit status: 0 success, 1
verification/check failure, 2 usage or parse error.

verify, compress and check share one input loop, `_each_line`, and one
error policy.  Blank lines are skipped and the rest keep their 1-based
input line numbers.  A ParseError prints `line N, column C: ...` to
stderr and exits 2 before any output is written.  Any other ValueError
(an over-long or asymmetric sequence, a failed precondition) fails only
its own line: verify and check write it as that line's result, compress
prints it to stderr.  Results are written once, after the last line.
hadamard reads through the same non-blank-line reader and takes exactly
one line.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .groupring import even_coefficient_parity_check, hall_identity_check, mod2_square_check
from .hadamard import is_hadamard, matrix_to_text, williamson_array
from .search import ORDER_CAP, SearchConfig, format_results, search
from .seqcore import (
    MAX_ORDER,
    ParseError,
    is_symmetric,
    is_williamson,
    matrix_williamson_check,
    parse_quadruple,
    parse_sequence,
)
from .theorems import (
    compress2,
    corollary_mod4_check,
    mod4_filter,
    product_theorem_even_check,
    product_theorem_odd_check,
    theorem_filter,
)

OK, VERIFY_FAILED, USAGE_ERROR = 0, 1, 2


class CliError(Exception):
    """Bad input or environment, reported as one line with exit status 2."""


def _read_lines(path: str | None) -> list[tuple[int, str]]:
    """The non-blank input lines, each with its 1-based line number."""
    try:
        data = sys.stdin.read() if path is None else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if path is None else path
        reason = getattr(exc, "strerror", None) or exc
        raise CliError(f"cannot read {source}: {reason}") from exc
    return [(k, line) for k, line in enumerate(data.splitlines(), 1) if line.strip()]


def _write_text(path: str | None, text: str) -> None:
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)
    except OSError as exc:
        target = "stdout" if path is None else path
        raise CliError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _order_cap() -> int:
    raw = os.environ.get("WKIT_MAX_N")
    if raw is None:
        return ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"invalid WKIT_MAX_N value {raw!r}")
    if not 1 <= cap <= MAX_ORDER:
        raise ValueError(f"WKIT_MAX_N {cap} outside 1..{MAX_ORDER}")
    return cap


def _each_line(args: argparse.Namespace, parse, verdict, error_label: str | None = None) -> int:
    """Write verdict(parse(line)) for each non-blank input line.

    `verdict` returns (text, passed).  With an `error_label`, results are
    written as `line N: text` and a ValueError other than a ParseError
    becomes the result `line N: <error_label> (<message>)`; without one,
    results are written bare and such an error goes to stderr as
    `line N: <message>`.  A ParseError stops the run with exit status 2.
    """
    out_lines = []
    status = OK
    for lineno, raw in _read_lines(args.input):
        try:
            text, passed = verdict(parse(raw))
        except ParseError as exc:
            print(f"line {lineno}, {exc}", file=sys.stderr)
            return USAGE_ERROR
        except ValueError as exc:
            if error_label is None:
                print(f"line {lineno}: {exc}", file=sys.stderr)
                status = VERIFY_FAILED
                continue
            text, passed = f"{error_label} ({exc})", False
        if not passed:
            status = VERIFY_FAILED
        out_lines.append(text if error_label is None else f"line {lineno}: {text}")
    _write_text(args.output, "".join(line + "\n" for line in out_lines))
    return status


def cmd_verify(args: argparse.Namespace) -> int:
    # The (name, check) battery for even and for odd orders.  The checks
    # are read from this module when the command runs, so a rebound name
    # (a tracing wrapper, say) is the one called.
    hall = ("hall", hall_identity_check)
    batteries = (
        [("product", product_theorem_even_check), ("mod4", corollary_mod4_check), hall],
        [("product", product_theorem_odd_check), hall],
    )
    skipped = [" ".join(["williamson=FAIL"] + [f"{name}=SKIP" for name, _ in b]) for b in batteries]

    def verdict(q):
        parity = q.n % 2
        if not is_williamson(q):
            return skipped[parity], False
        parts = ["williamson=PASS"]
        passed = True
        for name, check in batteries[parity]:
            ok = check(q)
            parts.append(f"{name}={'PASS' if ok else 'FAIL'}")
            passed = passed and ok
        return " ".join(parts), passed

    return _each_line(args, parse_quadruple, verdict, "williamson=FAIL")


def cmd_search(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    try:
        quads, report = search(SearchConfig(args.n, args.canonical), order_cap=_order_cap())
    except ValueError as exc:
        print(f"wkit search: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _write_text(args.output, format_results(quads, report))
    return OK


def cmd_compress(args: argparse.Namespace) -> int:
    return _each_line(args, parse_sequence, lambda s: (str(compress2(s)), True))


def cmd_hadamard(args: argparse.Namespace) -> int:
    lines = _read_lines(args.input)
    if len(lines) != 1:
        raise CliError(f"expected one quadruple line, got {len(lines)}")
    ((lineno, line),) = lines
    try:
        q = parse_quadruple(line)
    except ParseError as exc:
        print(f"line {lineno}, {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"wkit hadamard: refusing input: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    if not is_williamson(q):
        print(
            "wkit hadamard: refusing input: quadruple is not Williamson "
            "(PAF sums are nonzero at some shift)",
            file=sys.stderr,
        )
        return VERIFY_FAILED
    matrix = williamson_array(q)
    if not is_hadamard(matrix):
        print("wkit hadamard: constructed matrix failed the Hadamard check", file=sys.stderr)
        return VERIFY_FAILED
    _write_text(args.output, matrix_to_text(matrix) + "\n")
    return OK


# name -> (takes a quadruple?, predicate)
_CHECKS = {
    "symmetric": (False, is_symmetric),
    "mod2-square": (False, mod2_square_check),
    "williamson": (True, is_williamson),
    "matrix-williamson": (True, matrix_williamson_check),
    "product-odd": (True, product_theorem_odd_check),
    "product-even": (True, product_theorem_even_check),
    "mod4": (True, corollary_mod4_check),
    "hall": (True, hall_identity_check),
    "parity": (True, even_coefficient_parity_check),
    "product-filter": (True, theorem_filter),
    "mod4-filter": (True, mod4_filter),
}


def cmd_check(args: argparse.Namespace) -> int:
    wants_quadruple, predicate = _CHECKS[args.what]

    def verdict(value):
        passed = predicate(value)
        return ("PASS" if passed else "FAIL"), passed

    parse = parse_quadruple if wants_quadruple else parse_sequence
    return _each_line(args, parse, verdict, "ERROR")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", dest="output", metavar="PATH", help="output file (default: stdout)")


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="input", metavar="PATH", help="input file (default: stdin)")
    _add_out(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkit",
        description="Verify, search for, and transform Williamson sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full check battery on quadruple lines")
    _add_io(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustively enumerate quadruples of order n")
    p.add_argument("--n", type=int, required=True, help="order to search")
    p.add_argument("--canonical", action="store_true", help="emit canonical representatives only")
    # --workers is accepted so that existing command lines keep working.
    p.add_argument(
        "--workers", type=int, default=1, help="selects nothing (at least 1): one process searches"
    )
    _add_out(p)  # the search reads no input
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("compress", help="2-compress sequence lines")
    _add_io(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("hadamard", help="build the order-4n Hadamard matrix from a quadruple")
    _add_io(p)
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("check", help="run one named predicate per input line")
    p.add_argument("what", choices=sorted(_CHECKS))
    _add_io(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"wkit {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
