"""Command-line interface.

Subcommands: verify, search, compress, hadamard, check.  Line-oriented
I/O throughout; input comes from --in or stdin (search reads none),
output goes to --out or stdout.  Exit status: 0 success, 1
verification/check failure, 2 usage or parse error.

verify, compress and check share one input loop, `_each_line`, and one
error policy.  Blank lines are skipped and the rest keep their 1-based
input line numbers.  Each line is parsed by itself; the parsed lines are
judged CHUNK at a time.  check and compress judge them one by one;
verify makes one pass per order over a chunk, with integer array
kernels on the stacked quadruples of that order.  A ParseError prints
`line N, column C: ...` to stderr and exits 2 before any output is
written.  Any other ValueError (an over-long or asymmetric sequence, a
failed precondition) fails only its own line: verify and check write it
as that line's result, compress prints it to stderr.  Results are
written once, after the last line.  hadamard reads through the same
non-blank-line reader and takes exactly one line.

`main` builds the argument parser on its first call and reuses it.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

from .groupring import (
    even_coefficient_parity_check,
    hall_identity_check,
    hall_rows,
    mod2_square_check,
)
from .hadamard import is_hadamard, matrix_to_text, williamson_array
from .search import format_results, search
from .seqcore import (
    ParseError,
    is_symmetric,
    is_williamson,
    matrix_williamson_check,
    parse_quadruple,
    parse_sequence,
    stack_quadruples,
    williamson_rows,
)
from .theorems import (
    compress2,
    corollary_mod4_check,
    mod4_filter,
    mod4_rows,
    product_rows,
    product_theorem_even_check,
    product_theorem_odd_check,
    theorem_filter,
)

OK, VERIFY_FAILED, USAGE_ERROR = 0, 1, 2
# Lines judged together.  It bounds the kernels' gathers whatever the
# input size: at most 4 * CHUNK * n * n int64 entries (the Hall squares).
CHUNK = 256


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
    # Only "\n" ends a line: reading in text mode has already turned "\r\n"
    # into it, and str.splitlines would also break at form feeds, U+2028
    # and other characters that sit inside a line.
    return [(k, line) for k, line in enumerate(data.split("\n"), 1) if line.strip()]


def _write_text(path: str | None, text: str) -> None:
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)
    except OSError as exc:
        target = "stdout" if path is None else path
        raise CliError(f"cannot write {target}: {exc.strerror or exc}") from exc


def _each_line(args: argparse.Namespace, parse, verdicts, error_label: str | None = None) -> int:
    """Write the verdicts on the non-blank input lines.

    Lines are parsed one at a time and judged CHUNK at a time: `verdicts`
    maps a list of parsed values to a list with one (text, passed) pair,
    or one ValueError, per value.  With an `error_label`, results are
    written as `line N: text` and a ValueError other than a ParseError,
    from `parse` or from `verdicts`, becomes the result `line N:
    <error_label> (<message>)`; without one, results are written bare and
    such an error goes to stderr as `line N: <message>`.  A ParseError
    stops the run with exit status 2, after the errors of the lines
    before it.
    """
    out_chunks = []
    status = OK
    lines = iter(_read_lines(args.input))
    while chunk := list(islice(lines, CHUNK)):
        values, stop = [], None
        for lineno, raw in chunk:
            try:
                values.append(parse(raw))
            except ParseError as exc:
                stop = f"line {lineno}, {exc}"
                break
            except ValueError as exc:
                values.append(exc)
        judged = iter(verdicts([v for v in values if not isinstance(v, ValueError)]))
        out_lines = []
        for (lineno, _), value in zip(chunk, values):
            result = value if isinstance(value, ValueError) else next(judged)
            if isinstance(result, ValueError):
                if error_label is None:
                    print(f"line {lineno}: {result}", file=sys.stderr)
                    status = VERIFY_FAILED
                    continue
                result = f"{error_label} ({result})", False
            text, passed = result
            if not passed:
                status = VERIFY_FAILED
            out_lines.append(text if error_label is None else f"line {lineno}: {text}")
        if stop is not None:
            print(stop, file=sys.stderr)
            return USAGE_ERROR
        out_chunks.append("".join(line + "\n" for line in out_lines))
    _write_text(args.output, "".join(out_chunks))
    return status


def _one_by_one(verdict):
    """`verdicts` for `_each_line` from a verdict on one value."""

    def verdicts(values):
        results = []
        for value in values:
            try:
                results.append(verdict(value))
            except ValueError as exc:
                results.append(exc)
        return results

    return verdicts


def _verify_verdicts(quads: list) -> list[tuple[str, bool]]:
    """verify's `verdicts`: one pass per order over a chunk of quadruples.

    The quadruples of one order are stacked into one (k, 4, n) array and
    tested by the Williamson kernel; the product, mod4 (even n) and Hall
    kernels run only on the rows that pass it, so their preconditions
    hold.  The kernels are read from this module when the command runs,
    so a rebound name (a tracing wrapper, say) is the one called.
    """
    results = [None] * len(quads)
    by_order = {}
    for k, q in enumerate(quads):
        by_order.setdefault(q.n, []).append(k)
    for n, ks in by_order.items():
        rows = stack_quadruples([quads[k] for k in ks])
        williamson = williamson_rows(rows)
        names = ["product", "mod4", "hall"] if n % 2 == 0 else ["product", "hall"]
        failed = " ".join(["williamson=FAIL"] + [f"{name}=SKIP" for name in names]), False
        ks = np.array(ks)
        for k in ks[~williamson].tolist():
            results[k] = failed
        if not williamson.any():
            continue
        passed = rows[williamson]
        checks = [product_rows(passed)] + [mod4_rows(passed)] * (n % 2 == 0) + [hall_rows(passed)]
        texts = {}  # one result per pattern of check verdicts
        for k, oks in zip(ks[williamson].tolist(), map(tuple, np.column_stack(checks).tolist())):
            if oks not in texts:
                parts = [f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in zip(names, oks)]
                texts[oks] = " ".join(["williamson=PASS"] + parts), all(oks)
            results[k] = texts[oks]
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    # Lines are parsed one at a time and checked in one pass per order
    # over each chunk; the results are still written once, after the last line.
    return _each_line(args, parse_quadruple, _verify_verdicts, "williamson=FAIL")


def cmd_search(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    try:
        quads, report = search(args.n, args.canonical)
    except ValueError as exc:
        raise CliError(exc) from exc
    _write_text(args.output, format_results(quads, report))
    return OK


def cmd_compress(args: argparse.Namespace) -> int:
    return _each_line(args, parse_sequence, _one_by_one(lambda s: (str(compress2(s)), True)))


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
    return _each_line(args, parse, _one_by_one(verdict), "ERROR")


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


# Built on first use and then reused: argparse keeps no state between
# parse_args calls, and rebuilding the tree costs about a millisecond.
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"wkit {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
