"""Command-line interface.

Subcommands: verify, search, compress, hadamard, check.  Line-oriented
I/O throughout; input comes from --in or stdin, output goes to --out or
stdout.  Exit status: 0 success, 1 verification/check failure, 2 usage or
parse error.
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
    PreconditionError,
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


def _read_lines(path: str | None) -> list[str]:
    try:
        data = sys.stdin.read() if path is None else Path(path).read_text()
    except OSError as exc:
        source = "stdin" if path is None else path
        raise CliError(f"cannot read {source}: {exc.strerror or exc}") from exc
    return data.splitlines()


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


def cmd_verify(args: argparse.Namespace) -> int:
    out_lines = []
    status = OK
    for lineno, raw in enumerate(_read_lines(args.input), 1):
        if not raw.strip():
            continue
        try:
            q = parse_quadruple(raw)
        except ParseError as exc:
            print(f"line {lineno}, {exc}", file=sys.stderr)
            return USAGE_ERROR
        except ValueError as exc:
            out_lines.append(f"line {lineno}: williamson=FAIL ({exc})")
            status = VERIFY_FAILED
            continue
        even = q.n % 2 == 0
        if is_williamson(q):
            prod = product_theorem_even_check(q) if even else product_theorem_odd_check(q)
            parts = ["williamson=PASS", f"product={'PASS' if prod else 'FAIL'}"]
            ok = prod
            if even:
                mod4 = corollary_mod4_check(q)
                parts.append(f"mod4={'PASS' if mod4 else 'FAIL'}")
                ok = ok and mod4
            hall = hall_identity_check(q)
            parts.append(f"hall={'PASS' if hall else 'FAIL'}")
            ok = ok and hall
        else:
            parts = ["williamson=FAIL", "product=SKIP"]
            if even:
                parts.append("mod4=SKIP")
            parts.append("hall=SKIP")
            ok = False
        if not ok:
            status = VERIFY_FAILED
        out_lines.append(f"line {lineno}: " + " ".join(parts))
    _write_text(args.output, "".join(line + "\n" for line in out_lines))
    return status


def cmd_search(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    cfg = SearchConfig(
        n=args.n,
        use_product_filter=not args.no_product_filter,
        use_rowsum_prefilter=not args.no_rowsum_filter,
        canonical_only=args.canonical,
    )
    try:
        quads, report = search(cfg, order_cap=_order_cap())
    except ValueError as exc:
        print(f"wkit search: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _write_text(args.output, format_results(quads, report))
    return OK


def cmd_compress(args: argparse.Namespace) -> int:
    out_lines = []
    status = OK
    for lineno, raw in enumerate(_read_lines(args.input), 1):
        if not raw.strip():
            continue
        try:
            out_lines.append(str(compress2(parse_sequence(raw))))
        except ParseError as exc:
            print(f"line {lineno}, {exc}", file=sys.stderr)
            return USAGE_ERROR
        except ValueError as exc:  # an over-long line or a PreconditionError
            print(f"line {lineno}: {exc}", file=sys.stderr)
            status = VERIFY_FAILED
    _write_text(args.output, "".join(line + "\n" for line in out_lines))
    return status


def cmd_hadamard(args: argparse.Namespace) -> int:
    lines = [line for line in _read_lines(args.input) if line.strip()]
    if len(lines) != 1:
        raise CliError(f"expected one quadruple line, got {len(lines)}")
    try:
        q = parse_quadruple(lines[0])
    except ParseError as exc:
        print(f"line 1, {exc}", file=sys.stderr)
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
    out_lines = []
    status = OK
    for lineno, raw in enumerate(_read_lines(args.input), 1):
        if not raw.strip():
            continue
        try:
            value = parse_quadruple(raw) if wants_quadruple else parse_sequence(raw)
        except ParseError as exc:
            print(f"line {lineno}, {exc}", file=sys.stderr)
            return USAGE_ERROR
        except ValueError as exc:
            out_lines.append(f"line {lineno}: ERROR ({exc})")
            status = VERIFY_FAILED
            continue
        try:
            passed = predicate(value)
        except PreconditionError as exc:
            out_lines.append(f"line {lineno}: ERROR ({exc})")
            status = VERIFY_FAILED
            continue
        out_lines.append(f"line {lineno}: {'PASS' if passed else 'FAIL'}")
        if not passed:
            status = VERIFY_FAILED
    _write_text(args.output, "".join(line + "\n" for line in out_lines))
    return status


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="input", metavar="PATH", help="input file (default: stdin)")
    parser.add_argument("--out", dest="output", metavar="PATH", help="output file (default: stdout)")


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
    p.add_argument("--no-product-filter", action="store_true")
    # --no-mod4-filter and --workers are accepted so that existing command
    # lines keep working.
    p.add_argument(
        "--no-mod4-filter", action="store_true", help="selects nothing: mod4 is the product filter"
    )
    p.add_argument("--no-rowsum-filter", action="store_true")
    p.add_argument(
        "--workers", type=int, default=1, help="selects nothing (at least 1): one process searches"
    )
    _add_io(p)
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
