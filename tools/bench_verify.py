"""Verify trajectory: per-line wall time of `wkit verify` per order.

Usage (from the repository root):

    python3 tools/bench_verify.py --label NAME [--root CHECKOUT]

For each order in ORDERS a fixed-seed generator writes random symmetric
quadruple lines whose sequences are drawn without replacement, so no
sequence repeats in a file and the PAF cache never hits.  Each file has
LINES lines; order 16 has only 512 symmetric sequences, so its file has
128.  Random lines fail the Williamson test, so they time the failing
path only.  One more file times the passing path, where every theorem
check runs: the canonical lines that this checkout's `wkit search --n
WILLIAMSON_ORDER --canonical` prints (1,620 at order 18), which must all
pass.  Each row names its input, "random" or "williamson".

Each run is one fresh interpreter, with CHECKOUT/src on PYTHONPATH
(default: this checkout), that imports wkit.cli and times one
`wkit.cli.main(["verify", "--in", FILE, "--out", OUT])` call: interpreter
start-up and imports stay out of the number, and every cache starts
empty.  Each file runs REPEAT times.  Per file the entry keeps every
run's milliseconds per line, their median, the largest peak RSS (the
child's own ru_maxrss), the line count and a sha256 of the verify output
as a correctness anchor: equal output gives an equal digest.  The entry
is appended to BENCH_verify.json at the repository root, in the format
of tools/bench_search.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_search import REPO, append_entry, run_child  # noqa: E402

BENCH_FILE = REPO / "BENCH_verify.json"
ORDERS = (16, 32, 48, 64)
WILLIAMSON_ORDER = 18
LINES = 1000
REPEAT = 5
# Run in the child: time one verify call and print seconds and exit status.
CHILD = (
    "import sys, time, wkit.cli; t0 = time.perf_counter(); "
    "rc = wkit.cli.main(['verify', '--in', sys.argv[1], '--out', sys.argv[2]]); "
    "print(time.perf_counter() - t0, rc)"
)


def write_lines(path: Path, n: int) -> int:
    """Write the random order-n input file; return its number of lines."""
    rng = random.Random(f"verify:{n}")
    free = n // 2 + 1
    count = min(4 * LINES, 1 << free) // 4
    texts = []
    for x in rng.sample(range(1 << free), 4 * count):
        head = "".join("-" if x >> i & 1 else "+" for i in range(free))
        texts.append(head + head[1 : n - free + 1][::-1])
    path.write_text("".join(";".join(texts[i : i + 4]) + "\n" for i in range(0, len(texts), 4)))
    return count


def write_williamson_lines(path: Path) -> int:
    """Write the canonical Williamson lines of order WILLIAMSON_ORDER, as
    this checkout's `wkit search --canonical` prints them, in its order;
    return their number."""
    argv = [sys.executable, "-m", "wkit.cli", "search", "--n", str(WILLIAMSON_ORDER), "--canonical"]
    printed, status, _ = run_child(argv, REPO)
    if status != 0:
        raise RuntimeError(f"search at order {WILLIAMSON_ORDER} exited with {status}")
    lines = [line for line in printed.splitlines() if not line.startswith("#")]
    path.write_text("".join(line + "\n" for line in lines))
    return len(lines)


def run_once(root: Path, path: Path, out: Path, rcs=("0", "1")) -> tuple[float, float, str]:
    """Seconds of one verify call in a fresh process, its peak RSS in MB
    and the sha256 of its output.  The call must exit with one of `rcs`:
    random lines fail the Williamson test, so verify exits 1 on them (0
    if all pass)."""
    printed, status, peak_rss_mb = run_child([sys.executable, "-c", CHILD, str(path), str(out)], root)
    seconds, rc = printed.split()
    if status != 0 or rc not in rcs:
        raise RuntimeError(f"verify of {path} exited with {rc} (process {status})")
    return float(seconds), peak_rss_mb, hashlib.sha256(out.read_bytes()).hexdigest()


def measure(root: Path) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "lines.txt", Path(tmp) / "verdicts.txt"
        inputs = [(n, "random", ("0", "1")) for n in ORDERS]
        # The Williamson lines must all pass: verify exits 0.
        inputs.append((WILLIAMSON_ORDER, "williamson", ("0",)))
        for n, kind, rcs in inputs:
            lines = write_lines(path, n) if kind == "random" else write_williamson_lines(path)
            runs = [run_once(root, path, out, rcs) for _ in range(REPEAT)]
            per_line = [round(1000 * seconds / lines, 4) for seconds, _, _ in runs]
            if len({digest for _, _, digest in runs}) != 1:
                raise RuntimeError(f"verify output of {kind} lines at order {n} differs between runs")
            row = {
                "n": n,
                "input": kind,
                "lines": lines,
                "ms_per_line": round(statistics.median(per_line), 4),
                "ms_per_line_runs": per_line,
                "peak_rss_mb": round(max(rss for _, rss, _ in runs), 1),
                "output_sha256": runs[0][2],
            }
            print(json.dumps(row), flush=True)
            rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this row set, e.g. a commit role")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout whose src/ is measured")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    append_entry(BENCH_FILE, args.label, root, measure(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
