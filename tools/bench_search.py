"""Search trajectory: wall time and peak RSS of `wkit search` per order.

Usage (from the repository root):

    python3 tools/bench_search.py --label NAME [--root CHECKOUT]

Each run is one fresh interpreter, `python -m wkit.cli search --n N --out
FILE`, with CHECKOUT/src on PYTHONPATH (default: this checkout) and
WKIT_MAX_N=N, so that orders above the default cap run too.  Each order
in ORDERS runs REPEAT times.  Wall seconds are measured around the whole
process, start-up included, and peak RSS is the child's own ru_maxrss.
Per order the entry keeps every run's wall time, their median and the
largest peak RSS, plus the `# raw_count` line of the output as a
correctness anchor.  The entry is appended to BENCH_search.json at the
repository root, so each change adds its own row set next to its
parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_FILE = REPO / "BENCH_search.json"
ORDERS = (10, 12, 14, 16, 18)
REPEAT = 5


def run_once(root: Path, n: int, out: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and raw count of one search process."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "WKIT_MAX_N": str(n)}
    argv = [sys.executable, "-m", "wkit.cli", "search", "--n", str(n), "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give the
    # largest peak of every child so far.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {proc.returncode}")
    raw = next(line for line in out.read_text().splitlines() if line.startswith("# raw_count "))
    return wall, usage.ru_maxrss / 1024, int(raw.split()[-1])


def git_commit(root: Path) -> str | None:
    """Short commit of the checkout, with '-dirty' for uncommitted edits."""
    done = subprocess.run(
        ["git", "-C", str(root), "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def measure(root: Path) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "results.txt"
        for n in ORDERS:
            runs = [run_once(root, n, out) for _ in range(REPEAT)]
            walls = [round(wall, 4) for wall, _, _ in runs]
            row = {
                "n": n,
                "wall_s": round(statistics.median(walls), 4),
                "wall_s_runs": walls,
                "peak_rss_mb": round(max(rss for _, rss, _ in runs), 1),
                "raw_count": runs[0][2],
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
    entry = {
        "label": args.label,
        "commit": git_commit(root),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": measure(root),
    }
    entries = json.loads(BENCH_FILE.read_text()) if BENCH_FILE.exists() else []
    entries.append(entry)
    BENCH_FILE.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
