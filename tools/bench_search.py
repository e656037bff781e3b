"""Search trajectory: wall time and peak RSS of `wkit search` per order.

Usage (from the repository root):

    python3 tools/bench_search.py --label NAME [--root CHECKOUT]

Each run is one fresh interpreter, `python -m wkit.cli search --n N --out
FILE`, with CHECKOUT/src on PYTHONPATH (default: this checkout) and
WKIT_MAX_N=N, so that orders above the default cap run too.  Each order
in ORDERS runs REPEAT times.  Wall seconds are measured around the whole
process, start-up included, and peak RSS is the child's own ru_maxrss,
read by `run_child`, which tools/bench_verify.py shares.
Per order the entry keeps every run's wall time, their median and the
largest peak RSS, plus the `# raw_count` line of the output as a
correctness anchor.  The entry is appended to BENCH_search.json at the
repository root, so each change adds its own row set next to its
parent's.  It names the checkout's HEAD commit and a sha256 over the
measured src/wkit/*.py, so an entry taken before its change is committed
still identifies the code it measured.
"""

from __future__ import annotations

import argparse
import hashlib
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
ORDERS = (10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)
REPEAT = 5


def run_child(argv: list[str], root: Path, **env: str) -> tuple[str, int, float]:
    """Run argv to its end with root/src on PYTHONPATH and env added to
    the environment; return its stdout, exit status and own peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **env}
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    printed = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give the
    # largest peak of every child so far.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return printed, proc.returncode, usage.ru_maxrss / 1024


def run_once(root: Path, n: int, out: Path) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and raw count of one search process."""
    argv = [sys.executable, "-m", "wkit.cli", "search", "--n", str(n), "--out", str(out)]
    start = time.perf_counter()
    _, status, peak_rss_mb = run_child(argv, root, WKIT_MAX_N=str(n))
    wall = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {status}")
    raw = next(line for line in out.read_text().splitlines() if line.startswith("# raw_count "))
    return wall, peak_rss_mb, int(raw.split()[-1])


def git_commit(root: Path) -> str | None:
    """Short HEAD commit of the checkout; uncommitted edits show in src_sha256."""
    done = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def src_sha256(root: Path) -> str:
    """sha256 over the checkout's src/wkit/*.py: each file's name, size and
    bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "wkit").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def append_entry(bench_file: Path, label: str, root: Path, rows: list[dict]) -> None:
    """Append one labelled row set, with what identifies the measured code
    and machine, to the JSON list in bench_file."""
    entry = {
        "label": label,
        "commit": git_commit(root),
        "src_sha256": src_sha256(root),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "rows": rows,
    }
    entries = json.loads(bench_file.read_text()) if bench_file.exists() else []
    entries.append(entry)
    bench_file.write_text(json.dumps(entries, indent=1) + "\n")


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
    append_entry(BENCH_FILE, args.label, root, measure(root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
