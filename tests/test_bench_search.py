"""tools/bench_search.py: one timed search process per run, and entries
that name the code they measured."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_search", REPO / "tools" / "bench_search.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_run_once_times_a_fresh_search_process(tmp_path):
    bench = load_bench()
    wall, peak_rss_mb, raw = bench.run_once(REPO, 2, tmp_path / "results.txt")
    assert raw == 96
    assert wall > 0
    assert peak_rss_mb > 1


def test_run_child_reports_stdout_exit_status_and_peak_rss():
    bench = load_bench()
    code = "import os, sys; print(os.environ['PYTHONPATH'], os.environ['EXTRA']); sys.exit(3)"
    printed, status, peak_rss_mb = bench.run_child([sys.executable, "-c", code], REPO, EXTRA="x")
    assert printed == f"{REPO / 'src'} x\n"
    assert status == 3
    assert peak_rss_mb > 1


def test_entry_names_head_commit_and_measured_source(tmp_path):
    # An edit after the last commit leaves `commit` at HEAD, without a
    # '-dirty' suffix, and changes `src_sha256`; restoring the file
    # restores the digest.
    bench = load_bench()
    src = tmp_path / "src" / "wkit"
    src.mkdir(parents=True)
    (src / "a.py").write_text("A = 1\n")
    (src / "b.py").write_text("B = 2\n")

    def git(*args):
        done = subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *args],
            capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()

    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "first")
    head = git("rev-parse", "--short", "HEAD")
    clean = bench.src_sha256(tmp_path)
    (src / "b.py").write_text("B = 3\n")
    bench_file = tmp_path / "BENCH.json"
    bench.append_entry(bench_file, "edited", tmp_path, [{"n": 1}])
    bench.append_entry(bench_file, "again", tmp_path, [])
    first, second = json.loads(bench_file.read_text())
    assert first["commit"] == second["commit"] == head
    assert first["src_sha256"] == second["src_sha256"] != clean
    assert first["rows"] == [{"n": 1}] and second["label"] == "again"
    (src / "b.py").write_text("B = 2\n")
    assert bench.src_sha256(tmp_path) == clean
    # A name change alone changes the digest too.
    (src / "b.py").rename(src / "c.py")
    assert bench.src_sha256(tmp_path) != clean
