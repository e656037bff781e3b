"""tools/bench_search.py: one timed search process per run."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_run_once_times_a_fresh_search_process(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_search", REPO / "tools" / "bench_search.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    wall, peak_rss_mb, raw = bench.run_once(REPO, 2, tmp_path / "results.txt")
    assert raw == 96
    assert wall > 0
    assert peak_rss_mb > 1
