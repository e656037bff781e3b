"""tools/bench_verify.py: fresh verify lines, timed in a fresh process."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_bench():
    path = REPO / "tools" / "bench_verify.py"
    spec = importlib.util.spec_from_file_location("bench_verify", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_lines_are_symmetric_and_never_repeat_a_sequence(tmp_path):
    bench = load_bench()
    path = tmp_path / "lines.txt"
    for n, want in ((4, 2), (5, 2), (16, 128), (17, 128), (33, bench.LINES)):
        assert bench.write_lines(path, n) == want
        seqs = [s for line in path.read_text().splitlines() for s in line.split(";")]
        assert len(seqs) == 4 * want == len(set(seqs))
        assert all(len(s) == n and s[1:] == s[:0:-1] for s in seqs)


def test_run_once_times_one_verify_call(tmp_path):
    bench = load_bench()
    path, out = tmp_path / "lines.txt", tmp_path / "verdicts.txt"
    path.write_text("+;+;+;+\n++;++;+-;+-\n+++;+++;+++;+++\n")
    seconds, peak_rss_mb, digest = bench.run_once(REPO, path, out)
    assert out.read_text() == (
        "line 1: williamson=PASS product=PASS hall=PASS\n"
        "line 2: williamson=PASS product=PASS mod4=PASS hall=PASS\n"
        "line 3: williamson=FAIL product=SKIP hall=SKIP\n"
    )
    assert len(digest) == 64
    assert seconds > 0
    assert peak_rss_mb > 1


def test_williamson_lines_come_from_the_search_and_all_pass(tmp_path):
    bench = load_bench()
    path, out = tmp_path / "lines.txt", tmp_path / "verdicts.txt"
    assert bench.write_williamson_lines(path) == 1620
    lines = path.read_text().splitlines()
    assert len(lines) == len(set(lines)) == 1620
    assert all(len(s) == bench.WILLIAMSON_ORDER for line in lines for s in line.split(";"))
    bench.run_once(REPO, path, out, rcs=("0",))
    verdicts = out.read_text().splitlines()
    assert verdicts == [
        f"line {k}: williamson=PASS product=PASS mod4=PASS hall=PASS" for k in range(1, 1621)
    ]
