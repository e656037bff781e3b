"""wkit benchmark: one workload run, checked against the benchmark's own oracle.

Usage, from the repository root:

    python3 perfbench/run.py --workload {search,certify,screen} --seed N \
        --seconds S --trace {0,1}

With --trace 0 a fresh client interpreter runs the workload's ops through
`wkit.cli.main` for S seconds with tracing off.  With --trace 1 it runs
S/2 seconds untraced and then S/2 seconds traced, in two fresh
interpreters, and reports per-layer metrics plus the tracing overhead.
Every op's exit code and output are checked against the oracle after
the run.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("search", "certify", "screen")
# Set-up is sampled twice, before and after the untraced client, so that
# its median spans the run rather than one moment of a drifting machine.
SETUP_REPEATS = 11      # per half, after one warm-up sample
SETUP_CAL_CHUNKS = 20   # calibration chunks between setup samples
# The child times its own import and parser build, so interpreter start-up
# and the subprocess round trip stay out of the sample.
SETUP_CODE = ("import time; t0 = time.perf_counter(); import wkit.cli; "
              "wkit.cli.build_parser(); print(time.perf_counter() - t0)")
CLIENT_GRACE_S = 45
# The machine's speed drifts within a run, so each op is scaled by the
# calibration chunks run within this many seconds before or after it.
CAL_WINDOW_S = 1.0

# The two timings of each workload: printed name, unit, and how to turn a
# median seconds-per-item into it.  In the JSON they are op_a_ms / op_b_ms.
TIMINGS = {
    "search": (("search_n10_s", "s", lambda t: t), ("search_n11_s", "s", lambda t: t)),
    "certify": (("verify_lines_per_s", "1/s", lambda t: 1 / t),
                ("hadamard_per_s", "1/s", lambda t: 1 / t)),
    "screen": (("verify_lines_per_s", "1/s", lambda t: 1 / t),
               ("matrix_check_lines_per_s", "1/s", lambda t: 1 / t)),
}

SEARCH_COUNTERS = ("raw_count", "candidates_examined", "pruned_rowsum", "pruned_product",
                   "pruned_mod4")

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_a_ms", "ms"), ("op_b_ms", "ms"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls_per_op"] = "count/op"
        units[f"{name}.errors"] = "count"
    units.update({"cli.self_s": "s", "search.self_s": "s", "search.self_share": "ratio"})
    for n in workloads.SEARCH_ORDERS:
        for field in ("space", "examined", "pruned_rowsum", "pruned_product", "pruned_mod4",
                      "accounting_gap"):
            units[f"search.n{n}.{field}"] = "count"
        units[f"search.n{n}.yield"] = "ratio"
    for cache in ("paf", "circulant"):
        units[f"seqcore.{cache}_cache_hit_ratio"] = "ratio"
        units[f"seqcore.{cache}_cache_size"] = "count"
    units.update({"hadamard.matmul_ops_per_op": "count/op", "hadamard.entries_per_op": "count/op",
                  "trace.ops": "count", "trace.overhead_a": "ratio", "trace.overhead_b": "ratio"})
    return units


def measure_setup(root: Path, env: dict) -> list[tuple[float, float]]:
    """(seconds, machine speed) per sample: the time a fresh interpreter
    takes to import wkit.cli and build its parser, and the speed of the
    calibration chunks run just before and just after it."""
    def chunks() -> list[float]:
        times = []
        for _ in range(SETUP_CAL_CHUNKS):
            c0 = time.perf_counter()
            calibration.chunk()
            times.append(time.perf_counter() - c0)
        return times

    samples, before = [], chunks()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env, check=True,
                              timeout=CLIENT_GRACE_S, capture_output=True, text=True)
        after = chunks()
        if i:  # sample 0 is a warm-up: on a fresh checkout it writes the .pyc files
            samples.append((float(done.stdout), calibration.speed(before + after)))
        before = after
    return samples


def run_client(plan: dict, workdir: Path, root: Path, env: dict) -> tuple[dict, list[dict]]:
    tag = "traced" if plan["trace"] else "plain"
    plan_path, result_path, log_path = (workdir / f"{tag}-{x}" for x in ("plan.json", "result.json",
                                                                          "log.jsonl"))
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(HERE / "client.py"), str(plan_path), str(result_path), str(log_path)]
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=plan["seconds"] + CLIENT_GRACE_S)
    result = json.loads(result_path.read_text())
    with open(log_path) as f:
        log = [json.loads(line) for line in f]
    return result, log


def op_list(workload: str, seed: int, static: list, pool: list[str] | None, count: int):
    """The first `count` ops of a run, as the client ran them."""
    if workload == "screen":
        return workloads.screen_ops(seed, pool, count)
    return [static[i % len(static)] for i in range(count)]


def count_failed(ops, log: list[dict], cache: dict) -> int:
    return sum(
        entry["error"] is not None or not workloads.check_output(op, entry["rc"], entry["out"], cache)
        for op, entry in zip(ops, log)
    )


def item_times(result: dict, kind: str) -> list[float]:
    return [t / n for k, t, n in zip(result["kinds"], result["times"], result["items"]) if k == kind]


def local_speeds(result: dict) -> list[float]:
    """Machine speed around each op: over the calibration chunks that
    started within CAL_WINDOW_S of it, or over the whole run if none did."""
    chunk_starts = [start for start, _ in result["calibration"]]
    chunk_times = [t for _, t in result["calibration"]]
    total = [0.0, *itertools.accumulate(chunk_times)]   # total[i]: first i chunks
    speeds = []
    for start, t in zip(result["starts"], result["times"]):
        lo = bisect.bisect_left(chunk_starts, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(chunk_starts, start + t + CAL_WINDOW_S)
        if lo == hi:
            lo, hi = 0, len(chunk_times)
        speeds.append(calibration.REF_S * (hi - lo) / (total[hi] - total[lo]))
    return speeds


def scaled_median_ms(result: dict, kind: str) -> float:
    """Median per-item op time in ms, each op scaled to the reference
    machine speed by the speed measured around it."""
    samples = [t / n * speed for k, t, n, speed in
               zip(result["kinds"], result["times"], result["items"], local_speeds(result))
               if k == kind]
    return 1000 * statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples above it, and its value."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100 * (len(samples) - 10) // len(samples), ordered[-11]


def describe_timings(workload: str, result: dict) -> list[str]:
    lines = []
    for kind, (name, unit, convert) in zip("ab", TIMINGS[workload]):
        samples = item_times(result, kind)
        if not samples:
            lines.append(f"  {name:26s} no samples")
            continue
        text = f"  {name:26s} median {convert(statistics.median(samples)):.6g} {unit}"
        t = tail(samples)
        text += f", p{t[0]} {convert(t[1]):.6g} {unit}" if t else ", no tail percentile"
        lines.append(text + f" (n={len(samples)})")
    return lines


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def search_counters(out: str) -> dict[str, int]:
    """The `# name value` counters of one search output."""
    counters = dict(line[2:].split(" ", 1) for line in out.splitlines() if line.startswith("# "))
    try:
        return {key: int(counters[key]) for key in SEARCH_COUNTERS}
    except KeyError as exc:
        raise LookupError(f"search output has no # {exc.args[0]} counter") from None


def per_layer(result: dict, ops, log: list[dict], plain: dict) -> dict[str, float]:
    summary = tracing.summarize(result["spans"])
    n_ops = len(result["times"])
    m: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        s = summary[name]
        m[f"{name}_s"] = ratio(s["incl"], s["calls"])
        m[f"{name}_calls_per_op"] = ratio(s["calls"], n_ops)
        m[f"{name}.errors"] = s["errors"]
    cli, search = summary["cli.main"], summary["search.search"]
    m["cli.self_s"] = ratio(cli["self"], cli["calls"])
    m["search.self_s"] = ratio(search["self"], search["calls"])
    m["search.self_share"] = ratio(search["self"], cli["incl"])
    reports = {op.expect[1]: search_counters(entry["out"]) for op, entry in zip(ops, log)
               if isinstance(op.expect, tuple) and op.expect[0] == "search" and entry["out"]}
    for n in workloads.SEARCH_ORDERS:
        r = reports.get(n, dict.fromkeys(SEARCH_COUNTERS, 0))
        space = (1 << (n // 2 + 1)) ** 4 if n in reports else 0  # symmetric sequences, ^4
        pruned = {f: r[f"pruned_{f}"] for f in ("rowsum", "product", "mod4")}
        m[f"search.n{n}.space"] = space
        m[f"search.n{n}.examined"] = r["candidates_examined"]
        m.update({f"search.n{n}.pruned_{f}": v for f, v in pruned.items()})
        m[f"search.n{n}.accounting_gap"] = space - r["candidates_examined"] - sum(pruned.values())
        m[f"search.n{n}.yield"] = ratio(r["raw_count"], r["candidates_examined"])
    for cache, fn in (("paf", "_paf_vector"), ("circulant", "_circulant_square")):
        (h0, m0, _), (h1, m1, size) = result["caches"][fn]
        m[f"seqcore.{cache}_cache_hit_ratio"] = ratio(h1 - h0, (h1 - h0) + (m1 - m0))
        m[f"seqcore.{cache}_cache_size"] = size
    orders = [op.expect[1].shape[-1] for op in ops
              if isinstance(op.expect, tuple) and op.expect[0] == "hadamard"]
    m["hadamard.matmul_ops_per_op"] = ratio(sum((4 * n) ** 3 for n in orders), n_ops)
    m["hadamard.entries_per_op"] = ratio(sum(16 * n * n for n in orders), n_ops)
    m["trace.ops"] = n_ops
    for kind in "ab":
        traced, untraced = scaled_median_ms(result, kind), scaled_median_ms(plain, kind)
        m[f"trace.overhead_{kind}"] = traced / untraced - 1 if traced and untraced else 0.0
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "wkit" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/wkit/cli.py not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    # wkit does no float linear algebra, so numpy's BLAS pool does no work
    # for it; but the pool's threads start at import and spin on a second
    # core, which made set-up time swing by a factor of two on a busy VM.
    env["OPENBLAS_NUM_THREADS"] = "1"
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, root, env, workdir)
    except (subprocess.CalledProcessError, LookupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # fails while another run still uses it


def run(args: argparse.Namespace, root: Path, env: dict, workdir: Path) -> int:
    setup = measure_setup(root, env)
    pool, static = None, []
    plan = {"workload": args.workload, "seed": args.seed, "ops": None, "pool": None}
    if args.workload == "screen":
        pool = workloads.planted_pool()
        plan["pool"] = str(workdir / "pool.txt")
        Path(plan["pool"]).write_text("".join(line + "\n" for line in pool))
    else:
        static = (workloads.search_ops(args.seed) if args.workload == "search"
                  else workloads.certify_ops(args.seed, workdir))
        plan["ops"] = [{"kind": op.kind, "cmd": list(op.cmd), "input": op.input, "items": op.items}
                       for op in static]

    phases = [0, 1] if args.trace else [0]
    seconds = args.seconds / len(phases)
    results, attempted, failed, cache = {}, 0, 0, {}
    for traced in phases:
        result, log = run_client(dict(plan, trace=traced, seconds=seconds), workdir, root, env)
        if not traced:
            setup += measure_setup(root, env)
        ops = op_list(args.workload, args.seed, static, pool, len(log))
        attempted += len(log)
        failed += count_failed(ops, log, cache)
        results[traced] = (result, ops, log)

    plain = results[0][0]
    print(f"wkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(*describe_timings(args.workload, plain), sep="\n")
    print(f"  {'setup_s':26s} median {statistics.median(t for t, _ in setup):.6g} s "
          f"(n={len(setup)}, machine speed {statistics.median(s for _, s in setup):.4g}x)")
    print(f"  {'peak_rss_mb':26s} {plain['peak_rss_kb'] / 1024:.6g} MB")
    chunk_times = [t for _, t in plain["calibration"]]
    print(f"  {'machine_speed':26s} {calibration.speed(chunk_times):.4g}x reference "
          f"during the ops (n={len(chunk_times)})")
    print(f"  {'failed_ops_frac':26s} {ratio(failed, attempted):.6g} ({failed}/{attempted})")

    if args.trace:
        metrics = per_layer(*results[1], plain)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(t * speed for t, speed in setup),
            "peak_rss_mb": plain["peak_rss_kb"] / 1024,
            "op_a_ms": scaled_median_ms(plain, "a"),
            "op_b_ms": scaled_median_ms(plain, "b"),
        }
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
