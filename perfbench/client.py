"""Closed-loop client: one fresh interpreter per workload run.

Usage: python3 perfbench/client.py PLAN RESULT LOG   (with PYTHONPATH=src)

Runs ops one after another through `wkit.cli.main` until the plan's
seconds are used up, timing each call and nothing else.  After each call,
outside the timed region, it appends the exit code and output to LOG for
the harness to check.  At exit it writes timings and peak RSS to RESULT,
and when tracing also the spans and the seqcore cache counters.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
from pathlib import Path

import wkit.cli
import wkit.seqcore

import calibration
import tracing
import workloads


CACHES = ("_paf_vector", "_circulant_square")


def _cache_info(name: str) -> list[int]:
    fn = getattr(wkit.seqcore, name, None)
    if not hasattr(fn, "cache_info"):
        raise LookupError(f"trace: wkit.seqcore.{name} is gone or no longer an lru_cache; "
                          "update client.CACHES")
    info = fn.cache_info()
    return [info.hits, info.misses, info.currsize]


# Calibration runs between ops, outside the timed region, for this share
# of the op time, so that it samples the same stretch of time as the ops.
CAL_SHARE = 0.1


def _ops(plan: dict, workdir: Path):
    """Yield (kind, argv without --out, items) for each op in order."""
    if plan["workload"] != "screen":
        for op in itertools.cycle(plan["ops"]):
            argv = op["cmd"] + (["--in", op["input"]] if op["input"] else [])
            yield op["kind"], argv, op["items"]
        return
    stream = workloads.ScreenStream(plan["seed"], Path(plan["pool"]).read_text().split())
    path = workdir / "in.txt"
    while True:
        kind, cmd, lines = stream.next_batch()
        path.write_text("".join(line + "\n" for line in lines))
        yield kind, list(cmd) + ["--in", str(path)], len(lines)


def main(plan_path: str, result_path: str, log_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    workdir = Path(plan_path).parent
    tracer = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        caches = {name: _cache_info(name) for name in CACHES}
    out_path = workdir / "out.txt"
    kinds, items, starts, times = [], [], [], []
    cal, op_total, cal_total = [], 0.0, 0.0   # cal: [start, seconds] per chunk
    clock = time.perf_counter
    deadline = clock() + plan["seconds"]
    with open(log_path, "w") as log:
        for i, (kind, argv, count) in enumerate(_ops(plan, workdir)):
            if clock() >= deadline:
                break
            out_path.unlink(missing_ok=True)
            argv = argv + ["--out", str(out_path)]
            if tracer is not None:
                tracer.op = i
            error = None
            t0 = clock()
            try:
                rc = wkit.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crashing op is a failed op, not a crashed run
                rc, error = None, repr(exc)
            t1 = clock()
            kinds.append(kind)
            items.append(count)
            starts.append(t0)
            times.append(t1 - t0)
            out = out_path.read_text() if out_path.exists() else None
            log.write(json.dumps({"rc": rc, "error": error, "out": out}) + "\n")
            op_total += t1 - t0
            while cal_total < CAL_SHARE * op_total:
                c0 = clock()
                calibration.chunk()
                cal.append([c0, clock() - c0])
                cal_total += cal[-1][1]
    result = {
        "kinds": kinds,
        "items": items,
        "starts": starts,
        "times": times,
        "calibration": cal,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["caches"] = {name: [before, _cache_info(name)] for name, before in caches.items()}
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:4])
