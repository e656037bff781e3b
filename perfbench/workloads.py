"""Workload generators for the wkit benchmark.

Each workload is a stream of ops.  An op is one in-process call of
`wkit.cli.main` on one generated input file; it has a kind ("a" or "b",
the two timings a workload reports), the items it handles (lines, or one
search), and what the oracle expects back.  Inputs depend only on the
seed: the same seed gives the same stream, a different seed another.

- search:  `search --n 10` and `search --n 11`, alternating; the seed
           only picks which order goes first.
- certify: known Williamson quadruples of orders 2..14, every order
           equally often; verify batches (a) and single-quadruple hadamard
           calls (b).  A few hundred distinct sequences, so the PAF cache hits.
- screen:  fresh random symmetric quadruples of orders 24..64 with about
           1% planted Williamson lines; two verify batches (a) for each
           `check matrix-williamson` batch (b), so that at the seed's speed
           both the 65,536-entry PAF cache and the 16,384-entry circulant
           cache fill within a run.  No sequence repeats in a stream, so
           those caches always miss.

The search and certify ops are a fixed list the client cycles through.
The screen stream is unbounded: the client asks `ScreenStream` for the
next batch, and the harness replays the same calls to check the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

SEARCH_ORDERS = (10, 11)
CERTIFY_ORDERS = range(2, 15)
CERTIFY_VERIFY_LINES_PER_ORDER = 20   # 260-line verify batches
CERTIFY_BLOCKS = 32                   # each: one verify batch, one hadamard call per order
SCREEN_ORDERS = range(24, 65)
SCREEN_BATCH = 128
PLANT_RATE = 0.01
# Odd orders whose doubled Williamson sets give the planted lines (orders
# 26, 30, 34, 38); together about 900 lines with no sequence shared.
PLANT_BASES = (13, 15, 17, 19)


@dataclass(frozen=True)
class Op:
    kind: str            # "a" or "b": which timing the op counts toward
    cmd: tuple           # wkit arguments before --in/--out
    items: int           # lines handled (1 for search and hadamard)
    expect_rc: int
    expect: object       # exact output text, ("search", n) or ("hadamard", quad)
    input: str | None = None   # input file; None for search


def verify_line(lineno: int, n: int, williamson: bool) -> str:
    """The `wkit verify` line the oracle expects.  A Williamson quadruple
    passes every theorem check, since each is a theorem about them."""
    mod4 = n % 2 == 0
    if williamson:
        parts = ["williamson=PASS", "product=PASS"] + ["mod4=PASS"] * mod4 + ["hall=PASS"]
    else:
        parts = ["williamson=FAIL", "product=SKIP"] + ["mod4=SKIP"] * mod4 + ["hall=SKIP"]
    return f"line {lineno}: " + " ".join(parts)


def search_ops(seed: int) -> list[Op]:
    orders = SEARCH_ORDERS if seed % 2 == 0 else SEARCH_ORDERS[::-1]
    return [
        Op(kind="a" if n == SEARCH_ORDERS[0] else "b",
           cmd=("search", "--n", str(n), "--workers", "1"),
           items=1, expect_rc=0, expect=("search", n))
        for n in orders
    ]


def expected_search_lines(n: int) -> tuple[list[str], int, int]:
    """Sorted raw result lines, raw count and canonical count at order n."""
    quads = oracle.williamson_set(n)
    texts = sorted(oracle.quad_text(q) for q in quads)
    canonical = {oracle.canonical_text(q) for q in quads}
    return texts, len(texts), len(canonical)


def certify_ops(seed: int, workdir: Path) -> list[Op]:
    """Verify batches and hadamard calls on known Williamson quadruples.

    Orders are stratified: each verify batch has the same number of lines
    of every order and each block has one hadamard call per order, so the
    mix of op costs, and with it the median, does not depend on the seed.
    """
    rng = np.random.default_rng([seed, 1])
    sets = {n: oracle.williamson_set(n) for n in CERTIFY_ORDERS}

    def draw(per_order: int) -> list[np.ndarray]:
        orders = rng.permutation(np.repeat(list(CERTIFY_ORDERS), per_order))
        return [sets[n][rng.integers(len(sets[n]))] for n in orders]

    ops = []
    for block in range(CERTIFY_BLOCKS):
        quads = draw(CERTIFY_VERIFY_LINES_PER_ORDER)
        path = workdir / f"certify-verify-{block}.txt"
        path.write_text("".join(oracle.quad_text(q) + "\n" for q in quads))
        expect = "".join(verify_line(i, q.shape[-1], True) + "\n" for i, q in enumerate(quads, 1))
        ops.append(Op("a", ("verify",), len(quads), 0, expect, str(path)))
        for k, q in enumerate(draw(1)):
            path = workdir / f"certify-hadamard-{block}-{k}.txt"
            path.write_text(oracle.quad_text(q) + "\n")
            ops.append(Op("b", ("hadamard",), 1, 0, ("hadamard", q), str(path)))
    return ops


def planted_pool() -> list[str]:
    """Williamson lines of orders 26..38 that share no sequence, in a fixed order."""
    lines, used = [], set()
    for n in PLANT_BASES:
        for quad in oracle.double_odd(oracle.williamson_set(n)):
            texts = [oracle.sequence_text(row) for row in quad]
            if len(set(texts)) == 4 and not used.intersection(texts):
                used.update(texts)
                lines.append(";".join(texts))
    return lines


def _permute(x: int, bits: int, key: tuple[int, int, int]) -> int:
    """A seeded bijection on `bits`-bit integers (odd multiply, xorshift, xor)."""
    mask = (1 << bits) - 1
    mul, add, flip = key
    for _ in range(2):
        x = (x * mul + add) & mask
        x ^= x >> ((bits + 1) // 2)
        x ^= flip & mask
    return x


class ScreenStream:
    """Unbounded screen input with no repeated sequence.

    Random sequence k of order n is the free-bit pattern `_permute(k)`, so
    each order yields each of its 2^(n//2+1) symmetric sequences at most
    once; an order is dropped when it runs out.  Random sequences that
    appear in the planted pool are skipped, and each planted line is used
    once.
    """

    def __init__(self, seed: int, pool: list[str]):
        self.rng = random.Random(f"screen:{seed}")
        self.pool = list(pool)
        self.rng.shuffle(self.pool)
        self.reserved = {seq for line in pool for seq in line.split(";")}
        self.keys = {
            n: (self.rng.getrandbits(64) | 1, self.rng.getrandbits(64), self.rng.getrandbits(64))
            for n in SCREEN_ORDERS
        }
        self.next = dict.fromkeys(SCREEN_ORDERS, 0)
        self.open = list(SCREEN_ORDERS)
        self.batches = 0

    def _sequence(self, n: int) -> str | None:
        free = n // 2 + 1
        while self.next[n] < 1 << free:
            x = _permute(self.next[n], free, self.keys[n])
            self.next[n] += 1
            head = "".join("-" if x >> i & 1 else "+" for i in range(free))
            text = head + head[1 : n - free + 1][::-1]
            if text not in self.reserved:
                return text
        return None

    def line(self) -> str:
        if self.pool and self.rng.random() < PLANT_RATE:
            return self.pool.pop()
        while True:
            n = self.rng.choice(self.open)
            seqs = [self._sequence(n) for _ in range(4)]
            if None not in seqs:
                return ";".join(seqs)
            self.open.remove(n)

    def next_batch(self) -> tuple[str, tuple, list[str]]:
        """(kind, wkit arguments, lines) of the next op."""
        kind = "b" if self.batches % 3 == 2 else "a"
        self.batches += 1
        cmd = ("verify",) if kind == "a" else ("check", "matrix-williamson")
        return kind, cmd, [self.line() for _ in range(SCREEN_BATCH)]


def screen_ops(seed: int, pool: list[str], count: int) -> list[Op]:
    """The first `count` screen ops with their oracle verdicts."""
    stream = ScreenStream(seed, pool)
    batches = [stream.next_batch() for _ in range(count)]
    lines = [line for _, _, batch in batches for line in batch]
    verdict = np.zeros(len(lines), dtype=bool)
    for idx, quads in oracle.parse_lines(lines).values():
        verdict[idx] = oracle.is_williamson_rows(quads)
    ops, start = [], 0
    for kind, cmd, batch in batches:
        ok = verdict[start : start + len(batch)]
        if kind == "a":
            out = [verify_line(i, line.index(";"), w) for i, (line, w) in enumerate(zip(batch, ok), 1)]
        else:
            out = [f"line {i}: {'PASS' if w else 'FAIL'}" for i, w in enumerate(ok, 1)]
        ops.append(Op(kind, cmd, len(batch), 0 if ok.all() else 1, "".join(s + "\n" for s in out)))
        start += len(batch)
    return ops


def check_output(op: Op, rc: int | None, out: str | None, cache: dict) -> bool:
    """True iff the op exited as expected and its output agrees with the oracle."""
    if rc != op.expect_rc or out is None:
        return False
    if isinstance(op.expect, str):
        return out == op.expect
    what, arg = op.expect
    if what == "search":
        if arg not in cache:
            cache[arg] = expected_search_lines(arg)
        texts, raw, canonical = cache[arg]
        lines = out.split("\n")
        if lines[-1] != "":
            return False
        body = [line for line in lines[:-1] if not line.startswith("#")]
        report = [line for line in lines[:-1] if line.startswith("#")]
        return (body == texts and f"# raw_count {raw}" in report
                and f"# canonical_count {canonical}" in report)
    key = (oracle.quad_text(arg), out)
    if key not in cache:
        cache[key] = oracle.hadamard_ok(out, arg)
    return cache[key]
