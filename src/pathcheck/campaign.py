"""Randomized differential campaigns: circuit engine vs the oracle.

Cases are generated from per-case integer seeds derived only from the
campaign seed and the case index, so a campaign's verdict payload is
identical no matter how cases are distributed over processes. The payload
encodes every case's verdict sequence (one byte per position, 0xff between
cases, 0xfe for an engine error) and is hashed for quick comparison. Each
case is timed, and a campaign reports its throughput and slowest cases.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .builder import MAX_ARITY
from .contraction import check
from .errors import PathcheckError
from .formula import (
    BINARY_TEMPORAL,
    UNARY_TEMPORAL,
    And,
    Atom,
    Formula,
    Not,
    Or,
    children,
    format_formula,
)
from .semantics import eval_seq
from .trace import Trace, to_csv

ALPHABET = ("a", "b", "c", "d")
SLOWEST = 5  # slowest cases a campaign reports
KEEP_FAILURES = 10  # failing cases a campaign keeps in full
MAX_LEN = MAX_ARITY // len(ALPHABET)  # random_trace buffers 8 bytes a cell, n * 4 cells

_PLAIN_BINARY = (And, Or) + BINARY_TEMPORAL


@dataclass(frozen=True)
class CampaignConfig:
    cases: int = 10_000
    max_size: int = 20
    max_len: int = 50
    max_bound: int = 10
    seed: int = 0


@dataclass(frozen=True)
class CaseFailure:
    index: int
    formula: str
    trace_csv: str
    expected: tuple
    got: object  # sequence, or an error string if the engine raised


@dataclass
class CampaignResult:
    total: int
    failures: list[CaseFailure] = field(default_factory=list)
    failure_count: int = 0
    payload: bytes = b""
    digest: str = ""
    elapsed: float = 0.0
    slowest: list[tuple[float, int]] = field(default_factory=list)  # (seconds, index)

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    @property
    def cases_per_s(self) -> float:
        return self.total / self.elapsed if self.elapsed > 0 else 0.0


def case_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def random_formula(rng: random.Random, budget: int, max_bound: int, alphabet=ALPHABET) -> Formula:
    """A random formula of size at most `budget`, counting 1 per node and
    1 + b for an operator bounded by b. Constructors are drawn uniformly,
    with an extra 20% slice going to bounded operators when the budget allows."""
    if budget <= 1:
        return Atom(rng.choice(alphabet))
    if budget >= 3 and rng.random() < 0.2:
        cls = rng.choice(BINARY_TEMPORAL)
        bound = rng.randint(0, min(max_bound, budget - 3))
        rest = budget - 1 - bound
        left = rng.randint(1, rest - 1)
        return cls(
            random_formula(rng, left, max_bound, alphabet),
            random_formula(rng, rest - left, max_bound, alphabet),
            bound,
        )
    pick = rng.randrange(12)
    if pick == 0:
        return Atom(rng.choice(alphabet))
    if pick == 1:
        return Not(random_formula(rng, budget - 1, max_bound, alphabet))
    if pick < 6:
        cls = UNARY_TEMPORAL[pick - 2]
        return cls(random_formula(rng, budget - 1, max_bound, alphabet))
    cls = _PLAIN_BINARY[pick - 6]
    if budget < 3:
        return Atom(rng.choice(alphabet))
    left = rng.randint(1, budget - 2)
    return cls(
        random_formula(rng, left, max_bound, alphabet),
        random_formula(rng, budget - 1 - left, max_bound, alphabet),
    )


# The most 64-bit words one `getrandbits` call draws: its bit count must
# fit a C int.
MAX_DRAW_WORDS = (1 << 31) // 64 - 1


def random_trace(rng: random.Random, max_len: int, alphabet=ALPHABET) -> Trace:
    """A trace of 1..max_len states whose cell (i, p) is `rng.random() < 0.5`
    of the i * len(alphabet) + p-th draw. `getrandbits` draws the same
    32-bit words and leaves `rng` in the same state: `random()` is below 0.5
    exactly when the top bit of the first of its two words is 0. Long traces
    are drawn in chunks of whole 64-bit words, which give the same words."""
    n = rng.randint(1, max_len)
    cells = n * len(alphabet)
    words = np.empty(2 * cells, dtype="<u4")
    for start in range(0, cells, MAX_DRAW_WORDS):
        count = min(MAX_DRAW_WORDS, cells - start)
        chunk = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        words[2 * start:2 * (start + count)] = np.frombuffer(chunk, "<u4")
    bits = words[::2] < 1 << 31
    return Trace(bits.reshape(n, len(alphabet)).T, tuple(alphabet))


def run_case(cfg: CampaignConfig, index: int) -> tuple[bytes, Optional[CaseFailure]]:
    rng = random.Random(case_seed(cfg.seed, index))
    f = random_formula(rng, cfg.max_size, cfg.max_bound)
    tr = random_trace(rng, cfg.max_len)
    expected = eval_seq(tr, f)
    try:
        got = check(f, tr, engine="circuit").sequence
    except Exception as exc:  # an engine crash is a failed case, not a crash
        failure = CaseFailure(
            index, format_formula(f), to_csv(tr), expected, f"{type(exc).__name__}: {exc}"
        )
        return b"\xfe\xff", failure
    payload = got.tobytes() + b"\xff"
    got = tuple(got.tolist())
    if got != expected:
        return payload, CaseFailure(index, format_formula(f), to_csv(tr), expected, got)
    return payload, None


def _warm_up(cfg: CampaignConfig) -> None:
    """Run case 0 once, untimed and unrecorded, so that first-call set-up
    stays out of a process's timings; errors are left to the case's real run
    (a pool whose initializer raises restarts its workers forever)."""
    with contextlib.suppress(Exception):
        run_case(cfg, 0)


def _run_range(args) -> tuple[bytes, list[CaseFailure], list[tuple[float, int]]]:
    """Payload and failures of cases [start, stop), and the (seconds, index)
    of its slowest cases, slowest first."""
    cfg, start, stop = args
    chunks = []
    failures = []
    times = []
    for i in range(start, stop):
        t0 = time.perf_counter()
        payload, failure = run_case(cfg, i)
        times.append((time.perf_counter() - t0, i))
        chunks.append(payload)
        if failure is not None:
            failures.append(failure)
    return b"".join(chunks), failures, sorted(times, reverse=True)[:SLOWEST]


def check_config(cfg: CampaignConfig, processes: int) -> None:
    """Raise PathcheckError unless a campaign can run with these settings."""
    if processes < 1:
        raise PathcheckError("processes must be at least 1")
    if cfg.cases < 1:
        raise PathcheckError("cases must be at least 1")
    if cfg.max_size < 1:
        raise PathcheckError("max_size must be at least 1")
    if not 1 <= cfg.max_len <= MAX_LEN:
        raise PathcheckError(f"max_len must be between 1 and {MAX_LEN}")
    if cfg.max_bound < 0:
        raise PathcheckError("max_bound must be non-negative")


def run_campaign(cfg: CampaignConfig, processes: int = 1) -> CampaignResult:
    """Run the whole campaign; results are independent of `processes`."""
    t0 = time.perf_counter()
    check_config(cfg, processes)
    jobs = [(cfg, start, stop) for start, stop in _spans(cfg.cases, processes)]
    workers = min(processes, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_warm_up, initargs=(cfg,)) as pool:
            parts = pool.map(_run_range, jobs)
    else:
        _warm_up(cfg)
        parts = [_run_range(job) for job in jobs]
    payload = b"".join(p for p, _, _ in parts)
    failures = [f for _, fs, _ in parts for f in fs]
    return CampaignResult(
        total=cfg.cases,
        failures=failures[:KEEP_FAILURES],
        failure_count=len(failures),
        payload=payload,
        digest=hashlib.sha256(payload).hexdigest(),
        elapsed=time.perf_counter() - t0,
        slowest=sorted((t for _, _, ts in parts for t in ts), reverse=True)[:SLOWEST],
    )


def _spans(cases: int, processes: int) -> list[tuple[int, int]]:
    # a few slices per process smooths out uneven case costs
    parts = max(1, min(cases, processes * 4))
    step = math.ceil(cases / parts)
    return [(lo, min(lo + step, cases)) for lo in range(0, cases, step)]


def _disagrees(f: Formula, tr: Trace) -> bool:
    expected = eval_seq(tr, f)
    try:
        return tuple(check(f, tr, engine="circuit").sequence.tolist()) != expected
    except Exception:
        return True


def minimize(f: Formula, tr: Trace) -> tuple[Formula, Trace]:
    """Shrink a disagreeing (formula, trace) pair greedily: halve the trace
    while it still disagrees, then try replacing the formula with one of its
    children, repeating to a fixed point."""
    if not _disagrees(f, tr):
        return f, tr
    improved = True
    while improved:
        improved = False
        n = len(tr)
        if n > 1:
            half = (n + 1) // 2
            for columns in (tr.columns[:, :half], tr.columns[:, half:]):
                cand = Trace(columns, tr.alphabet)
                if _disagrees(f, cand):
                    tr = cand
                    improved = True
                    break
            if improved:
                continue
        for child in children(f):
            if _disagrees(child, tr):
                f = child
                improved = True
                break
    return f, tr
