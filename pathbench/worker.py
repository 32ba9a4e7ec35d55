"""Runs one workload in a fresh process that holds only the program and its
inputs, and writes what it measured as JSON.

Usage: python3 worker.py SPEC.json RESULT.json

Operations run one at a time in a closed loop: each `pathcheck` command is
one in-process call of `pathcheck.cli.main` with stdout captured, and the
loop repeats the spec's round of operations until the run has lasted its
seconds and made its minimum number of operations. Every output is checked
against the expected values in the spec.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path


def load_program(src: str):
    """Import pathcheck from the checkout's source tree and nowhere else."""
    sys.path.insert(0, src)
    import pathcheck
    import pathcheck.cli

    if Path(pathcheck.__file__).resolve().parent != (Path(src) / "pathcheck").resolve():
        raise RuntimeError(f"pathcheck was imported from {pathcheck.__file__}, not from {src}")
    return pathcheck


def call(cli, argv: list[str]) -> tuple[object, str, str]:
    """(exit code or exception, stdout, stderr) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc
    except Exception as exc:  # the program crashed: a failed operation
        code = exc
    return code, out.getvalue(), err.getvalue()


def verify(op: dict, code, out: str, err: str) -> str | None:
    """None when the operation's output is right, else why it is not."""
    if not isinstance(code, int):
        return f"{op['name']}: raised {code!r}; stderr: {err.strip()[-300:]}"
    if op["kind"] == "selftest":
        return _verify_selftest(op, code, out)
    return _verify_check(op, code, out)


def _verify_check(op: dict, code: int, out: str) -> str | None:
    name = op["name"]
    if code not in (0, 1):
        return f"{name}: exit code {code}"
    lines = out.splitlines()
    if len(lines) != 3 or not lines[2].startswith("sequence="):
        return f"{name}: unexpected output {out[:200]!r}"
    got = lines[2][len("sequence="):].replace(",", "")
    if got != op["expected"]:
        diff = next(i for i, (a, b) in enumerate(zip(got + "?", op["expected"] + "!")) if a != b)
        return f"{name}: sequence differs from the reference first at position {diff}"
    want_code = 0 if op["expected"][0] == "1" else 1
    if code != want_code or lines[0] != ("SATISFIED" if want_code == 0 else "VIOLATED"):
        return f"{name}: exit code {code} and verdict {lines[0]!r} disagree with bit 0"
    fields = dict(part.split("=", 1) for part in lines[1].split() if "=" in part)
    if fields.get("engine") != op["engine"]:
        return f"{name}: engine line {lines[1]!r}"
    if op["engine"] == "circuit" and fields.get("stages") != str(op["stages"]):
        return f"{name}: {lines[1]!r} but ceil(log2 L) is {op['stages']}"
    return None


def _verify_selftest(op: dict, code: int, out: str) -> str | None:
    name = op["name"]
    if code != 0:
        return f"{name}: selftest exit code {code}"
    lines = out.splitlines()
    if not lines or not lines[0].startswith(op["header"]):
        return f"{name}: header {lines[:1]!r} is not {op['header']!r}"
    if not any(line.startswith("PASS:") for line in lines):
        return f"{name}: no PASS line"
    if _digest(out) != op["digest"]:
        return f"{name}: digest differs from the reference digest"
    return None


def _digest(out: str) -> str | None:
    for line in out.splitlines():
        if "digest:" in line:
            return line.split("digest:", 1)[1].strip()
    return None


def check_flags(cli) -> list[str]:
    """Engine-thread flag for `check`: one thread, while the flag exists."""
    _, out, _ = call(cli, ["check", "--help"])
    return ["--workers", "1"] if "--workers" in out else []


class Loop:
    """Closed-loop runner over whole rounds of operations."""

    def __init__(self, cli, ops: list[dict], extra: dict):
        self.cli = cli
        self.ops = ops
        self.extra = extra  # op kind -> extra arguments
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: list[float] = []

    def run_op(self, op: dict, tracer=None) -> tuple[float, str | None]:
        argv = op["argv"] + self.extra.get(op["kind"], [])
        idx = tracer.open("cli.main") if tracer is not None else None
        t0 = time.perf_counter()
        code, out, err = call(self.cli, argv)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(idx)
        return dt, verify(op, code, out, err)

    def record(self, reason: str | None, dt: float) -> None:
        self.attempted += 1
        if reason is None:
            self.times.append(dt)
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)

    def run(self, seconds: float, min_ops: int, tracer=None, per_op=None) -> float:
        start = time.perf_counter()
        while True:
            for op in self.ops:
                dt, reason = self.run_op(op, tracer)
                if per_op is not None:
                    reason = per_op(op, dt) or reason
                self.record(reason, dt)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and self.attempted >= min_ops:
                return elapsed


def warm_up(loop: Loop, spec: dict) -> list[str]:
    """One untimed round; for a campaign also compare the digest of one
    process with that of the default process count. Returns problems found
    outside the counted operations."""
    problems = []
    for op in loop.ops:
        _, reason = loop.run_op(op)
        if reason is not None:
            problems.append(f"warm-up: {reason}")
    if spec["workload"] == "campaign":
        op = loop.ops[0]
        digests = {}
        for extra in ([], ["--processes", "1"]):
            _, out, _ = call(loop.cli, op["argv"] + extra)
            digests[" ".join(extra) or "default"] = _digest(out)
        if len(set(digests.values())) != 1:
            problems.append(f"digest depends on the process count: {digests}")
    return problems


def traced_phase(pathcheck, loop: Loop, spec: dict) -> tuple[dict, float]:
    """Run whole rounds with every layer wrapped. Returns the per-layer means
    per operation (per case for a campaign) and the mean traced op time.
    Each contraction must take ceil(log2 L) stages for the L literals the
    benchmark counted, or the operation fails."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(pathcheck)
    rows: list[dict] = []
    traced_times: list[float] = []

    def per_op(op, dt):
        if op["kind"] == "selftest":
            literals, nf = op["case_literals"], op["case_nf"]
        else:
            literals = [op["literals"]] if op["engine"] == "circuit" else []
            nf = [op["nf"]]
        want = [(n, math.ceil(math.log2(n))) for n in literals]
        got = tracer.stage_counts()
        rows.append(tracer.finish_op(max(1, len(literals)), nf))
        traced_times.append(dt)
        if got != want:
            return f"{op['name']}: traced (leaves, stages) {got[:4]} are not (L, ceil(log2 L)) {want[:4]}"
        return None

    loop.run(spec["seconds"] / 2, len(loop.ops), tracer, per_op)
    figures = {key: sum(row[key] for row in rows) / len(rows) for key in rows[0]}
    return figures, sum(traced_times) / len(traced_times)


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    pathcheck = load_program(spec["src"])
    cli = pathcheck.cli
    extra = {"check": check_flags(cli)}
    loop = Loop(cli, spec["ops"], extra)
    problems = warm_up(loop, spec)
    result = {}
    if spec["trace"]:
        # Both halves of a traced run use one campaign process, because forked
        # workers cannot hand spans back; the overhead compares like with like.
        extra["selftest"] = ["--processes", "1"]
        result["elapsed"] = loop.run(spec["seconds"] / 2, len(loop.ops))
        result["times"] = list(loop.times)
        traced, traced_mean = traced_phase(pathcheck, loop, spec)
        untraced_mean = sum(result["times"]) / len(result["times"])
        traced["bench.tracing_overhead"] = traced_mean / untraced_mean
        result["per_layer"] = traced
    else:
        result["elapsed"] = loop.run(spec["seconds"], spec["min_ops"])
        result["times"] = loop.times
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures,
        problems=problems,
        peak_rss_kb=me + (os.cpu_count() or 1) * children if children else me,
    )
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
