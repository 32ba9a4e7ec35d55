"""Reference figures for the benchmark's README, printed as Markdown.

    python3 pathbench/figures.py

Run from the root of a checkout. It times, each as the median of several
repetitions in one process: every family through both engines at n = 1024
and 4096; the default engine threads against one thread; the start-up split
(bare interpreter, numpy, pathcheck.cli); and the cost of `X^d a`. It also
runs `pathcheck check` on deeply nested formulas and reports how it exits.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import workloads
from worker import call, load_program

SRC = Path.cwd() / "src"


def times_of(fn, repeat: int) -> list[float]:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def check_times(cli, argv: list[str], repeat: int) -> list[float]:
    def run():
        code = call(cli, argv)[0]
        if code not in (0, 1):
            raise RuntimeError(f"{argv}: {code!r}")
    return times_of(run, repeat)


def families(cli, tmp: Path) -> None:
    print("| family | L | n | circuit, 1 thread (s) | naive (s) |")
    print("|---|---|---|---|---|")
    for n in (1024, 4096):
        for op_c, op_n in zip(workloads.family_round(tmp, 0, "circuit", n),
                              workloads.family_round(tmp, 0, "naive", n)):
            circuit = statistics.median(check_times(cli, op_c["argv"] + ["--workers", "1"], 5))
            naive = statistics.median(check_times(cli, op_n["argv"], 5))
            print(f"| {op_c['name']} | {op_c['literals']} | {n} | {circuit:.3f} | {naive:.3f} |")


def threads(cli, tmp: Path) -> None:
    rng = random.Random(7)
    chain = ("ap", "p8")
    for k in range(7, -1, -1):
        chain = ("U", ("ap", f"p{k}"), chain, None)
    conj = ("ap", "p0")
    for k in range(1, 48):
        conj = ("and", ("ap", f"p{k % 9}"), conj)
    wide = workloads.wide_formula(rng, 128, 128)
    cases = [("9-literal U chain", chain, 2048), ("48-literal conjunction", conj, 512),
             ("128-literal wide formula", wide, 128)]
    print(f"| formula | n | default ({os.cpu_count()} threads): median (s), IQR/median "
          "| --workers 1: median (s), IQR/median | ratio of medians |")
    print("|---|---|---|---|---|")
    for label, f, n in cases:
        columns = workloads.random_trace(rng, n, {f"p{k}": 0.7 for k in range(9)})
        op = workloads.check_op(tmp, "threads", f, columns, n, "csv", "circuit")
        figures = []
        for argv in (op["argv"], op["argv"] + ["--workers", "1"]):
            times = check_times(cli, argv, 15)
            q1, med, q3 = statistics.quantiles(times, n=4)
            figures.append((med, (q3 - q1) / med))
        (default, d_spread), (one, o_spread) = figures
        print(f"| {label} | {n} | {default:.3f}, {d_spread:.2f} | {one:.3f}, {o_spread:.2f} "
              f"| {default / one:.2f} |")


def startup() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("| interpreter start-up | median of 9 after one dropped (s) |")
    print("|---|---|")
    for label, code in (("bare interpreter", "pass"), ("import numpy", "import numpy"),
                        ("import pathcheck.cli", "import pathcheck.cli")):
        def launch():
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
        launch()
        print(f"| {label} | {statistics.median(times_of(launch, 9)):.3f} |")


def shifts(pathcheck) -> None:
    from pathcheck.contraction import init_tree
    from pathcheck.formula import parse, prune_bounds, to_pnf
    from pathcheck.trace import make_trace

    n = 2048
    trace = make_trace([["a"] if i % 3 else [] for i in range(n)], ["a"])
    print("| d | check of X^d a at n = 2048, 1 thread (s) | init_tree label gates / n |")
    print("|---|---|---|")
    for d in (16, 32, 64):
        f = parse("X " * d + "a")
        seconds = statistics.median(times_of(lambda: pathcheck.check(f, trace, workers=1), 3))
        tree = init_tree(prune_bounds(to_pnf(f), n), trace)
        gates = sum(len(t.circuit) for t in tree.labels.values())
        print(f"| {d} | {seconds:.2f} | {gates / n:.0f} |")


def deep_inputs(tmp: Path) -> None:
    trace = tmp / "deep.csv"
    trace.write_text("a\n1\n0\n1\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    print("| input | exit code | last line of stderr |")
    print("|---|---|---|")
    for label, text in (("X X ... X a, 3000 deep", "X " * 3000 + "a"),
                        ("a U a U ... U a, 2000 atoms", " U ".join(["a"] * 2000))):
        formula = tmp / "deep.formula"
        formula.write_text(text)
        p = subprocess.run([sys.executable, "-m", "pathcheck", "check", "--formula-file",
                            str(formula), "--trace", str(trace)],
                           env=env, capture_output=True, text=True, timeout=120)
        last = (p.stderr.strip().splitlines() or [""])[-1]
        print(f"| {label} | {p.returncode} | `{last[:80]}` |")


def main() -> int:
    pathcheck = load_program(str(SRC))
    Path(".pathbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".pathbench_work") as tmp_name:
        tmp = Path(tmp_name)
        print(f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
              f"numpy {numpy.__version__}\n")
        for section in (lambda: families(pathcheck.cli, tmp), lambda: threads(pathcheck.cli, tmp),
                        startup, lambda: shifts(pathcheck), lambda: deep_inputs(tmp)):
            section()
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
