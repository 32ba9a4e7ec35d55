"""In-process A/B timing of two pathcheck source trees on one pathbench workload.

    python3 scripts/ab_rounds.py PARENT/src CHANGE/src --workload wide_formula \
        --seed 11 --pairs 8 --rounds 10

Run from the root of a checkout. One round of the workload's operations is
made with `pathbench/workloads.py`, which is imported and not changed, into
a temporary directory. Then `--pairs` pairs of fresh interpreters run, one
per tree, the first tree first in even pairs and the second first in odd
ones. Each interpreter imports pathcheck from its tree only, runs the round
once untimed, then `--rounds` times through `pathcheck.cli.main` as
pathbench's worker does, checks every output against the expected values,
and reports its fastest round. The fastest round of a process is what is
compared: it leaves out the moments the host took from it.

Prints, per tree, the median and quartiles of those minima, then the ratio
of the second tree's median to the first's and the pairs in which the
second was faster. The last line of stdout is the same as one JSON object.
Exit code 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "pathbench"
sys.dont_write_bytecode = True  # leave no cache files in the benchmark's directory


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="the first tree's src directory (the base)")
    parser.add_argument("second", type=Path, help="the second tree's src directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=8, help="processes per tree")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds per process")
    args = parser.parse_args(argv)
    srcs = [args.first.resolve(), args.second.resolve()]
    for src in srcs:
        if not (src / "pathcheck" / "__init__.py").is_file():
            parser.error(f"no pathcheck sources under {src}")
    sys.path[:0] = [str(BENCH), str(srcs[0])]  # the campaign's cases come from its generator
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    minima: list[list[float]] = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        round_path = Path(tmp) / "round.json"
        round_path.write_text(json.dumps(workloads.make_round(args.workload, Path(tmp), args.seed)))
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                proc = subprocess.run(
                    [sys.executable, __file__, "--child", str(srcs[side]), str(round_path),
                     str(args.rounds)],
                    capture_output=True, text=True,
                )
                if proc.returncode:
                    print(f"error: {srcs[side]}: {proc.stderr.strip()}", file=sys.stderr)
                    return 1
                minima[side].append(json.loads(proc.stdout)["min_s"])
    summary = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
               "rounds": args.rounds}
    for name, times in zip(("first", "second"), minima):
        q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        summary[name] = {"median_s": median, "q1_s": q1, "q3_s": q3, "min_s": times}
        print(f"{name:6s} median {median * 1e3:9.3f} ms  quartiles {q1 * 1e3:9.3f} .. "
              f"{q3 * 1e3:9.3f} ms")
    summary["ratio"] = summary["second"]["median_s"] / summary["first"]["median_s"]
    summary["second_wins"] = sum(b < a for a, b in zip(*minima))
    print(f"second/first {summary['ratio']:.3f}, second faster in "
          f"{summary['second_wins']} of {args.pairs} pairs")
    print(json.dumps(summary))
    return 0


def child(src: str, round_path: str, rounds: int) -> int:
    """Time one tree on the round; print {"min_s": fastest round}."""
    sys.path.insert(0, str(BENCH))
    import worker

    cli = worker.load_program(src).cli
    ops = json.loads(Path(round_path).read_text())
    best = float("inf")
    for r in range(rounds + 1):
        outputs = []
        t0 = time.perf_counter()
        for op in ops:
            outputs.append(worker.call(cli, op["argv"]))
        elapsed = time.perf_counter() - t0
        for op, output in zip(ops, outputs):
            problem = worker.verify(op, *output)
            if problem is not None:
                print(problem, file=sys.stderr)
                return 1
        if r:  # the first round warms up
            best = min(best, elapsed)
    print(json.dumps({"min_s": best}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2], sys.argv[3], int(sys.argv[4])))
    sys.exit(main())
