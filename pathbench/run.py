"""pathcheck benchmark: one workload, one seed, one run.

    python3 pathbench/run.py --workload long_trace --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory. Inputs and expected outputs are made from the seed before timing
starts (see workloads.py), then one fresh worker process runs the
operations (worker.py). The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # this script's directory is on sys.path

HERE = Path(__file__).resolve().parent
WORK = ".pathbench_work"  # scratch space for generated inputs, in the checkout
SETUP_LAUNCHES = 11  # the first is dropped: it may compile bytecode
WORKER_TIMEOUT_S = 150


def units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def setup_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing pathcheck.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pathcheck.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def end_to_end(result: dict, tail: int) -> dict:
    times = sorted(result["times"])
    return {
        "ops_per_s": len(times) / result["elapsed"],
        "op_s_p50": statistics.median(times),
        "op_s_tail": nearest_rank(times, tail),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pathcheck" / "__init__.py").is_file():
        print(f"error: no pathcheck sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    spec_w = workloads.WORKLOADS[args.workload]
    workdir = root / WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sys.path.insert(0, str(src))  # the campaign's cases come from its own generator
        ops = workloads.make_round(args.workload, workdir, args.seed)
        spec = {
            "workload": args.workload, "src": str(src), "ops": ops, "seconds": args.seconds,
            "min_ops": spec_w["min_ops"], "trace": args.trace,
        }
        (workdir / "spec.json").write_text(json.dumps(spec))
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(workdir / "spec.json"),
             str(workdir / "result.json")],
            check=True, timeout=WORKER_TIMEOUT_S,
        )
        result = json.loads((workdir / "result.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["failures"] + result["problems"]:
        print(f"FAILED {line}")
    if not result["times"]:
        print(f"error: all {result['attempted']} operations failed", file=sys.stderr)
        return 1
    e2e = end_to_end(result, spec_w["tail"])
    e2e_units = units("end_to_end")
    if args.trace:
        layer_units = units("per_layer")
        print(f"untraced first half of the run, {len(result['times'])} ops:")
        for name, value in e2e.items():
            print(f"  {name:32s} {value:14.6g} {e2e_units[name]}")
        print(f"traced per-layer means per {'case' if args.workload == 'campaign' else 'operation'}:")
        for name, value in result["per_layer"].items():
            print(f"  {name:32s} {value:14.6g} {layer_units[name]}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        e2e["setup_s"] = setup_seconds(src)
        print(f"{len(result['times'])} ops in {result['elapsed']:.2f} s, "
              f"op_s_tail = p{spec_w['tail']}")
        for name, value in e2e.items():
            print(f"  {name:12s} {value:12.6g} {e2e_units[name]}")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in e2e_units.items()}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
