"""Inputs and expected outputs of every workload, made from the seed alone.

A workload is one round of operations; a run repeats the round. Each
operation is a pathcheck command line plus what its output must be. Traces
and formulas are drawn with Python's `random.Random`, whose streams are
stable across Python versions, and the expected outputs come from
`reference`, never from the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

import reference as ref

# --- long_trace and naive_engine: ROADMAP item 1's few-literal families -----

# name -> (formula, proposition densities, trace length on long_trace).
# Densities are chosen so that constants do not settle every chain: req/ack
# are sparse, chain operands are mostly true so witnesses sit far apart.
# Each family has two binary temporal operators, so the naive engine spends
# about the same on each at one length; on long_trace the lengths differ so
# that each family's check costs about the same, and the median and the tail
# do not fall between two families.
FAMILIES = {
    "response": (
        ("R", ("ff",), ("or", ("not", ("ap", "req")), ("U", ("tt",), ("ap", "ack"), 16)), None),
        {"req": 0.05, "ack": 0.1},
        8192,
    ),
    "until_chain": (
        ("U", ("ap", "a"), ("U", ("ap", "b"), ("ap", "c"), None), None),
        {"a": 0.9, "b": 0.9, "c": 0.05},
        14336,
    ),
    "past": (
        ("and",
         ("T", ("ff",), ("or", ("ap", "c"), ("Y", ("ap", "d"))), None),
         ("S", ("ap", "a"), ("ap", "e"), 3)),
        {"a": 0.8, "c": 0.7, "d": 0.5, "e": 0.1},
        6144,
    ),
    # p is leaf 1, a left child with an odd number, so it is contracted
    # before the right operand and the bounded operator becomes the grid.
    "left_grid": (
        ("and", ("ap", "z"), ("U", ("ap", "p"), ("R", ("ap", "q"), ("ap", "r"), None), 3)),
        {"z": 0.9, "p": 0.7, "q": 0.1, "r": 0.9},
        6144,
    ),
}

WORKLOADS = {
    # n: trace length; tail: percentile reported as op_s_tail; min_ops: the
    # fewest timed operations a run makes (at least ten beyond the tail).
    "long_trace": {"tail": 80, "min_ops": 52},
    "wide_formula": {"n": 128, "tail": 80, "min_ops": 56, "ops": 8, "literals": (112, 144)},
    "naive_engine": {"n": 4096, "tail": 80, "min_ops": 52},
    # campaign blocks of 200 cases: a larger block averages the pool's start-up
    # and the host's noise over more cases, which steadies the tail.
    "campaign": {"tail": 80, "min_ops": 52, "ops": 4, "cases": 200},
}


def random_trace(rng: random.Random, n: int, densities: dict) -> dict:
    """Columns of a random trace: proposition -> bool array of length n."""
    return {
        name: np.array([rng.random() < p for _ in range(n)], dtype=bool)
        for name, p in densities.items()
    }


def write_csv(path: Path, columns: dict) -> None:
    names = list(columns)
    stacked = np.stack([columns[name] for name in names], axis=1).astype(np.uint8)
    rows = [",".join(names)] + [",".join(map(str, row)) for row in stacked.tolist()]
    path.write_text("\n".join(rows) + "\n")


def write_jsonl(path: Path, columns: dict) -> None:
    names = list(columns)
    lines = [json.dumps({"alphabet": names})]
    for row in zip(*(columns[name].tolist() for name in names)):
        lines.append(json.dumps([name for name, on in zip(names, row) if on]))
    path.write_text("\n".join(lines) + "\n")


def check_op(workdir: Path, tag: str, f, columns: dict, n: int, fmt: str, engine: str) -> dict:
    formula_path = workdir / f"{tag}.formula"
    trace_path = workdir / f"{tag}.{fmt}"
    formula_path.write_text(ref.render(f) + "\n")
    (write_csv if fmt == "csv" else write_jsonl)(trace_path, columns)
    argv = ["check", "--formula-file", str(formula_path), "--trace", str(trace_path),
            "--format", fmt, "--emit-sequence"]
    if engine == "naive":
        argv += ["--engine", "naive"]
    return {
        "kind": "check",
        "name": tag,
        "argv": argv,
        "engine": engine,
        "expected": ref.bits(ref.evaluate(f, columns, n)),
        "stages": ref.stages(f),
        "literals": ref.literals(f),
        "nf": n * ref.formula_size(f, n),
    }


def family_round(workdir: Path, seed: int, engine: str, n: int | None = None) -> list[dict]:
    """One check per family; n=None takes each family's long_trace length."""
    ops = []
    for name, (f, densities, family_n) in FAMILIES.items():
        length = family_n if n is None else n
        rng = random.Random(f"{seed}:{name}:{length}")
        columns = random_trace(rng, length, densities)
        ops.append(check_op(workdir, name, f, columns, length, "csv", engine))
    return ops


# --- wide_formula ---------------------------------------------------------------

WIDE_PROPS = ("p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7")
_WIDE_BINARY = ("and", "or", "U", "R", "S", "T")


def wide_formula(rng: random.Random, leaves: int, n: int):
    """A random formula with exactly `leaves` literals mixing every operator.

    Binary temporal operators are unbounded, boundedly small, or bounded
    beyond the trace (so pruning has work); short X/wX/Y/wY chains and
    negations wrap a third of the subformulas.
    """
    if leaves == 1:
        f = ("ap", rng.choice(WIDE_PROPS))
    else:
        op = rng.choice(_WIDE_BINARY)
        if op in ("and", "or"):
            split = rng.randint(1, leaves - 1)
            f = (op, wide_formula(rng, split, n), wide_formula(rng, leaves - split, n))
        else:
            bound = None if rng.random() < 0.4 else rng.randint(0, 4)
            if rng.random() < 0.15:  # F/G/O/H sugar: a constant left operand
                left = ("tt",) if op in ("U", "S") else ("ff",)
                f = (op, left, wide_formula(rng, leaves - 1, n), bound)
            else:
                split = rng.randint(1, leaves - 1)
                f = (op, wide_formula(rng, split, n), wide_formula(rng, leaves - split, n), bound)
    roll = rng.random()
    if roll < 0.25:
        for _ in range(rng.randint(1, 3)):
            f = (rng.choice(ref.SHIFTS), f)
    elif roll < 0.35:
        f = ("not", f)
    return f


def wide_round(workdir: Path, seed: int) -> list[dict]:
    spec = WORKLOADS["wide_formula"]
    n = spec["n"]
    ops = []
    for k in range(spec["ops"]):
        rng = random.Random(f"{seed}:wide:{k}")
        f = wide_formula(rng, rng.randint(*spec["literals"]), n)
        densities = {p: rng.uniform(0.2, 0.8) for p in WIDE_PROPS}
        ops.append(check_op(workdir, f"wide{k}", f, random_trace(rng, n, densities), n, "jsonl", "circuit"))
    return ops


# --- campaign -------------------------------------------------------------------


def campaign_round(seed: int) -> list[dict]:
    """`selftest` blocks, each with its expected digest.

    The cases are pathcheck's own generated cases (the campaign generator
    defines them); they are read by node class name and fields only and
    evaluated with `reference`.
    """
    from pathcheck.campaign import CampaignConfig, case_seed, random_formula, random_trace as gen_trace

    spec = WORKLOADS["campaign"]
    ops = []
    for k in range(spec["ops"]):
        block_seed = seed * 1000 + k
        cfg = CampaignConfig(cases=spec["cases"], seed=block_seed)
        payload = bytearray()
        literals = []
        nfs = []
        for i in range(cfg.cases):
            rng = random.Random(case_seed(cfg.seed, i))
            f = ref.from_program(random_formula(rng, cfg.max_size, cfg.max_bound))
            tr = gen_trace(rng, cfg.max_len)
            n = len(tr.states)
            columns = {
                name: np.array([name in st for st in tr.states], dtype=bool)
                for name in tr.alphabet
            }
            payload += ref.evaluate(f, columns, n).astype(np.uint8).tobytes() + b"\xff"
            literals.append(ref.literals(f))
            nfs.append(n * ref.formula_size(f, n))
        ops.append({
            "kind": "selftest",
            "name": f"block{k}",
            "argv": ["selftest", "--seed", str(block_seed), "--cases", str(cfg.cases)],
            "header": (f"selftest: {cfg.cases} cases, max size {cfg.max_size}, "
                       f"max len {cfg.max_len}, max bound {cfg.max_bound}, seed {block_seed}"),
            "digest": hashlib.sha256(bytes(payload)).hexdigest(),
            "case_literals": literals,
            "case_nf": nfs,
        })
    return ops


def make_round(workload: str, workdir: Path, seed: int) -> list[dict]:
    spec = WORKLOADS[workload]
    if workload == "long_trace":
        return family_round(workdir, seed, "circuit")
    if workload == "naive_engine":
        return family_round(workdir, seed, "naive", spec["n"])
    if workload == "wide_formula":
        return wide_round(workdir, seed)
    if workload == "campaign":
        return campaign_round(seed)
    raise KeyError(workload)
