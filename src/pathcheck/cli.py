"""Command-line interface.

Subcommands: check (decide one formula over one trace), dot (DOT dumps of
builder circuits or of every contraction stage), selftest (randomized
differential campaign against the oracle).

Exit codes: 0 = satisfied / selftest passed / success, 1 = violated /
selftest failed, 2 = usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from pathlib import Path as FsPath

import numpy as np

from . import builder as builder_mod
from .campaign import CampaignConfig, check_config, minimize, run_campaign
from .circuit import dot_lines, to_dot
from .contraction import ContractionRecord, ContractionTree, check
from .errors import BuildError, PathcheckError
from .formula import format_formula, parse
from .rows import Label
from .trace import load_trace, to_csv


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The argparse parser is built on the first call and reused by every later
    call in the same process, so repeated in-process calls pay only for
    parsing their arguments."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    parser = _PARSER
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (PathcheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcheck",
        description="Check finite traces against temporal formulas with past and bounds.",
    )
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="decide one formula over one trace")
    _formula_args(p_check)
    _trace_args(p_check)
    p_check.add_argument("--engine", choices=("circuit", "naive"), default="circuit")
    p_check.add_argument("--emit-sequence", action="store_true",
                         help="also print the satisfaction bit for every position")
    p_check.set_defaults(func=cmd_check)

    p_dot = sub.add_parser("dot", help="write DOT for a builder circuit or a full run")
    p_dot.add_argument("--op", help="builder mode: &, |, U, R, S, T (optionally e.g. U[3]), X, wX, Y, wY")
    p_dot.add_argument("--side", choices=("left", "right"),
                       help="which operand --seq gives (binary builders)")
    p_dot.add_argument("--seq", help="known bit sequence, e.g. 0,1,0,0,0,0,0,1")
    p_dot.add_argument("--arity", type=int, help="trace length for shift builders")
    _formula_args(p_dot)
    _trace_args(p_dot)
    p_dot.add_argument("--emit-dot", metavar="PATH",
                       help="output file (builder mode) or directory (one file per stage)")
    p_dot.set_defaults(func=cmd_dot)

    p_self = sub.add_parser("selftest", help="random differential campaign vs the oracle")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--cases", type=int, default=10_000)
    p_self.add_argument("--max-size", type=int, default=20)
    p_self.add_argument("--max-len", type=int, default=50)
    p_self.add_argument("--max-bound", type=int, default=10)
    p_self.add_argument("--processes", type=int, default=max(1, os.cpu_count() or 1),
                        help="processes to spread cases over (default: machine parallelism)")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def _formula_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--formula", help="formula text")
    p.add_argument("--formula-file", metavar="PATH", help="file containing the formula")


def _trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH", help="trace file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="trace file format (default csv)")


def _read_formula(args) -> str:
    if args.formula is not None and args.formula_file is not None:
        raise PathcheckError("pass either --formula or --formula-file, not both")
    if args.formula is not None:
        return args.formula
    if args.formula_file is not None:
        return _read_text(args.formula_file)
    raise PathcheckError("a formula is required (--formula or --formula-file)")


def _read_trace(args):
    if args.trace is None:
        raise PathcheckError("a trace file is required (--trace)")
    return load_trace(_read_text(args.trace), args.format)


def _read_text(path: str) -> str:
    """A file decoded as UTF-8, with universal newlines."""
    raw = FsPath(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PathcheckError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def cmd_check(args) -> int:
    f = parse(_read_formula(args))
    tr = _read_trace(args)
    record = ContractionRecord() if args.engine == "circuit" else None
    t0 = time.perf_counter()
    result = check(f, tr, engine=args.engine, record=record)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    print("SATISFIED" if result.satisfied else "VIOLATED")
    if record is not None:
        print(f"engine=circuit stages={record.stages} wall_ms={wall_ms:.2f}")
    else:
        print(f"engine={args.engine} wall_ms={wall_ms:.2f}")
    if args.emit_sequence:
        print("sequence=" + _bits_text(result.sequence))
    return 0 if result.satisfied else 1


def _bits_text(seq: np.ndarray) -> str:
    """The bits as comma-separated 0/1 digits: one uint8 buffer with the
    digits at even offsets and commas between them."""
    text = np.full(2 * len(seq) - 1, ord(","), dtype=np.uint8)
    text[0::2] = seq.view(np.uint8) + ord("0")
    return text.tobytes().decode("ascii")


_OP_RE = re.compile(r"^([URST])(?:\[(\d+)\])?$")


def _parse_seq(text: str) -> tuple[bool, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p not in ("0", "1") for p in parts):
        raise PathcheckError(f"--seq must be comma-separated 0/1 bits, got {text!r}")
    return tuple(p == "1" for p in parts)


def _build_from_op(args) -> Label:
    op = args.op
    if op in ("X", "wX", "Y", "wY"):
        if args.arity is None:
            raise PathcheckError("shift builders need --arity")
        return builder_mod.build_shift(args.arity, op)
    if op in ("&", "|"):
        if args.seq is None:
            raise PathcheckError("boolean builders need --seq")
        known = _parse_seq(args.seq)
        return builder_mod.build_boolean(len(known), op, known)
    m = _OP_RE.match(op)
    if m is None:
        raise BuildError(f"unknown builder operator {op!r}")
    if args.seq is None or args.side is None:
        raise PathcheckError("binary builders need --seq and --side")
    known = _parse_seq(args.seq)
    base, bound = m.group(1), m.group(2)
    if bound is None:
        return builder_mod.build_unbounded(len(known), base, args.side, known)
    return builder_mod.build_bounded(len(known), base, int(bound), args.side, known)


def _tree_dot(tree: ContractionTree, stage: int) -> str:
    """All edge labels of the tree as one DOT graph, one cluster per edge."""
    lines = [f"digraph stage{stage} {{"]
    for child in sorted(tree.labels):
        lines.append(f"  subgraph cluster_edge{child} {{")
        lines.append(f'    label="edge to node {child}";')
        lines += dot_lines(tree.labels[child], prefix=f"e{child}_g", indent="    ")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dot(args) -> int:
    if args.op is not None:
        t = _build_from_op(args)
        text = to_dot(t, graph_name="builder")
        if args.emit_dot:
            FsPath(args.emit_dot).write_text(text)
            print(f"wrote {args.emit_dot}")
        else:
            sys.stdout.write(text)
        return 0
    # full-run mode: one DOT file per contraction stage
    f = parse(_read_formula(args))
    tr = _read_trace(args)
    if not args.emit_dot:
        raise PathcheckError("full-run mode needs --emit-dot DIRECTORY")
    outdir = FsPath(args.emit_dot)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def dump(tree: ContractionTree, stage: int) -> None:
        path = outdir / f"stage_{stage:02d}.dot"
        path.write_text(_tree_dot(tree, stage))
        written.append(path)

    result = check(f, tr, on_stage=dump)
    print(f"wrote {len(written)} stage files to {outdir}")
    print("SATISFIED" if result.satisfied else "VIOLATED")
    return 0


def cmd_selftest(args) -> int:
    cfg = CampaignConfig(
        cases=args.cases,
        max_size=args.max_size,
        max_len=args.max_len,
        max_bound=args.max_bound,
        seed=args.seed,
    )
    check_config(cfg, args.processes)
    print(
        f"selftest: {cfg.cases} cases, max size {cfg.max_size}, max len {cfg.max_len}, "
        f"max bound {cfg.max_bound}, seed {cfg.seed}, {args.processes} processes"
    )
    result = run_campaign(cfg, processes=args.processes)
    print(f"elapsed: {result.elapsed:.1f}s")
    print(f"throughput: {result.cases_per_s:.1f} cases/s")
    slowest = ", ".join(f"#{i} ({sec * 1000:.1f} ms)" for sec, i in result.slowest)
    print(f"slowest cases: {slowest}")
    print(f"digest: {result.digest}")
    if result.ok:
        print(f"PASS: {result.total} cases agree with the oracle")
        return 0
    print(f"FAIL: {result.failure_count} of {result.total} cases disagree")
    first = result.failures[0]
    print(f"first failing case: #{first.index}")
    print(f"  formula: {first.formula}")
    print(f"  got: {first.got}")
    print(f"  expected: {first.expected}")
    small_f, small_tr = minimize(parse(first.formula), load_trace(first.trace_csv))
    print("minimized counterexample:")
    print(f"  formula: {format_formula(small_f)}")
    print("  trace (csv):")
    for line in to_csv(small_tr).splitlines():
        print(f"    {line}")
    return 1

