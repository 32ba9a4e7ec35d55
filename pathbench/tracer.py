"""Spans around the calls into each pathcheck layer, for the traced run.

Modules import each other's functions by name, so each public function is
wrapped where its callers look it up (for example `check` inside
`campaign`). A span is (name, start, end, parent, gates), kept in memory;
`finish_op` folds one operation's spans into per-layer figures. A layer's
self time is its span's duration minus that of the spans directly inside it.

`run_contraction` gets an `on_stage` probe that counts, over all live
edges, the summed arena size and the gates reachable from the outputs. The
probe is a span of its own, so its time lands in no layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name); the module is a pathcheck submodule name.
WRAPPED = (
    ("cli", "parse", "formula.parse"),
    ("cli", "load_trace", "trace.load"),
    ("contraction", "atom_sequence", "trace.atom_sequence"),
    ("contraction", "to_pnf", "formula.pnf"),
    ("contraction", "prune_bounds", "formula.prune"),
    ("contraction", "init_tree", "contraction.init_tree"),
    ("contraction", "compose_evaluated", "circuit.compose"),
    ("contraction", "identity", "circuit.identity"),
    ("contraction", "apply", "circuit.apply"),
    ("builder", "build_literal", "builder"),
    ("builder", "build_shift", "builder"),
    ("builder", "build_boolean", "builder"),
    ("builder", "build_unbounded", "builder"),
    ("builder", "build_bounded", "builder"),
    ("circuit", "evaluate", "circuit.evaluate"),
    ("semantics", "eval_seq", "semantics.eval_seq"),
    ("campaign", "eval_seq", "semantics.eval_seq"),
    ("campaign", "random_formula", "campaign.gen"),
    ("campaign", "random_trace", "campaign.gen"),
    ("campaign", "check", "campaign.engine"),
    ("campaign", "run_case", "campaign.case"),
)

# Gates a span handles: built by a builder, passed into evaluate.
_GATES = {
    "builder": lambda args, result: len(result.circuit),
    "circuit.evaluate": lambda args, result: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, gates]
        self.stack: list[int] = []
        self.contractions: list[list[tuple[int, int, int]]] = []  # per run: (leaves, arena, live)

    def wrap(self, name, fn):
        gates = _GATES.get(name)

        def traced(*args, **kwargs):
            # A function that recurses through its own wrapped name keeps one span.
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if gates is not None:
                self.spans[idx][4] = gates(args, result)
            return result

        return traced

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def install(self, package) -> None:
        """Wrap every function in WRAPPED, and probe each contraction."""
        for module_name, attr, name in WRAPPED:
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        contraction = package.contraction
        run = contraction.run_contraction

        def run_probed(tree, *args, on_stage=None, **kwargs):
            stages: list[tuple[int, int, int]] = []
            self.contractions.append(stages)

            def probe(t, stage):
                idx = self.open("probe")
                try:
                    stages.append(_census(t))
                finally:
                    self.close(idx)
                if on_stage is not None:
                    on_stage(t, stage)

            return run(tree, *args, on_stage=probe, **kwargs)

        contraction.run_contraction = self.wrap("contraction.run", run_probed)

    def finish_op(self, per: int, nf: list[int]) -> dict:
        """Per-layer figures of one operation, divided by `per` (cases in a
        campaign block, else 1), and reset for the next operation."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        gates = defaultdict(int)
        for name, start, end, parent, g in self.spans:
            dur = end - start
            total[name] += dur
            own[name] += dur
            calls[name] += 1
            gates[name] += g
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        arena = live = share = per_nf = 0.0
        for stages, nf_one in zip(self.contractions, nf):
            peak = max(stages, key=lambda s: s[1])
            arena += peak[1]
            live += max(s[2] for s in stages)
            share += peak[2] / peak[1] if peak[1] else 0.0
            per_nf += peak[1] / nf_one
        figures = {
            "cli.self_s": own["cli.main"],
            "trace.load_s": total["trace.load"],
            "trace.atom_sequence_s": total["trace.atom_sequence"],
            "formula.parse_s": total["formula.parse"],
            "formula.pnf_s": total["formula.pnf"],
            "formula.prune_s": total["formula.prune"],
            "contraction.init_tree_self_s": own["contraction.init_tree"],
            "contraction.run_self_s": own["contraction.run"],
            "contraction.stages": sum(len(s) - 1 for s in self.contractions),
            "contraction.arena_gates_peak": arena,
            "contraction.live_gates_peak": live,
            "contraction.live_share": share,
            "contraction.gates_per_nf": per_nf,
            "builder.calls": calls["builder"],
            "builder.self_s": own["builder"],
            "builder.gates": gates["builder"],
            "circuit.evaluate_calls": calls["circuit.evaluate"],
            "circuit.evaluate_self_s": own["circuit.evaluate"],
            "circuit.evaluate_gates": gates["circuit.evaluate"],
            "circuit.compose_calls": calls["circuit.compose"],
            "circuit.compose_self_s": own["circuit.compose"],
            "circuit.identity_calls": calls["circuit.identity"],
            "circuit.identity_s": total["circuit.identity"],
            "circuit.apply_calls": calls["circuit.apply"],
            "circuit.apply_s": total["circuit.apply"],
            "semantics.eval_seq_calls": calls["semantics.eval_seq"],
            "semantics.eval_seq_s": total["semantics.eval_seq"],
            "campaign.gen_s": total["campaign.gen"],
            "campaign.engine_s": total["campaign.engine"],
            "campaign.case_self_s": own["campaign.case"],
        }
        figures = {key: value / per for key, value in figures.items()}
        self.spans.clear()
        self.contractions.clear()
        return figures

    def stage_counts(self) -> list[tuple[int, int]]:
        """(initial leaves, stages) of every contraction since the last reset."""
        return [(s[0][0], len(s) - 1) for s in self.contractions]


def _census(tree) -> tuple[int, int, int]:
    """(leaves, arena gates, live gates) summed over the tree's edge labels."""
    arena = live = 0
    for label in tree.labels.values():
        c = label.circuit
        arena += len(c.kind)
        live += _reachable(c.arg0, c.arg1, label.outputs)
    return len(tree.leaf_numbers), arena, live


def _reachable(arg0: list, arg1: list, outputs) -> int:
    """Gates reachable from the outputs; an operand < 0 means none."""
    seen = bytearray(len(arg0))
    stack = list(outputs)
    count = 0
    while stack:
        g = stack.pop()
        if seen[g]:
            continue
        seen[g] = 1
        count += 1
        a, b = arg0[g], arg1[g]
        if a >= 0 and not seen[a]:
            stack.append(a)
        if b >= 0 and not seen[b]:
            stack.append(b)
    return count
