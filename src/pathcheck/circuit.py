"""The gate view of a transducer, and its DOT output.

A circuit is three parallel lists (kind, first arg, second arg) indexed by
gate id. Ids are dense: 0..len-1, with no holes. A transducer wraps a
circuit with an ordered input interface (exactly its Var gates, each once)
and an ordered output interface (any gates).

The engine keeps its edge labels as stacks of rows (`rows`); a label offers
this reading through a gate view built on demand, which the DOT writer
draws. `evaluate` rewrites labels in a copy but keeps the arena size, so a
gate id stays meaningful across it; in an evaluated circuit no gate reads a
constant and every Id gate points at a gate that is not an Id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CircuitError

G_FALSE = 0
G_TRUE = 1
G_VAR = 2
G_ID = 3
G_AND = 4
G_OR = 5

KIND_NAMES = {
    G_FALSE: "0",
    G_TRUE: "1",
    G_VAR: "VAR",
    G_ID: "ID",
    G_AND: "AND",
    G_OR: "OR",
}


class Circuit:
    __slots__ = ("kind", "arg0", "arg1")

    def __init__(self, kind=None, arg0=None, arg1=None):
        self.kind: list[int] = kind if kind is not None else []
        self.arg0: list[int] = arg0 if arg0 is not None else []
        self.arg1: list[int] = arg1 if arg1 is not None else []

    def __len__(self) -> int:
        return len(self.kind)

    def add(self, kind: int, a: int = -1, b: int = -1) -> int:
        gid = len(self.kind)
        self.kind.append(kind)
        self.arg0.append(a)
        self.arg1.append(b)
        return gid

    def add_const(self, value: bool) -> int:
        return self.add(G_TRUE if value else G_FALSE)

    def add_var(self) -> int:
        return self.add(G_VAR)

    def add_id(self, target: int) -> int:
        return self.add(G_ID, target)

    def add_and(self, a: int, b: int) -> int:
        return self.add(G_AND, a, b)

    def add_or(self, a: int, b: int) -> int:
        return self.add(G_OR, a, b)

    def copy(self) -> "Circuit":
        return Circuit(self.kind[:], self.arg0[:], self.arg1[:])

    def is_const(self, g: int) -> bool:
        return self.kind[g] <= G_TRUE

    def dependencies(self, g: int) -> tuple[int, ...]:
        k = self.kind[g]
        if k == G_ID:
            return (self.arg0[g],)
        if k >= G_AND:
            return (self.arg0[g], self.arg1[g])
        return ()

    def gate(self, g: int) -> tuple:
        """Readable label, for tests and debugging."""
        k = self.kind[g]
        if k == G_FALSE:
            return ("const", False)
        if k == G_TRUE:
            return ("const", True)
        if k == G_VAR:
            return ("var",)
        if k == G_ID:
            return ("id", self.arg0[g])
        name = "and" if k == G_AND else "or"
        return (name, self.arg0[g], self.arg1[g])


@dataclass(frozen=True)
class Transducer:
    circuit: Circuit
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    @property
    def arity_in(self) -> int:
        return len(self.inputs)

    @property
    def arity_out(self) -> int:
        return len(self.outputs)


def constant_circuit(bits) -> Transducer:
    """Arity 0 -> len(bits): output gate i is the constant bits[i]."""
    kind = [G_TRUE if b else G_FALSE for b in bits]
    c = Circuit(kind, [-1] * len(kind), [-1] * len(kind))
    return Transducer(c, (), tuple(range(len(kind))))


def evaluate(c: Circuit) -> Circuit:
    """Fixed point of the local simplification rules, as a new circuit.

    Constants fold through Id/And/Or; an And/Or with one side decided becomes
    a constant or an Id of the live side; Id chains compress to their final
    non-Id target. Gate count is preserved and surviving And/Or gates keep
    their original operand pointers, so only labels change. In the result
    every constant gate is a sink. Raises CircuitError on a cycle.
    """
    kind = c.kind
    arg0 = c.arg0
    arg1 = c.arg1
    m = len(kind)
    nk = kind[:]
    na = arg0[:]
    nb = arg1[:]
    val = [-1] * m  # 0/1 once a gate is known constant
    tgt = list(range(m))  # Id-chain compression target
    state = bytearray(m)  # 0 unvisited, 1 in progress, 2 done

    for root in range(m):
        if state[root]:
            continue
        stack = [root]
        while stack:
            g = stack[-1]
            if state[g] == 2:
                stack.pop()
                continue
            k = kind[g]
            if k <= G_TRUE:
                val[g] = k
                state[g] = 2
                stack.pop()
                continue
            if k == G_VAR:
                state[g] = 2
                stack.pop()
                continue
            if state[g] == 0:
                state[g] = 1
                pending = False
                if k == G_ID:
                    d = arg0[g]
                    if state[d] != 2:
                        if state[d] == 1:
                            raise CircuitError(f"cycle through gate {d}")
                        stack.append(d)
                        pending = True
                else:
                    for d in (arg0[g], arg1[g]):
                        if state[d] != 2:
                            if state[d] == 1:
                                raise CircuitError(f"cycle through gate {d}")
                            stack.append(d)
                            pending = True
                if pending:
                    continue
            if k == G_ID:
                d = arg0[g]
                v = val[d]
                if v >= 0:
                    nk[g] = v
                    na[g] = -1
                    val[g] = v
                else:
                    t = tgt[d]
                    na[g] = t
                    tgt[g] = t
            elif k == G_AND:
                l, r = arg0[g], arg1[g]
                vl, vr = val[l], val[r]
                if vl == 0 or vr == 0:
                    nk[g] = G_FALSE
                    na[g] = -1
                    nb[g] = -1
                    val[g] = 0
                elif vl == 1 and vr == 1:
                    nk[g] = G_TRUE
                    na[g] = -1
                    nb[g] = -1
                    val[g] = 1
                elif vr == 1:
                    nk[g] = G_ID
                    na[g] = tgt[l]
                    nb[g] = -1
                    tgt[g] = tgt[l]
                elif vl == 1:
                    nk[g] = G_ID
                    na[g] = tgt[r]
                    nb[g] = -1
                    tgt[g] = tgt[r]
            else:  # G_OR
                l, r = arg0[g], arg1[g]
                vl, vr = val[l], val[r]
                if vl == 1 or vr == 1:
                    nk[g] = G_TRUE
                    na[g] = -1
                    nb[g] = -1
                    val[g] = 1
                elif vl == 0 and vr == 0:
                    nk[g] = G_FALSE
                    na[g] = -1
                    nb[g] = -1
                    val[g] = 0
                elif vr == 0:
                    nk[g] = G_ID
                    na[g] = tgt[l]
                    nb[g] = -1
                    tgt[g] = tgt[l]
                elif vl == 0:
                    nk[g] = G_ID
                    na[g] = tgt[r]
                    nb[g] = -1
                    tgt[g] = tgt[r]
            state[g] = 2
            stack.pop()
    return Circuit(nk, na, nb)


def to_dot(t: Transducer, graph_name: str = "circuit") -> str:
    """DOT rendering of one transducer, its interfaces listed in comments."""
    lines = [f"digraph {graph_name} {{"]
    if t.inputs:
        lines.append("  // inputs: " + " ".join(f"g{g}" for g in t.inputs))
    if t.outputs:
        lines.append("  // outputs: " + " ".join(f"g{g}" for g in t.outputs))
    lines += dot_lines(t)
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_lines(t: Transducer, prefix: str = "g", indent: str = "  ") -> list[str]:
    """The DOT statements of one transducer: one node per gate labeled with
    its kind (constants show their value), one edge from each gate to every
    gate it reads, and the input/output interfaces grouped with rank=same in
    interface order. Node names are `prefix` plus the gate id."""
    c = t.circuit
    lines = [f'{indent}{prefix}{g} [label="{KIND_NAMES[k]}"];' for g, k in enumerate(c.kind)]
    for g in range(len(c)):
        for d in c.dependencies(g):
            lines.append(f"{indent}{prefix}{g} -> {prefix}{d};")
    for side in (t.inputs, t.outputs):
        if side:
            names = " ".join(f"{prefix}{g};" for g in side)
            lines.append(f"{indent}{{ rank=same; {names} }}")
    return lines
