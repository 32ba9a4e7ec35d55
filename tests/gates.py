"""The gate-level referee: compose, apply and check transducers gate by gate.

The engine keeps its edge labels as row stacks (`pathcheck.rows`). These
functions work on any object with the `circuit`/`inputs`/`outputs` reading
of `pathcheck.circuit.Transducer`, which a row label offers through its gate
view, so the tests can check the row code against a plain gate walk.
"""

from __future__ import annotations

from pathcheck.circuit import G_AND, G_ID, G_TRUE, G_VAR, Circuit, Transducer
from pathcheck.errors import CircuitError


def identity(n: int) -> Transducer:
    """n Var gates wired straight through (inputs == outputs)."""
    if n < 0:
        raise CircuitError("identity arity must be non-negative")
    ids = tuple(range(n))
    return Transducer(Circuit([G_VAR] * n, [-1] * n, [-1] * n), ids, ids)


def is_identity(t: Transducer) -> bool:
    """Inputs wired straight to the outputs in the same order, nothing else."""
    return t.inputs == t.outputs and len(t.circuit) == len(t.inputs)


def validate(t: Transducer) -> None:
    """Check the transducer invariants; raises CircuitError on violation."""
    c = t.circuit
    m = len(c)
    var_gates = [g for g in range(m) if c.kind[g] == G_VAR]
    if sorted(t.inputs) != var_gates:
        raise CircuitError("inputs must list exactly the Var gates, each once")
    if len(set(t.inputs)) != len(t.inputs):
        raise CircuitError("duplicate input gate")
    for g in t.outputs:
        if not 0 <= g < m:
            raise CircuitError(f"output gate {g} out of range")
    for g in range(m):
        for d in c.dependencies(g):
            if not 0 <= d < m:
                raise CircuitError(f"gate {g} references missing gate {d}")
    _check_acyclic(c)


def _check_acyclic(c: Circuit) -> None:
    m = len(c)
    state = bytearray(m)  # 0 unvisited, 1 on stack, 2 done
    for root in range(m):
        if state[root]:
            continue
        stack = [root]
        while stack:
            g = stack[-1]
            if state[g] == 2:
                stack.pop()
                continue
            if state[g] == 0:
                state[g] = 1
                advanced = False
                for d in c.dependencies(g):
                    if state[d] == 1:
                        raise CircuitError(f"cycle through gate {d}")
                    if state[d] == 0:
                        stack.append(d)
                        advanced = True
                if advanced:
                    continue
            state[g] = 2
            stack.pop()


def constants_are_sinks(c: Circuit) -> bool:
    """The evaluatedness test: no gate reads a constant gate."""
    kind, arg0, arg1 = c.kind, c.arg0, c.arg1
    for g, k in enumerate(kind):
        if k >= G_ID and kind[arg0[g]] <= G_TRUE:
            return False
        if k >= G_AND and kind[arg1[g]] <= G_TRUE:
            return False
    return True


def compose(first: Transducer, second: Transducer) -> Transducer:
    """Disjoint union feeding first's outputs into second's inputs.

    The result computes second's function after first's; its inputs are
    first's and its outputs are second's (shifted into the merged arena).
    """
    if len(first.outputs) != len(second.inputs):
        raise CircuitError(
            f"arity mismatch: {len(first.outputs)} outputs fed into "
            f"{len(second.inputs)} inputs"
        )
    off = len(first.circuit)
    c = first.circuit.copy()
    c.kind.extend(second.circuit.kind)
    c.arg0.extend(a + off if a >= 0 else -1 for a in second.circuit.arg0)
    c.arg1.extend(a + off if a >= 0 else -1 for a in second.circuit.arg1)
    for gate, out in zip(second.inputs, first.outputs):
        gid = gate + off
        c.kind[gid] = G_ID
        c.arg0[gid] = out
        c.arg1[gid] = -1
    return Transducer(c, first.inputs, tuple(o + off for o in second.outputs))


def apply(t: Transducer, bits) -> tuple[bool, ...]:
    """Output bits of the transducer on a full input assignment."""
    bits = tuple(bits)
    if len(bits) != len(t.inputs):
        raise CircuitError(
            f"arity mismatch: {len(bits)} bits for {len(t.inputs)} inputs"
        )
    kind = t.circuit.kind
    arg0 = t.circuit.arg0
    arg1 = t.circuit.arg1
    m = len(kind)
    val = [-1] * m
    for gate, bit in zip(t.inputs, bits):
        val[gate] = 1 if bit else 0
    guard = 4 * m + 4  # any cycle grows the stack without bound; legal DAGs stay linear
    for root in t.outputs:
        if val[root] >= 0:
            continue
        stack = [root]
        while stack:
            if len(stack) > guard:
                raise CircuitError("cycle detected while applying inputs")
            g = stack[-1]
            if val[g] >= 0:
                stack.pop()
                continue
            k = kind[g]
            if k <= G_TRUE:
                val[g] = k
                stack.pop()
            elif k == G_VAR:
                raise CircuitError(f"variable gate {g} missing from the inputs")
            elif k == G_ID:
                d = arg0[g]
                if val[d] >= 0:
                    val[g] = val[d]
                    stack.pop()
                else:
                    stack.append(d)
            else:
                l, r = arg0[g], arg1[g]
                vl, vr = val[l], val[r]
                if vl < 0:
                    stack.append(l)
                if vr < 0:
                    stack.append(r)
                if vl >= 0 and vr >= 0:
                    val[g] = (vl & vr) if k == G_AND else (vl | vr)
                    stack.pop()
    return tuple(val[o] == 1 for o in t.outputs)
