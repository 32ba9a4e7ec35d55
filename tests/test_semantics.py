import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcheck.errors import UnknownProposition
from pathcheck.formula import (
    FALSE_NAME,
    TRUE_NAME,
    And,
    Atom,
    Formula,
    Next,
    Not,
    Or,
    Release,
    Since,
    Trigger,
    Until,
    WeakNext,
    WeakYesterday,
    Yesterday,
    format_formula,
    parse,
    prune_bounds,
    to_pnf,
)
from pathcheck.semantics import eval_seq, next_true, prev_true
from pathcheck.trace import Trace, make_trace

from test_formula import formulas


# The literal recursive reading of the satisfaction relation, the referee
# `eval_seq` is tested against.
def _atom_holds(trace: Trace, name: str, i: int) -> bool:
    if name == TRUE_NAME:
        return True
    if name == FALSE_NAME:
        return False
    if name not in trace.row_of:
        raise UnknownProposition(f"proposition {name!r} is not in the trace alphabet")
    return bool(trace.columns[trace.row_of[name], i])


def holds_at(trace: Trace, f: Formula, i: int) -> bool:
    """Does the trace satisfy f at position i? Literal recursion, one level
    per nesting level; only suitable for small formulas and short traces."""
    n = len(trace)
    if not 0 <= i < n:
        raise ValueError(f"position {i} outside trace of length {n}")
    if isinstance(f, Atom):
        return _atom_holds(trace, f.name, i)
    if isinstance(f, Not):
        return not holds_at(trace, f.child, i)
    if isinstance(f, And):
        return holds_at(trace, f.left, i) and holds_at(trace, f.right, i)
    if isinstance(f, Or):
        return holds_at(trace, f.left, i) or holds_at(trace, f.right, i)
    if isinstance(f, Next):
        return i + 1 < n and holds_at(trace, f.child, i + 1)
    if isinstance(f, WeakNext):
        return i + 1 == n or holds_at(trace, f.child, i + 1)
    if isinstance(f, Yesterday):
        return i - 1 >= 0 and holds_at(trace, f.child, i - 1)
    if isinstance(f, WeakYesterday):
        return i - 1 < 0 or holds_at(trace, f.child, i - 1)
    if isinstance(f, Until):
        hi = n - 1 if f.bound is None else min(i + f.bound, n - 1)
        return any(
            holds_at(trace, f.right, j)
            and all(holds_at(trace, f.left, k) for k in range(i, j))
            for j in range(i, hi + 1)
        )
    if isinstance(f, Release):
        hi = n - 1 if f.bound is None else min(i + f.bound, n - 1)
        return all(
            holds_at(trace, f.right, j)
            or any(holds_at(trace, f.left, k) for k in range(i, j))
            for j in range(i, hi + 1)
        )
    if isinstance(f, Since):
        lo = 0 if f.bound is None else max(i - f.bound, 0)
        return any(
            holds_at(trace, f.right, j)
            and all(holds_at(trace, f.left, k) for k in range(j + 1, i + 1))
            for j in range(lo, i + 1)
        )
    if isinstance(f, Trigger):
        lo = 0 if f.bound is None else max(i - f.bound, 0)
        return all(
            holds_at(trace, f.right, j)
            or any(holds_at(trace, f.left, k) for k in range(j + 1, i + 1))
            for j in range(lo, i + 1)
        )
    raise TypeError(f"unknown formula node {f!r}")



def bits_trace(**columns):
    """Build a trace from an {atom: "0101..."} mapping."""
    names = list(columns)
    length = len(next(iter(columns.values())))
    states = [
        {a for a in names if columns[a][i] == "1"}
        for i in range(length)
    ]
    return make_trace(states, names)


@st.composite
def traces(draw, max_len=8):
    length = draw(st.integers(min_value=1, max_value=max_len))
    names = ["a", "b", "c", "d"]
    states = [
        {n for n in names if draw(st.booleans())}
        for _ in range(length)
    ]
    return make_trace(states, names)


class TestGolden:
    def test_bounded_until(self):
        tr = bits_trace(a="11111111", b="01000001")
        f = parse("a U[3] b")
        assert eval_seq(tr, f) == (True, True, False, False, True, True, True, True)

    def test_until_needs_witness(self):
        tr = bits_trace(a="1111", b="0000")
        assert eval_seq(tr, parse("a U b")) == (False,) * 4
        assert eval_seq(tr, parse("a R b")) == (False,) * 4
        assert eval_seq(tr, parse("b R a")) == (True,) * 4

    def test_strong_vs_weak_next_at_end(self):
        tr = bits_trace(a="11")
        assert eval_seq(tr, parse("X a")) == (True, False)
        assert eval_seq(tr, parse("wX a")) == (True, True)

    def test_strong_vs_weak_yesterday_at_start(self):
        tr = bits_trace(a="11")
        assert eval_seq(tr, parse("Y a")) == (False, True)
        assert eval_seq(tr, parse("wY a")) == (True, True)

    def test_since(self):
        tr = bits_trace(a="0111", b="1000")
        assert eval_seq(tr, parse("a S b")) == (True, True, True, True)
        tr2 = bits_trace(a="0011", b="1000")
        assert eval_seq(tr2, parse("a S b")) == (True, False, False, False)

    def test_trigger(self):
        # b T a: at every past point, a holds or a later b releases it.
        tr = bits_trace(a="0111", b="0010")
        assert eval_seq(tr, parse("b T a")) == (False, False, True, True)

    def test_bounded_window_is_inclusive(self):
        # a U[1] b at i looks at j in {i, i+1}.
        tr = bits_trace(a="110", b="001")
        assert eval_seq(tr, parse("a U[1] b")) == (False, True, True)

    def test_bounded_zero_is_right_operand(self):
        tr = bits_trace(a="0101", b="0011")
        for op in ("U", "R", "S", "T"):
            f = parse(f"a {op}[0] b")
            assert eval_seq(tr, f) == eval_seq(tr, parse("b"))

    def test_bound_beyond_int64(self):
        tr = bits_trace(a="1101", b="0010")
        for op in ("U", "R", "S", "T"):
            f = parse(f"a {op}[{10 ** 20}] b")
            assert eval_seq(tr, f) == eval_seq(tr, parse(f"a {op} b"))

    def test_sugar(self):
        tr = bits_trace(a="0010")
        assert eval_seq(tr, parse("F a")) == (True, True, True, False)
        assert eval_seq(tr, parse("G a")) == (False, False, False, False)
        assert eval_seq(tr, parse("O a")) == (False, False, True, True)
        assert eval_seq(tr, parse("H a")) == (False, False, False, False)

    def test_length_one_trace(self):
        tr = bits_trace(a="1", b="0")
        assert eval_seq(tr, parse("a U b")) == (False,)
        assert eval_seq(tr, parse("a R b")) == (False,)
        assert eval_seq(tr, parse("X a")) == (False,)
        assert eval_seq(tr, parse("wX a")) == (True,)
        assert eval_seq(tr, parse("Y a")) == (False,)
        assert eval_seq(tr, parse("wY a")) == (True,)

    def test_constants(self):
        tr = bits_trace(a="00")
        assert eval_seq(tr, parse("true")) == (True, True)
        assert eval_seq(tr, parse("false")) == (False, False)


class TestHoldsAt:
    def test_matches_eval_seq_golden(self):
        tr = bits_trace(a="11111111", b="01000001")
        f = parse("a U[3] b")
        assert tuple(holds_at(tr, f, i) for i in range(8)) == eval_seq(tr, f)

    def test_position_out_of_range(self):
        tr = bits_trace(a="11")
        with pytest.raises(ValueError, match="position"):
            holds_at(tr, parse("a"), 2)
        with pytest.raises(ValueError, match="position"):
            holds_at(tr, parse("a"), -1)

    @settings(max_examples=150, deadline=None)
    @given(formulas(), traces())
    def test_matches_eval_seq(self, f, tr):
        assert tuple(holds_at(tr, f, i) for i in range(len(tr))) == eval_seq(tr, f)


@st.composite
def binary_edge_cases(draw, max_len=8):
    """`a OP[bound] b` over a two-column trace, with the right operand drawn
    to put its witnesses at the trace edges, nowhere, or everywhere."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    bools = st.lists(st.booleans(), min_size=n, max_size=n)
    left = draw(st.one_of(st.just([True] * n), bools))
    right = draw(st.sampled_from([
        [False] * n,                             # no witness: the sentinel case
        [True] * n,
        [j == 0 for j in range(n)],
        [j == n - 1 for j in range(n)],
        [j in (0, n - 1) for j in range(n)],
    ]) | bools)
    op = draw(st.sampled_from("URST"))
    bound = draw(st.none() | st.integers(min_value=0, max_value=n + 2))
    text = f"a {op} b" if bound is None else f"a {op}[{bound}] b"
    return parse(text), Trace(np.array([left, right], dtype=bool), ("a", "b"))


class TestWitnessArrays:
    @pytest.mark.parametrize("n", range(7))
    def test_match_plain_loop(self, n):
        for bits in itertools.product((False, True), repeat=n):
            a = np.array(bits, dtype=bool)
            nxt = [next((j for j in range(i, n) if bits[j]), n) for i in range(n)]
            prv = [next((j for j in range(i, -1, -1) if bits[j]), -1) for i in range(n)]
            assert next_true(a).tolist() == nxt
            assert prev_true(a).tolist() == prv

    @settings(max_examples=400, deadline=None)
    @given(binary_edge_cases())
    def test_binary_edges_match_holds_at(self, case):
        f, tr = case
        assert eval_seq(tr, f) == tuple(holds_at(tr, f, i) for i in range(len(tr)))


class TestTransforms:
    @settings(max_examples=150, deadline=None)
    @given(formulas(), traces())
    def test_pnf_preserves_semantics(self, f, tr):
        assert eval_seq(tr, to_pnf(f)) == eval_seq(tr, f)

    @settings(max_examples=150, deadline=None)
    @given(formulas(), traces())
    def test_prune_preserves_semantics(self, f, tr):
        assert eval_seq(tr, prune_bounds(f, len(tr))) == eval_seq(tr, f)

    def test_bounded_duality_keeps_bound(self):
        tr = bits_trace(a="01101", b="11010")
        f = parse("! (a U[2] b)")
        g = to_pnf(f)
        assert "R[2]" in format_formula(g)
        assert eval_seq(tr, g) == eval_seq(tr, f)


def test_unknown_atom_raises():
    tr = bits_trace(a="10")
    with pytest.raises(UnknownProposition):
        eval_seq(tr, parse("z"))
    with pytest.raises(UnknownProposition):
        holds_at(tr, parse("z"), 0)
