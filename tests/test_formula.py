import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcheck.errors import FormulaError, ParseError
from pathcheck.formula import (
    And,
    Atom,
    FALSE_NAME,
    Next,
    Not,
    Or,
    Release,
    Since,
    TRUE_NAME,
    Trigger,
    Until,
    WeakNext,
    WeakYesterday,
    Yesterday,
    atom_names,
    fold,
    format_formula,
    parse,
    prune_bounds,
    to_pnf,
)

from helpers import is_literal


def atoms():
    return st.sampled_from(["a", "b", "c", "d"]).map(Atom)


def formulas(max_leaves=8):
    def extend(children):
        unary = st.builds(
            lambda k, c: k(c),
            st.sampled_from([Not, Next, WeakNext, Yesterday, WeakYesterday]),
            children,
        )
        binary = st.builds(
            lambda k, l, r: k(l, r),
            st.sampled_from([And, Or, Until, Release, Since, Trigger]),
            children,
            children,
        )
        bounded = st.builds(
            lambda k, l, r, b: k(l, r, b),
            st.sampled_from([Until, Release, Since, Trigger]),
            children,
            children,
            st.integers(0, 9),
        )
        return unary | binary | bounded

    return st.recursive(atoms(), extend, max_leaves=max_leaves)


class TestParse:
    def test_example_round_trip(self):
        f = parse("(a U[3] b) & ! c")
        assert f == And(Until(Atom("a"), Atom("b"), 3), Not(Atom("c")))
        assert format_formula(f) == "((a U[3] b) & (! c))"

    def test_precedence_unary_tightest(self):
        assert parse("! X a") == Not(Next(Atom("a")))
        assert parse("X ! a") == Next(Not(Atom("a")))
        assert parse("! a & b") == And(Not(Atom("a")), Atom("b"))

    def test_precedence_and_over_or(self):
        assert parse("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
        assert parse("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_precedence_temporal_loosest(self):
        f = parse("a & b | c U d")
        assert f == Until(Or(And(Atom("a"), Atom("b")), Atom("c")), Atom("d"))

    def test_binaries_right_associative(self):
        assert parse("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))
        assert parse("a & b & c") == And(Atom("a"), And(Atom("b"), Atom("c")))
        assert parse("a | b | c") == Or(Atom("a"), Or(Atom("b"), Atom("c")))

    def test_mixed_temporal_right_associative(self):
        assert parse("a U b S c") == Until(Atom("a"), Since(Atom("b"), Atom("c")))

    def test_all_binary_tokens(self):
        assert parse("a R b") == Release(Atom("a"), Atom("b"))
        assert parse("a S b") == Since(Atom("a"), Atom("b"))
        assert parse("a T b") == Trigger(Atom("a"), Atom("b"))
        assert parse("a R[2] b") == Release(Atom("a"), Atom("b"), 2)
        assert parse("a S[0] b") == Since(Atom("a"), Atom("b"), 0)
        assert parse("a T[10] b") == Trigger(Atom("a"), Atom("b"), 10)

    def test_unary_tokens(self):
        assert parse("wX a") == WeakNext(Atom("a"))
        assert parse("Y a") == Yesterday(Atom("a"))
        assert parse("wY a") == WeakYesterday(Atom("a"))

    def test_true_false_keywords(self):
        assert parse("true") == Atom(TRUE_NAME)
        assert parse("false") == Atom(FALSE_NAME)

    def test_sugar(self):
        assert parse("F a") == Until(Atom(TRUE_NAME), Atom("a"))
        assert parse("G a") == Release(Atom(FALSE_NAME), Atom("a"))
        assert parse("O a") == Since(Atom(TRUE_NAME), Atom("a"))
        assert parse("H a") == Trigger(Atom(FALSE_NAME), Atom("a"))
        assert parse("F[4] a") == Until(Atom(TRUE_NAME), Atom("a"), 4)
        assert parse("G[0] a") == Release(Atom(FALSE_NAME), Atom("a"), 0)
        assert parse("O[2] a") == Since(Atom(TRUE_NAME), Atom("a"), 2)
        assert parse("H[7] a") == Trigger(Atom(FALSE_NAME), Atom("a"), 7)

    def test_keywords_not_atoms(self):
        # a formula that is just "U" is a missing operand, not an atom
        with pytest.raises(ParseError):
            parse("U")

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("a U", 1, 4),
            ("(a", 1, 3),
            ("a $ b", 1, 3),
            ("a U[x] b", 1, 5),
            ("X[2] a", 1, 2),
            ("a b", 1, 3),
            ("", 1, 1),
            ("a &\n& b", 2, 1),
            # tabs and CRs are one column each; only LF starts a line
            ("a &\t\r\n\t(b U\r\n  c) $", 3, 6),
            ("\t\ta U\r\n\r\n\t b c", 3, 5),
            ("a &\r\n\t", 2, 2),
            ("X\t\r[3]\n a", 1, 4),
        ],
    )
    def test_errors_carry_position(self, text, line, col):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line
        assert exc.value.col == col
        assert f"{line}:{col}:" in str(exc.value)

    @pytest.mark.parametrize(
        "text,line,col",
        [
            ("a \t\n  b", 2, 3),
            ("(a\n\n   U", 3, 5),
            ("a U\r\n\r\n  b c", 3, 5),
            ("\r\n  (a &\r\n\t b) )", 3, 6),
            ("a &  \t\n", 2, 1),
            ("  \t X[3]   a", 1, 6),
            ("a U [3 x", 1, 8),
            ("\n\n\n   ! ", 4, 6),
            ("  a   R[2]\t\t&", 1, 13),
            ("(a\r\n|\r\n b", 3, 3),
            ("   ", 1, 4),
        ],
    )
    def test_error_positions_after_blank_runs(self, text, line, col):
        # the token after a run of blanks, tabs and newlines, or the end of
        # input after one, is where the error points
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3", "1:1: expected a formula, got '3'"),
            ("a & )", "1:5: expected a formula, got ')'"),
            ("! [1] a", "1:3: expected a formula, got '['"),
            ("!X[1] a", "1:3: operator X does not take a bound"),
            ("wY[0] a", "1:3: operator wY does not take a bound"),
            ("U", "1:1: keyword 'U' cannot be used as a proposition"),
            ("a U[b] c", "1:5: bound must be a decimal natural, got 'b'"),
            ("a U[2 b", "1:7: expected ']', got 'b'"),
            ("(a | 12)", "1:6: expected a formula, got '12'"),
            ("a S[3]] b", "1:7: expected a formula, got ']'"),
            ("true U[0x1] b", "1:9: expected ']', got 'x1'"),
        ],
    )
    def test_error_messages_by_token_class(self, text, message):
        # identifiers, naturals and punctuation marks are told apart by
        # their text: a prefix word takes no bound, "!" is no operand
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_blanks_inside_a_bound(self):
        assert parse("a U[ \n 3 ] b") == parse("a U[3] b")

    @pytest.mark.parametrize("op", ["U", "R", "S", "T"])
    def test_bound_zero_is_not_unbounded(self, op):
        assert parse(f"a {op}[0] b") != parse(f"a {op} b")
        assert parse(f"a {op}[0] b").bound == 0
        assert parse(f"a {op} b").bound is None

    @pytest.mark.parametrize("bound", [None, 0, 7])
    @pytest.mark.parametrize("cls,tok", [(Until, "U"), (Release, "R"), (Since, "S"), (Trigger, "T")])
    def test_temporal_round_trip(self, cls, tok, bound):
        f = cls(Atom("a"), Atom("b"), bound)
        text = f"(a {tok} b)" if bound is None else f"(a {tok}[{bound}] b)"
        assert format_formula(f) == text
        assert parse(text) == f
        if bound is None:
            assert f == cls(Atom("a"), Atom("b"))

    def test_nested_parens(self):
        assert parse("((((a))))") == Atom("a")

    @settings(max_examples=200)
    @given(formulas())
    def test_print_parse_round_trip(self, f):
        assert parse(format_formula(f)) == f


class TestPnf:
    def test_example(self):
        assert to_pnf(parse("! (a U b)")) == Release(Not(Atom("a")), Not(Atom("b")))

    def test_bounded_duality_keeps_bound(self):
        assert to_pnf(parse("! (a U[5] b)")) == Release(
            Not(Atom("a")), Not(Atom("b")), 5
        )
        assert to_pnf(parse("! (a T[2] b)")) == Since(
            Not(Atom("a")), Not(Atom("b")), 2
        )

    def test_duality_keeps_unbounded_and_zero_apart(self):
        assert to_pnf(parse("! (a U b)")).bound is None
        assert to_pnf(parse("! (a U[0] b)")).bound == 0

    def test_unary_duality(self):
        assert to_pnf(parse("! X a")) == WeakNext(Not(Atom("a")))
        assert to_pnf(parse("! wY a")) == Yesterday(Not(Atom("a")))

    def test_double_negation(self):
        assert to_pnf(parse("! ! a")) == Atom("a")

    def test_de_morgan(self):
        assert to_pnf(parse("! (a & b)")) == Or(Not(Atom("a")), Not(Atom("b")))

    @settings(max_examples=200)
    @given(formulas())
    def test_result_is_pnf_and_idempotent(self, f):
        g = to_pnf(f)
        assert fold_is_pnf(g)
        assert to_pnf(g) == g

    def test_is_pnf(self):
        assert fold_is_pnf(parse("! a & b"))
        assert not fold_is_pnf(parse("! (a & b)"))
        assert not fold_is_pnf(parse("! ! a"))


class TestPrune:
    def test_example(self):
        assert prune_bounds(parse("a U[9] b"), 2) == Until(Atom("a"), Atom("b"), 2)

    def test_no_change_when_small(self):
        f = parse("a U[2] b")
        assert prune_bounds(f, 5) == f

    def test_recurses(self):
        f = parse("(a S[7] b) | X (a R[9] b)")
        g = prune_bounds(f, 3)
        assert g == parse("(a S[3] b) | X (a R[3] b)")

    def test_unbounded_stays_unbounded(self):
        f = parse("(a U b) & (c S[0] d)")
        g = prune_bounds(f, 1)
        assert g == f
        assert g.left.bound is None
        assert g.right.bound == 0

    def test_rejects_empty_trace_length(self):
        with pytest.raises(FormulaError):
            prune_bounds(parse("a"), 0)

    @settings(max_examples=100)
    @given(formulas(), st.integers(1, 6))
    def test_idempotent(self, f, n):
        assert prune_bounds(prune_bounds(f, n), n) == prune_bounds(f, n)


class TestSize:
    def test_examples(self):
        assert fold_size(parse("a")) == 1
        assert fold_size(parse("! a")) == 2
        assert fold_size(parse("X a")) == 2
        assert fold_size(parse("a U b")) == 3
        assert fold_size(parse("a U[3] b")) == 6  # bounded operator counts 1 + bound

    def test_bounded_zero(self):
        assert fold_size(parse("a U[0] b")) == 3

    @pytest.mark.parametrize("cls", [Until, Release, Since, Trigger])
    def test_unbounded_counts_one(self, cls):
        assert fold_size(cls(Atom("a"), Atom("b"))) == 3
        assert fold_size(cls(Atom("a"), Atom("b"), None)) == 3
        assert fold_size(cls(Atom("a"), Atom("b"), 7)) == 10


class TestLiterals:
    def test_is_literal(self):
        assert is_literal(Atom("p"))
        assert is_literal(Not(Atom("p")))
        assert not is_literal(Not(Not(Atom("p"))))
        assert not is_literal(parse("a & b"))


def test_atom_names():
    assert atom_names(parse("(a U[2] b) & ! c | F d")) == {"a", "b", "c", "d", TRUE_NAME}


class TestDeepFormulas:
    """Equality, hashing, repr and pickling walk the formula over a stack."""

    DEEP = {
        "next_chain": "X " * 3000 + "a",
        "until_chain": " U ".join(f"p{i}" for i in range(2001)),
    }

    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_deep_formula_methods(self, name):
        f, g = parse(self.DEEP[name]), parse(self.DEEP[name])
        assert f is not g and f == g and not f != g
        assert hash(f) == hash(g)
        assert repr(f) == repr(g) and len(repr(f)) > 6000
        back = pickle.loads(pickle.dumps(f))
        assert back == f and hash(back) == hash(f)
        assert parse(self.DEEP[name] + " & b") != f

    def test_equality_is_class_sensitive(self):
        a, b = Atom("a"), Atom("b")
        assert Until(a, b) != Release(a, b)
        assert And(a, b) != Or(a, b)
        assert Next(a) != WeakNext(a)
        assert Until(a, b, 0) != Until(a, b)
        assert Until(a, b, None) == Until(a, b)
        assert Until(a, b, 3) == Until(a, b, 3) != Until(a, b, 4)
        assert Atom("a") != "a" and Atom("a") == Atom("a")

    def test_repr_is_the_dataclass_repr(self):
        assert repr(parse("(a U[2] !b) & X c")) == (
            "And(left=Until(left=Atom(name='a'), right=Not(child=Atom(name='b')), bound=2), "
            "right=Next(child=Atom(name='c')))"
        )
        assert repr(parse("a S b")) == "Since(left=Atom(name='a'), right=Atom(name='b'), bound=None)"

    @settings(max_examples=200, deadline=None)
    @given(formulas(), formulas())
    def test_methods_agree_with_structure(self, f, g):
        same = format_formula(f) == format_formula(g)
        assert (f == g) == same
        if same:
            assert hash(f) == hash(g)
        back = pickle.loads(pickle.dumps(f))
        assert back == f and type(back) is type(f) and repr(back) == repr(f)


def deep_chain(n, last="z", inner=Until, bound=None):
    """`p0 U (p1 & (p2 U ... (p(n-2) inner[bound] last)))`: n atoms, n - 1
    deep, built bottom-up in a loop."""
    f = inner(Atom(f"p{n - 2}"), Atom(last), bound)
    for i in range(n - 3, -1, -1):
        f = (And if i % 2 else Until)(Atom(f"p{i}"), f)
    return f


class TestDeepInequality:
    """Equality walks both trees in lockstep over one stack: formulas 10^5
    deep that differ only in their innermost node compare unequal, and equal
    ones equal, without a RecursionError."""

    N = 100_000

    @pytest.mark.parametrize("change", [{"last": "y"}, {"bound": 0}, {"inner": Release}],
                             ids=["last_atom", "bound", "class"])
    def test_differ_only_innermost(self, change):
        f, g = deep_chain(self.N), deep_chain(self.N, **change)
        assert f != g and not f == g and g != f
        assert f == deep_chain(self.N) and g == deep_chain(self.N, **change)


# `fold_atom_names` is the referee of the flat `atom_names`; `fold_size` and
# `fold_is_pnf` are the tests' own formula size and PNF test.
def fold_atom_names(f):
    return fold(
        f,
        lambda node, neg: {node.name},
        lambda node, child, neg: child,
        lambda node, left, right, neg: left | right,
    )


def fold_size(f):
    return fold(
        f,
        lambda node, neg: 1,
        lambda node, child, neg: 1 + child,
        lambda node, left, right, neg: 1 + left + right + (0 if node.bound is None else node.bound),
    )


def fold_is_pnf(f):
    return fold(
        f,
        lambda node, neg: True,
        lambda node, child, neg: type(node.child) is Atom if type(node) is Not else child,
        lambda node, left, right, neg: left and right,
    )


class TestNodeList:
    """`atom_names` reads `Formula._nodes`, as `hash` and pickling do
    (`TestDeepFormulas.test_methods_agree_with_structure`)."""

    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_readers_match_the_fold_referee(self, f):
        assert atom_names(f) == fold_atom_names(f)

    def test_nodes_decode_to_one_tree(self):
        f = parse("(a U[2] ! b) & X (c S d)")
        assert f._nodes() == [
            (Atom, "d"), (Atom, "c"), (Since, None), (Next, None),
            (Atom, "b"), (Not, None), (Atom, "a"), (Until, 2), (And, None),
        ]
        assert pickle.loads(pickle.dumps(f)) == f
        assert fold_is_pnf(f)
        assert not fold_is_pnf(parse("! X a")) and not fold_is_pnf(parse("a & ! ! b"))
