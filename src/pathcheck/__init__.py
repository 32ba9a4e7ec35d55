"""Finite-trace checking for temporal formulas with past and bounded
operators, via trace-specialized monotone circuits and tree contraction."""

from .errors import (
    BuildError,
    CircuitError,
    ContractionError,
    FormulaError,
    ParseError,
    PathcheckError,
    TraceError,
    UnknownProposition,
)
from .formula import (
    Atom,
    And,
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
from .trace import Trace, atom_sequence, load_trace, make_trace, to_csv
from .semantics import eval_seq
from .circuit import to_dot
from .rows import Label, apply, compose_evaluated, identity
from .builder import (
    build_boolean,
    build_bounded,
    build_shift,
    build_unbounded,
)
from .contraction import (
    CheckResult,
    ContractionRecord,
    ContractionTree,
    check,
    init_tree,
    run_contraction,
)

__version__ = "0.1.0"
