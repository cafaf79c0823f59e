"""scatcalc: a symbolic calculus for scattered continuous functions
between zero-dimensional separable metrizable spaces, decided up to
continuous reducibility on the fragments the rule engine covers."""

from .ordinal import (
    Ordinal,
    add,
    classify,
    cmp_ordinal,
    double,
    format_ordinal,
    parse_ordinal,
    pred_if_successor,
    split,
    succ,
    sup,
)
from .term import (
    EMPTY,
    Empty,
    Glue,
    ID_BAIRE,
    ID_Q,
    IdBaire,
    IdQ,
    MaxFn,
    MinFn,
    ONE,
    Omega,
    One,
    PglSet,
    Term,
    Wedge,
    copies,
    format_term,
    glue,
    omega,
    parse_term,
    pgl,
    syntactic_cmp,
    term_size,
)
from .rank import CbType, OMEGA_DEGREE, cb_type, is_centered, is_compact_domain, is_simple
from .rewrite import apply_rule, normalize
from .compare import Engine, Outcome, Verdict, le_compact
from .generators import centered_set, generator_set, hasse, six_generators
from .oracle import FiniteFn, brute_force_le, image_formula_le, term_of

__all__ = [name for name in dir() if not name.startswith("_")]
