"""scatcalc: a symbolic calculus for scattered continuous functions
between zero-dimensional separable metrizable spaces, decided up to
continuous reducibility on the fragments the rule engine covers.

The package exports the names below, and its submodules by name, but
imports nothing until a name is first read: ``from scatcalc import
Engine`` loads ``compare`` and what it needs, and the command line
(``scatcalc.cli``) loads only the layers a command runs.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "ordinal": (
        "Ordinal", "add", "classify", "cmp_ordinal", "double", "format_ordinal",
        "parse_ordinal", "pred_if_successor", "split", "succ", "sup",
    ),
    "term": (
        "EMPTY", "Empty", "Glue", "ID_BAIRE", "ID_Q", "IdBaire", "IdQ", "MaxFn",
        "MinFn", "ONE", "Omega", "One", "PglSet", "Term", "Wedge", "copies",
        "format_term", "glue", "omega", "parse_term", "pgl", "syntactic_cmp",
        "term_size",
    ),
    "rank": (
        "CbType", "OMEGA_DEGREE", "cb_type", "is_centered", "is_compact_domain",
        "is_simple",
    ),
    "rewrite": ("apply_rule", "normalize"),
    "compare": ("Engine", "Outcome", "Verdict", "le_compact"),
    "generators": ("centered_set", "generator_set", "hasse", "six_generators"),
    "oracle": ("FiniteFn", "brute_force_le", "image_formula_le", "term_of"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
