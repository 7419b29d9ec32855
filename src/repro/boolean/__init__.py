"""Symbolic Boolean formula substrate.

Holds the formula AST, the parser and printer, two-valued semantics, the
term layer, Blake canonical form (Section 4 of the paper), a BDD engine
and a semantic simplifier.
"""

from .blake import blake_canonical_form
from .parser import parse
from .printer import to_str
from .semantics import equivalent
from .syntax import FALSE, TRUE, Var, conj, disj, neg

__all__ = [
    "FALSE",
    "TRUE",
    "Var",
    "blake_canonical_form",
    "conj",
    "disj",
    "equivalent",
    "neg",
    "parse",
    "to_str",
]
