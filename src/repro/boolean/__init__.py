"""Symbolic Boolean formula substrate.

Exports the formula AST, parser/printers, two-valued semantics, normal
forms, the term layer, Blake canonical form (Section 4 of the paper), a
BDD engine and a semantic simplifier.
"""

from .blake import (
    bcf_formula,
    blake_canonical_form,
    blake_le,
    is_implicant,
    is_prime_implicant,
    prime_implicants_bruteforce,
)
from .bdd import Bdd, bdd_equivalent, bdd_implies
from .implicates import (
    Clause,
    implicates_formula,
    is_implicate,
    is_prime_implicate,
    lower_atoms_via_implicates,
    prime_implicates,
)
from .normal_forms import (
    from_minterms,
    is_dnf,
    is_nnf,
    minterms,
    sop_terms,
    to_cnf,
    to_dnf,
    to_nnf,
)
from .parser import parse
from .printer import to_compact, to_str, to_unicode
from .quine import prime_implicants_qmc
from .semantics import (
    count_satisfying,
    equivalent,
    equivalent_under,
    eval_bool,
    evaluate,
    implies,
    is_contradiction,
    is_tautology,
    satisfying_assignments,
    truth_table,
)
from .simplify import (
    simplify,
    simplify_under,
)
from .syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    Formula,
    Not,
    Or,
    Var,
    conj,
    disj,
    formula,
    neg,
    rename,
    var,
    variables,
)
from .terms import (
    Term,
    absorb,
    consensus,
    cover_to_formula,
    formula_to_cover,
    syllogistic_le,
    term,
)

__all__ = [
    "And", "Bdd", "Const", "FALSE", "Formula", "Not", "Or", "TRUE", "Term",
    "Var", "absorb", "bcf_formula", "bdd_equivalent", "bdd_implies",
    "blake_canonical_form", "blake_le", "Clause", "conj",
    "consensus", "count_satisfying", "cover_to_formula", "disj",
    "equivalent", "equivalent_under", "eval_bool", "evaluate", "formula",
    "formula_to_cover", "from_minterms", "implies", "is_contradiction",
    "is_dnf", "is_implicant", "is_nnf", "is_prime_implicant",
    "implicates_formula", "is_implicate", "is_prime_implicate",
    "is_tautology", "lower_atoms_via_implicates", "minterms", "neg",
    "parse", "prime_implicants_bruteforce", "prime_implicates",
    "prime_implicants_qmc", "rename", "satisfying_assignments", "simplify",
    "simplify_under",
    "sop_terms", "syllogistic_le", "term", "to_cnf", "to_compact", "to_dnf",
    "to_nnf", "to_str", "to_unicode", "truth_table", "var", "variables",
]
