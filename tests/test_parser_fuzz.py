"""Grammar fuzz for the two text parsers.

Token soup — the grammar's own tokens, runs of openers as deep as the
nesting cap, stray characters — goes through ``boolean.parse`` and
``constraints.parse_system``.  The contract: a formula or a system comes
back, or a ``ReproError`` subclass is raised; nothing else
(``RecursionError``, ``IndexError``, ``TypeError`` …) escapes.  A formula
the parser accepts also lifts to a BDD and evaluates.
"""

from hypothesis import given, settings, strategies as st

from repro.boolean.parser import parse
from repro.boolean.bdd import Bdd
from repro.boolean.parser import MAX_DEPTH
from repro.boolean.semantics import evaluate
from repro.constraints.parser import parse_system
from repro.errors import ReproError
from tests.strategies import BITS8

FORMULA_TOKENS = (
    "(", ")", "~", "&", "|", "0", "1", "x", "y", "T", " ", "$",
    "(" * MAX_DEPTH, "~" * MAX_DEPTH,
)
CONSTRAINT_TOKENS = FORMULA_TOKENS + ("<=", "!<=", "!=", "=", "<", "!", ";", "\n", "#")


def _soup(tokens):
    return st.lists(st.sampled_from(tokens), max_size=24).map("".join)


@given(_soup(FORMULA_TOKENS))
@settings(max_examples=400, deadline=None)
def test_formula_parser_raises_only_repro_errors(text):
    try:
        f = parse(text)
    except ReproError:
        return
    Bdd().from_formula(f)
    evaluate(f, BITS8, dict.fromkeys(f.variables(), 0b1010_0110))


@given(_soup(CONSTRAINT_TOKENS))
@settings(max_examples=400, deadline=None)
def test_constraint_parser_raises_only_repro_errors(text):
    try:
        system = parse_system(text)
    except ReproError:
        return
    assert len(system) > 0
    system.normalize()
