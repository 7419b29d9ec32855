"""Tests for the term layer, consensus and Blake canonical form.

Includes the paper's worked BCF computation (Section 4, Example 2):
``f = x y + x'(y + z w)`` has ``BCF(f) = y + x' z w``.
"""

import pytest
from hypothesis import given, settings

from repro.boolean.blake import (
    blake_canonical_form,
    blake_le,
    is_implicant,
    is_prime_implicant,
    prime_implicants_bruteforce,
)
from repro.boolean.semantics import equivalent, implies
from repro.boolean.syntax import variables
from repro.boolean.terms import (
    Term,
    absorb,
    consensus,
    cover_to_formula,
    formula_to_cover,
    syllogistic_le,
)
from tests.test_boolean_semantics import formulas


def term(*literals: str) -> Term:
    """Build a term from literal strings: ``term('x', "~y")`` is ``x & ~y``.

    A leading ``~`` or trailing ``'`` marks a negative literal.
    """
    lits = {}
    for raw in literals:
        name, sign = raw, True
        if raw.startswith("~"):
            name, sign = raw[1:], False
        elif raw.endswith("'"):
            name, sign = raw[:-1], False
        if not name:
            raise ValueError(f"bad literal: {raw!r}")
        if lits.setdefault(name, sign) != sign:
            raise ValueError(f"complementary literals for {name!r}")
    return Term(lits)


class TestTerm:
    def test_builder_syntax(self):
        t = term("x", "~y", "z'")
        assert t.polarity("x") is True
        assert t.polarity("y") is False
        assert t.polarity("z") is False
        assert t.polarity("w") is None

    def test_builder_rejects_contradiction(self):
        with pytest.raises(ValueError):
            term("x", "~x")

    def test_empty_term_is_true(self):
        assert Term({}).is_true()
        assert Term({}).to_formula() == cover_to_formula([Term({})])

    def test_subterm_order(self):
        assert term("x").is_subterm_of(term("x", "y"))
        assert not term("x", "y").is_subterm_of(term("x"))
        assert not term("x").is_subterm_of(term("~x"))

    def test_conjoin(self):
        assert term("x").conjoin(term("y")) == term("x", "y")
        assert term("x").conjoin(term("~x")) is None

    def test_positive_negative_parts(self):
        t = term("x", "~y", "z")
        assert t.positive_part() == term("x", "z")
        assert t.negative_part() == term("~y")

    def test_without_and_with_literal(self):
        t = term("x", "y")
        assert t.without("x") == term("y")
        assert t.with_literal("z", False) == term("x", "y", "~z")
        assert t.with_literal("x", False) is None

    def test_to_str(self):
        assert term("x", "~y").to_str() == "x.y'"
        assert Term({}).to_str() == "1"

    def test_evaluate(self):
        t = term("x", "~y")
        assert t.evaluate({"x": True, "y": False})
        assert not t.evaluate({"x": True, "y": True})


class TestConsensus:
    def test_paper_rule(self):
        # x p, x' q -> p q
        t1 = term("x", "p")
        t2 = term("~x", "q")
        assert consensus(t1, t2) == term("p", "q")

    def test_no_opposition(self):
        assert consensus(term("x", "y"), term("x", "z")) is None

    def test_double_opposition(self):
        assert consensus(term("x", "y"), term("~x", "~y")) is None

    def test_contradictory_result(self):
        assert consensus(term("x", "y"), term("~x", "~y", "z")) is None

    def test_consensus_is_implied(self):
        t1, t2 = term("x", "y"), term("~x", "z")
        c = consensus(t1, t2)
        f = cover_to_formula([t1, t2])
        assert implies(c.to_formula(), f)


class TestAbsorb:
    def test_absorption_rule(self):
        # p + p q = p
        kept = absorb([term("p"), term("p", "q")])
        assert kept == [term("p")]

    def test_keeps_incomparable(self):
        kept = absorb([term("x", "y"), term("x", "z")])
        assert set(kept) == {term("x", "y"), term("x", "z")}

    def test_removes_duplicates(self):
        assert absorb([term("x"), term("x")]) == [term("x")]


class TestFormulaToCover:
    def test_distribution(self):
        x, y, z = variables("x", "y", "z")
        cover = formula_to_cover(x & (y | z))
        assert set(cover) == {term("x", "y"), term("x", "z")}

    def test_negation_pushed(self):
        x, y = variables("x", "y")
        cover = formula_to_cover(~(x | y))
        assert set(cover) == {term("~x", "~y")}

    def test_contradictions_dropped(self):
        x, y = variables("x", "y")
        cover = formula_to_cover(x & ~x)
        assert cover == []

    @given(formulas())
    @settings(max_examples=100)
    def test_cover_equivalent_to_formula(self, f):
        assert equivalent(cover_to_formula(formula_to_cover(f)), f)


class TestBlake:
    def test_paper_example_2(self):
        x, y, z, w = variables("x", "y", "z", "w")
        f = (x & y) | (~x & (y | (z & w)))
        bcf = blake_canonical_form(f)
        assert set(bcf) == {term("y"), term("~x", "z", "w")}

    def test_constants(self):
        from repro.boolean.syntax import FALSE, TRUE

        assert blake_canonical_form(FALSE) == []
        assert blake_canonical_form(TRUE) == [Term({})]

    def test_classic_consensus_example(self):
        # x y + x' z has the consensus prime y z.
        x, y, z = variables("x", "y", "z")
        bcf = blake_canonical_form((x & y) | (~x & z))
        assert set(bcf) == {term("x", "y"), term("~x", "z"), term("y", "z")}

    def test_every_bcf_term_is_prime(self):
        x, y, z = variables("x", "y", "z")
        f = (x & y) | (~x & z) | (y & ~z)
        for t in blake_canonical_form(f):
            assert is_prime_implicant(t, f)

    @given(formulas(max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_bcf_equals_bruteforce_primes(self, f):
        assert set(blake_canonical_form(f)) == set(
            prime_implicants_bruteforce(f)
        )

    @given(formulas())
    @settings(max_examples=80, deadline=None)
    def test_bcf_denotes_f(self, f):
        assert equivalent(cover_to_formula(blake_canonical_form(f)), f)


class TestTheorem18:
    """Blake: for SOP g, ``g <= f`` iff g is formally included in BCF(f)."""

    @given(formulas(max_leaves=6), formulas(max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_syllogistic_matches_semantic(self, g, f):
        g_cover = formula_to_cover(g)
        assert blake_le(g_cover, f) == implies(
            cover_to_formula(g_cover), f
        )

    def test_syllogistic_le_direct(self):
        # x y << x
        assert syllogistic_le([term("x", "y")], [term("x")])
        assert not syllogistic_le([term("x")], [term("x", "y")])


class TestImplicantPredicates:
    def test_is_implicant(self):
        x, y = variables("x", "y")
        assert is_implicant(term("x", "y"), x)
        assert not is_implicant(term("y"), x)

    def test_is_prime_implicant(self):
        x, y = variables("x", "y")
        f = x | y
        assert is_prime_implicant(term("x"), f)
        assert not is_prime_implicant(term("x", "y"), f)
