"""Tests for prime implicates — the dual of the Blake canonical form."""

import pytest
from hypothesis import given, settings

from repro.boolean.blake import blake_canonical_form
from repro.boolean.implicates import (
    Clause,
    is_implicate,
    is_prime_implicate,
    lower_atoms_via_implicates,
    prime_implicates,
)
from repro.boolean.semantics import equivalent
from repro.boolean.syntax import FALSE, TRUE, conj, variables
from tests.test_boolean_semantics import formulas


class TestClause:
    def test_builder_and_polarity(self):
        c = Clause.of({"x": True, "y": False})
        assert c.polarity("x") is True
        assert c.polarity("y") is False
        assert c.polarity("z") is None
        assert len(c) == 2

    def test_to_formula(self):
        x, y = variables("x", "y")
        c = Clause.of({"x": True, "y": False})
        assert equivalent(c.to_formula(), x | ~y)

    def test_empty_clause_is_false(self):
        c = Clause.of({})
        assert equivalent(c.to_formula(), FALSE)
        assert c.to_str() == "0"

    def test_to_str(self):
        assert Clause.of({"x": True, "y": False}).to_str() == "x + y'"

    def test_equality_hash(self):
        a = Clause.of({"x": True})
        b = Clause.of({"x": True})
        assert a == b and hash(a) == hash(b)


class TestPrimeImplicates:
    def test_constants(self):
        assert prime_implicates(TRUE) == []
        got = prime_implicates(FALSE)
        assert len(got) == 1 and len(got[0]) == 0

    def test_conjunction(self):
        x, y = variables("x", "y")
        clauses = prime_implicates(x & y)
        assert {c.to_str() for c in clauses} == {"x", "y"}

    def test_consensus_dual(self):
        # (x∨y)(¬x∨z) has the resolvent implicate (y∨z).
        x, y, z = variables("x", "y", "z")
        f = (x | y) & (~x | z)
        clauses = prime_implicates(f)
        assert {c.to_str() for c in clauses} == {"x + y", "x' + z", "y + z"}

    @given(formulas(max_leaves=6))
    @settings(max_examples=80, deadline=None)
    def test_ccf_denotes_f(self, f):
        # The conjunctive canonical form: the conjunction of all prime
        # implicates denotes f.
        ccf = conj(*[c.to_formula() for c in prime_implicates(f)])
        assert equivalent(ccf, f)

    @given(formulas(max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_every_clause_is_prime(self, f):
        for c in prime_implicates(f):
            assert is_prime_implicate(c, f)

    def test_is_implicate(self):
        x, y = variables("x", "y")
        assert is_implicate(Clause.of({"x": True, "y": True}), x)
        assert not is_implicate(Clause.of({"y": True}), x)


class TestDualLowerAtoms:
    """Theorem 15 cross-check through the dual canonical form."""

    def test_paper_example(self):
        x, y, z, w = variables("x", "y", "z", "w")
        f = (x & y) | (~x & (y | (z & w)))
        assert lower_atoms_via_implicates(f) == ["y"]

    def test_tautology_raises(self):
        with pytest.raises(ValueError):
            lower_atoms_via_implicates(TRUE)

    def test_zero_has_no_atoms(self):
        assert lower_atoms_via_implicates(FALSE) == []

    @given(formulas(max_leaves=6))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_bcf_route(self, f):
        if equivalent(f, TRUE):
            return
        via_dual = set(lower_atoms_via_implicates(f))
        via_bcf = {
            next(iter(t.variables()))
            for t in blake_canonical_form(f)
            if len(t) == 1 and all(s for _v, s in t)
        }
        assert via_dual == via_bcf
