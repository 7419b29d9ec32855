"""Boolean-algebra law tests across every carrier.

The whole of Section 3 of the paper quantifies over Boolean algebras; the
carriers must actually *be* Boolean algebras.  Laws are checked with
hypothesis on random elements of each carrier.
"""

import pytest
from hypothesis import given, settings

from repro.algebra.bitvec import BitVectorAlgebra
from repro.algebra.lindenbaum import FreeBooleanAlgebra
from repro.algebra.powerset import PowersetAlgebra
from tests.algebra_laws import (
    absorption,
    associativity,
    check_all_laws,
    commutativity,
    complementation,
    de_morgan,
    distributivity,
    identity_elements,
    involution,
    le_is_partial_order,
    split_law,
)
from tests.strategies import (
    B2,
    BITS8,
    LINE,
    PLANE,
    SETS,
    bitvec_elements,
    interval_elements,
    powerset_elements,
    region_elements,
)


class TestTwoValued:
    def test_exhaustive_laws(self):
        check_all_laws(B2, B2.elements())

    def test_le(self):
        assert B2.le(False, True)
        assert not B2.le(True, False)

    def test_not_atomless(self):
        assert not B2.is_atomless()
        with pytest.raises(NotImplementedError):
            B2.split(True)


class TestBitVector:
    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            BitVectorAlgebra(0)

    def test_exhaustive_small(self):
        alg = BitVectorAlgebra(3)
        check_all_laws(alg, list(alg.elements()))

    def test_atoms(self):
        alg = BitVectorAlgebra(4)
        assert list(alg.atoms()) == [1, 2, 4, 8]
        assert alg.is_atom(2)
        assert not alg.is_atom(3)
        assert not alg.is_atom(0)

    def test_split(self):
        alg = BitVectorAlgebra(4)
        lo, rest = alg.split(0b1010)
        assert lo | rest == 0b1010 and lo & rest == 0
        with pytest.raises(ValueError):
            alg.split(0b0100)

    @given(bitvec_elements(), bitvec_elements(), bitvec_elements())
    @settings(max_examples=60)
    def test_laws_random(self, a, b, c):
        assert associativity(BITS8, a, b, c)
        assert distributivity(BITS8, a, b, c)
        assert commutativity(BITS8, a, b)
        assert de_morgan(BITS8, a, b)
        assert complementation(BITS8, a)
        assert involution(BITS8, a)
        assert identity_elements(BITS8, a)
        assert absorption(BITS8, a, b)
        assert le_is_partial_order(BITS8, a, b)


class TestPowerset:
    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            list(PowersetAlgebra(range(20)).elements())

    def test_atoms_are_singletons(self):
        alg = PowersetAlgebra({"a", "b"})
        assert sorted(alg.atoms(), key=sorted) == [
            frozenset({"a"}),
            frozenset({"b"}),
        ]

    def test_split_atom_fails(self):
        with pytest.raises(ValueError):
            SETS.split(frozenset([0]))

    @given(powerset_elements(), powerset_elements(), powerset_elements())
    @settings(max_examples=60)
    def test_laws_random(self, a, b, c):
        assert associativity(SETS, a, b, c)
        assert distributivity(SETS, a, b, c)
        assert de_morgan(SETS, a, b)
        assert complementation(SETS, a)
        assert absorption(SETS, a, b)


class TestFreeAlgebra:
    def test_generators(self):
        alg = FreeBooleanAlgebra(["x", "y"])
        x, y = alg.generator("x"), alg.generator("y")
        assert not alg.eq(x, y)
        assert alg.is_zero(alg.meet(x, alg.complement(x)))
        assert alg.eq(alg.join(x, alg.complement(x)), alg.top)

    def test_unknown_generator(self):
        alg = FreeBooleanAlgebra(["x"])
        with pytest.raises(KeyError):
            alg.generator("q")

    def test_atoms_are_minterms(self):
        alg = FreeBooleanAlgebra(["x", "y"])
        x, y = alg.generator("x"), alg.generator("y")
        minterm = alg.meet(x, alg.complement(y))
        assert alg.is_atom(minterm)
        assert not alg.is_atom(x)

    def test_from_formula(self):
        from repro.boolean.syntax import variables

        x, y = variables("x", "y")
        alg = FreeBooleanAlgebra(["x", "y"])
        assert alg.eq(
            alg.from_formula(x & y), alg.meet(alg.generator("x"), alg.generator("y"))
        )
        with pytest.raises(KeyError):
            alg.from_formula(variables("q")[0])


class TestIntervalAlgebraLaws:
    @given(interval_elements(), interval_elements(), interval_elements())
    @settings(max_examples=80)
    def test_laws_random(self, a, b, c):
        assert associativity(LINE, a, b, c)
        assert distributivity(LINE, a, b, c)
        assert commutativity(LINE, a, b)
        assert de_morgan(LINE, a, b)
        assert complementation(LINE, a)
        assert involution(LINE, a)
        assert absorption(LINE, a, b)
        assert le_is_partial_order(LINE, a, b)

    @given(interval_elements())
    @settings(max_examples=60)
    def test_atomless_split(self, a):
        assert LINE.is_atomless()
        assert split_law(LINE, a)


class TestRegionAlgebraLaws:
    @given(region_elements(), region_elements(), region_elements())
    @settings(max_examples=50, deadline=None)
    def test_laws_random(self, a, b, c):
        assert associativity(PLANE, a, b, c)
        assert distributivity(PLANE, a, b, c)
        assert commutativity(PLANE, a, b)
        assert de_morgan(PLANE, a, b)
        assert complementation(PLANE, a)
        assert involution(PLANE, a)
        assert absorption(PLANE, a, b)
        assert le_is_partial_order(PLANE, a, b)

    @given(region_elements())
    @settings(max_examples=50, deadline=None)
    def test_atomless_split(self, a):
        assert PLANE.is_atomless()
        assert split_law(PLANE, a)


class TestOpCounters:
    def test_counting_and_reset(self):
        alg = BitVectorAlgebra(4)
        alg.meet(3, 5)
        alg.join(3, 5)
        alg.complement(3)
        assert alg.ops.meet == 1
        assert alg.ops.join == 1
        assert alg.ops.complement == 1
        assert alg.ops.total >= 3
        snap = alg.ops.snapshot()
        assert snap["meet"] == 1
        alg.ops.reset()
        assert alg.ops.total == 0
