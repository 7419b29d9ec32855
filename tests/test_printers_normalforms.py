"""Tests for the printer and the error hierarchy."""

from hypothesis import given, settings

from repro.boolean.printer import to_str
from repro.boolean.syntax import variables
from tests.test_boolean_semantics import formulas


class TestPrinters:
    def setup_method(self):
        self.x, self.y, self.z = variables("x", "y", "z")

    def test_to_str_precedence(self):
        assert to_str(self.x & (self.y | self.z)) == "x & (y | z)"
        # canonical arg order puts plain variables before compounds
        assert to_str((self.x & self.y) | self.z) == "z | x & y"
        assert to_str(~(self.x & self.y)) == "~(x & y)"

    @given(formulas())
    @settings(max_examples=60)
    def test_printers_total(self, f):
        # The printer renders every formula without crashing.
        assert to_str(f)


class TestErrorsModule:
    def test_hierarchy(self):
        from repro.errors import (
            CompilationError,
            DimensionMismatchError,
            ParseError,
            ReproError,
            UnboundVariableError,
            UniverseMismatchError,
            UnsatisfiableError,
        )

        for exc in (
            ParseError,
            DimensionMismatchError,
            UniverseMismatchError,
            UnsatisfiableError,
            CompilationError,
            UnboundVariableError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(UnboundVariableError, CompilationError)

    def test_parse_error_payload(self):
        from repro.errors import ParseError

        e = ParseError("bad", text="x $ y", position=2)
        assert e.text == "x $ y" and e.position == 2
