"""Pretty printer for Boolean formulas.

:func:`to_str` renders ASCII that round-trips through
:mod:`repro.boolean.parser` (``~x & (y | z)``).

Operator precedence (loosest to tightest): ``|``, ``&``, ``~``.
Parentheses are emitted only where required.
"""

from __future__ import annotations

from .syntax import And, Const, Formula, Not, Or, Var

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3


def _render(f: Formula, parent_prec: int) -> str:
    if isinstance(f, Const):
        return "1" if f.value else "0"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return "~" + _render(f.arg, _PREC_NOT)
    if isinstance(f, And):
        body = " & ".join(_render(a, _PREC_AND) for a in f.args)
        return f"({body})" if parent_prec > _PREC_AND else body
    if isinstance(f, Or):
        body = " | ".join(_render(a, _PREC_OR) for a in f.args)
        return f"({body})" if parent_prec > _PREC_OR else body
    raise TypeError(f"not a formula: {f!r}")


def to_str(f: Formula) -> str:
    """Render ``f`` in the parser's ASCII syntax."""
    return _render(f, 0)
