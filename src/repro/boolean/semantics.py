"""Semantics of Boolean formulas.

Two layers:

1. **Evaluation over an arbitrary Boolean algebra carrier** —
   :func:`evaluate` interprets a formula over any object implementing the
   :class:`repro.algebra.base.BooleanAlgebra` interface.  This is how the
   same symbolic machinery is run over bits, finite sets, intervals and
   k-dimensional regions.

2. **Two-valued (truth-table) reasoning** — :func:`is_contradiction`,
   :func:`equivalent`, :func:`implies`.
   A Boolean-function *identity* holds in **every** Boolean algebra iff it
   holds in the two-valued algebra B2 (a classical consequence of the
   Stone representation / the fact that free Boolean algebras are
   subdirect powers of B2).  The paper leans on this silently whenever it
   rewrites formulas; we lean on it explicitly for equivalence checking.

   Note the asymmetry stressed by the paper: *constraint systems with
   disequations* are NOT reducible to B2 — their entailment is decided
   over atomless algebras by :mod:`repro.constraints.decision`.  The
   functions here are only about formula-level identities.

Truth tables are represented as Python integers used as bit vectors over
the 2^n assignments of an ordered variable list, which makes conjunction
and disjunction single integer operations.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from .syntax import And, Const, Formula, Not, Or, Var


def evaluate(f: Formula, algebra, env: Mapping[str, object]):
    """Evaluate ``f`` over ``algebra`` with variable values ``env``.

    ``algebra`` must provide ``top``, ``bot``, ``meet``, ``join`` and
    ``complement``.  Raises ``KeyError`` for unbound variables.
    """
    if isinstance(f, Const):
        return algebra.top if f.value else algebra.bot
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Not):
        return algebra.complement(evaluate(f.arg, algebra, env))
    if isinstance(f, And):
        acc = algebra.top
        for a in f.args:
            acc = algebra.meet(acc, evaluate(a, algebra, env))
        return acc
    if isinstance(f, Or):
        acc = algebra.bot
        for a in f.args:
            acc = algebra.join(acc, evaluate(a, algebra, env))
        return acc
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Integer truth tables
# ---------------------------------------------------------------------------


def _var_pattern(k: int, n: int) -> int:
    """Bit-vector of assignments (over n vars) where variable k is true."""
    # Repeating pattern: 2^k zeros then 2^k ones, repeated.
    ones = (1 << (1 << k)) - 1  # 2^k one-bits
    chunk = ones << (1 << k)  # zeros then ones, width 2^(k+1)
    width = 1 << (k + 1)
    total = 1 << n
    pattern = 0
    offset = 0
    while offset < total:
        pattern |= chunk << offset
        offset += width
    mask = (1 << total) - 1
    return pattern & mask


def truth_table_fast(f: Formula, order: Sequence[str]) -> int:
    """Truth table of ``f`` as an integer bit vector.

    Bit ``i`` of the result is the value of ``f`` under the assignment in
    which variable ``order[k]`` takes bit ``k`` of ``i``.  All variables of
    ``f`` must appear in ``order``.  Memoised per subformula; each
    connective is a single big-integer operation.
    """
    n = len(order)
    if n > 24:
        raise ValueError("too many variables for truth tables; use BDDs")
    full = (1 << (1 << n)) - 1
    patterns = {name: _var_pattern(k, n) for k, name in enumerate(order)}
    memo: Dict[Formula, int] = {}

    def tt(g: Formula) -> int:
        cached = memo.get(g)
        if cached is not None:
            return cached
        if isinstance(g, Const):
            out = full if g.value else 0
        elif isinstance(g, Var):
            out = patterns[g.name]
        elif isinstance(g, Not):
            out = full & ~tt(g.arg)
        elif isinstance(g, And):
            out = full
            for a in g.args:
                out &= tt(a)
        elif isinstance(g, Or):
            out = 0
            for a in g.args:
                out |= tt(a)
        else:
            raise TypeError(f"not a formula: {g!r}")
        memo[g] = out
        return out

    return tt(f)


def _joint_order(*formulas: Formula) -> Tuple[str, ...]:
    names: set = set()
    for f in formulas:
        names |= f.variables()
    return tuple(sorted(names))


def is_contradiction(f: Formula) -> bool:
    """``True`` iff ``f`` is identically 0 (in every Boolean algebra)."""
    order = _joint_order(f)
    return truth_table_fast(f, order) == 0


def equivalent(f: Formula, g: Formula) -> bool:
    """``True`` iff ``f`` and ``g`` denote the same Boolean function."""
    order = _joint_order(f, g)
    return truth_table_fast(f, order) == truth_table_fast(g, order)


def implies(f: Formula, g: Formula) -> bool:
    """``True`` iff ``f <= g`` as Boolean functions (``f & ~g == 0``).

    This is Lemma 12's premise relation, and the ordering used throughout
    Section 4 (e.g. "atom x with x <= f").
    """
    order = _joint_order(f, g)
    tf = truth_table_fast(f, order)
    tg = truth_table_fast(g, order)
    return tf & ~tg == 0


# oracle: tests/test_paper_example.py
def equivalent_under(hypothesis: Formula, f: Formula, g: Formula) -> bool:
    """``True`` iff ``f`` and ``g`` agree on all assignments where
    ``hypothesis`` holds.

    Used to compare our compiled triangular systems with the paper's §2
    display, which is simplified modulo the ground fact ``A ⊆ C``.
    """
    order = _joint_order(hypothesis, f, g)
    th = truth_table_fast(hypothesis, order)
    tf = truth_table_fast(f, order)
    tg = truth_table_fast(g, order)
    return (tf ^ tg) & th == 0


# oracle: tests/reference_triangular.py
def implies_under(hypothesis: Formula, f: Formula, g: Formula) -> bool:
    """``True`` iff ``f <= g`` holds on every assignment satisfying
    ``hypothesis`` (i.e. ``hypothesis & f & ~g == 0``).

    Used for redundancy elimination modulo the ground residue when
    rendering triangular systems the way the paper's Section 2 does.
    """
    order = _joint_order(hypothesis, f, g)
    th = truth_table_fast(hypothesis, order)
    tf = truth_table_fast(f, order)
    tg = truth_table_fast(g, order)
    return th & tf & ~tg == 0
