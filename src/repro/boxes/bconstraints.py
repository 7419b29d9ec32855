"""Bounding-box constraint forms and the solved-form conversion (§4).

A spatial database answers, with ONE range query, any conjunction of the
three constraint forms over an unknown object's box ``⌈x⌉`` (paper §4,
citing [12]):

* ``⌈x⌉ ⊑ a``        — containment in a given box,
* ``b ⊑ ⌈x⌉``        — containment of a given box,
* ``⌈x⌉ ⊓ c ≠ ∅``    — overlap with a given box.

:class:`BoxQuery` is that conjunction with concrete boxes (what the index
layer executes); :class:`StepTemplate` is its compile-time form, with
bounding-box *functions* in place of the boxes.

The index layer reads a query *packed* (:func:`pack_query`): its shape
and one tuple of coordinates, what the r-tree's batched traversal, the
scan kernel and a write delta's overlay test.  During execution a
template is not interpreted per binding: :meth:`StepTemplate.packer`
compiles it once into a closure from a binding's boxes to that packed
form (or ``None``: unsatisfiable), which :class:`~repro.engine.physical.
IndexProbe` sends to :meth:`~repro.spatial.table.SpatialTable.
range_query_packed`.  :meth:`StepTemplate.instantiate` stays the scalar
form for the planner, the COUNT pushdown, the kNN step's box filter and
the forced bulk joins, and the packer's test oracle.

Conversion of a solved constraint ``C_i`` (paper §4):

* range ``s ⊆ x ⊆ t``:  the best bounding-box necessary condition is
  ``⌈s⌉ ⊑ ⌈x⌉ ∧ ⌈x⌉ ⊑ ⌈t⌉``; at compile time ``⌈s⌉`` is approximated
  *from below* by ``L_s`` and ``⌈t⌉`` *from above* by ``U_t`` (weakening
  both keeps the condition necessary).
* disequation ``x∧p ≠ 0 ∨ ¬x∧q ≠ 0``: when ``q = 0`` the second disjunct
  is impossible and ``⌈x⌉ ⊓ ⌈p⌉ ≠ ∅`` is necessary; otherwise no
  bounding-box constraint is sound ("the trivial constraint true
  otherwise").  Both ``p`` and ``q`` are approximated from above
  (``U_q = ∅`` certifies ``q = 0``; ``U_p ⊒ ⌈p⌉`` keeps overlap
  necessary).  The ``q``-test happens at *evaluation* time, since ``U_q``
  depends on the already-retrieved objects.

Where the approximations are exact the range query *decides* a conjunct
of ``C_i`` for a one-box object (:func:`box_decided`):

* ``s ⊆ x`` when every BCF term of ``s`` is one positive atom (or
  ``s ∈ {0, 1}``): a box holds a union iff it holds the union's bounding
  box, whatever the atoms' shapes;
* ``x ⊆ t`` when ``BCF(t)`` is one all-positive term (``t = 1``
  included) and its atoms are one box each: a meet of boxes is a box;
* ``r_j`` when ``q_j = 0`` and ``BCF(p_j)`` is one all-positive term
  over one-box atoms: the overlap with ``U_p`` is then the exact test.

A complement, a union in ``t`` or ``p_j``, or ``q_j ≠ 0`` stays checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from ..boolean.blake import blake_canonical_form
from ..boolean.terms import Term
from .approximation import lower_approximation, upper_approximation
from .box import EMPTY_BOX, Box
from .functions import (
    TOP, BoxConst, BoxFunc, BoxJoin, BoxMeet, BoxVar, evaluate_boxfunc, render_boxfunc,
)


@dataclass(frozen=True)
class BoxQuery:
    """A single range query over an unknown box (concrete form).

    ``inside`` — require ``⌈x⌉ ⊑ inside`` (None = unconstrained);
    ``covers`` — require ``covers ⊑ ⌈x⌉`` (None or empty = vacuous);
    ``overlap`` — require ``⌈x⌉ ⊓ c ≠ ∅`` for every listed ``c``.

    An unsatisfiable query (e.g. required overlap with an empty box) is
    represented normally; :meth:`is_unsatisfiable` reports it so
    executors can skip the index probe entirely.
    """

    inside: Optional[Box] = None
    covers: Optional[Box] = None
    overlap: Tuple[Box, ...] = ()

    def matches(self, box: Box) -> bool:
        """Does a concrete object box satisfy the query?"""
        if self.inside is not None and not box.le(self.inside):
            return False
        if self.covers is not None and not self.covers.le(box):
            return False
        return all(box.overlaps(c) for c in self.overlap)

    def is_unsatisfiable(self) -> bool:
        """Statically unsatisfiable (no box can match)."""
        return _unsatisfiable(self.inside, self.covers, self.overlap)

    def render(self) -> str:
        """Human-readable rendering."""
        parts = []
        if self.inside is not None:
            parts.append(f"[x] <= {self.inside!r}")
        if self.covers is not None and not self.covers.is_empty():
            parts.append(f"{self.covers!r} <= [x]")
        for c in self.overlap:
            parts.append(f"[x] ^ {c!r} != empty")
        return " and ".join(parts) if parts else "true"


def _unsatisfiable(inside, covers, overlap) -> bool:
    """:meth:`BoxQuery.is_unsatisfiable` of the query with these boxes."""
    if any(c._empty for c in overlap):
        return True
    if inside is not None and covers is not None and not covers.le(inside):
        return True
    if inside is not None and inside._empty:
        # Only the empty box fits inside an empty box, and an empty
        # object box cannot cover or overlap anything.
        return bool(overlap) or (covers is not None and not covers._empty)
    return False


#: Which constraint boxes a query carries: ``(has inside, has nonempty
#: covers, number of overlap boxes)``.
QueryShape = Tuple[bool, bool, int]
#: A query as the index kernels take it: its shape and the ``lo`` then
#: ``hi`` coordinates of its inside, covers and overlap boxes.
PackedQuery = Tuple[QueryShape, Tuple[float, ...]]


def pack_query(query: BoxQuery, dim: int) -> PackedQuery:
    """The query's shape and the ``lo`` then ``hi`` coordinates of its
    inside, covers and overlap boxes, in that order.  An empty inside or
    overlap box packs as ``[+inf, -inf)``, which no box fits inside or
    overlaps."""
    covers = None if query.covers is None or query.covers._empty else query.covers
    return _pack(query.inside, covers, query.overlap, dim)


def _pack(inside, covers, overlap, dim: int) -> PackedQuery:
    """:func:`pack_query` of the query with these boxes (``covers``
    ``None`` or nonempty)."""
    boxes = [box for box in (inside, covers) if box is not None] + list(overlap)
    row: Tuple[float, ...] = ()
    for box in boxes:
        if box._empty:
            row += (math.inf,) * dim + (-math.inf,) * dim
        else:
            row += box.lo[:dim] + box.hi[:dim]
    return (inside is not None, covers is not None, len(overlap)), row


def matches_empty(shape: QueryShape) -> bool:
    """``query.matches(EMPTY_BOX)``, read off a packed query's shape: an
    empty box fits inside any box but covers and overlaps none."""
    return not (shape[1] or shape[2])


@dataclass(frozen=True)
class OverlapTemplate:
    """Compile-time form of one disequation's potential overlap constraint.

    ``p_upper``/``q_upper`` are ``U_p``/``U_q``.  At evaluation time the
    constraint ``⌈x⌉ ⊓ p_upper(env) ≠ ∅`` is emitted iff ``q_upper(env)``
    is the empty box.
    """

    p_upper: BoxFunc
    q_upper: BoxFunc

    def instantiate(
        self, env: Mapping[str, Box], universe: Optional[Box] = None
    ) -> Optional[Box]:
        """The overlap box to require, or ``None`` when trivial."""
        q_box = evaluate_boxfunc(self.q_upper, env, universe)
        if not q_box.is_empty():
            return None
        return evaluate_boxfunc(self.p_upper, env, universe)


@dataclass(frozen=True)
class StepTemplate:
    """The compiled bounding-box constraint template for one variable.

    Evaluating the template on the boxes of the already-retrieved prefix
    yields the single :class:`BoxQuery` for this retrieval step — the
    paper's headline: *one range query per variable*.  The index probe
    does not evaluate it per binding: it calls the template's
    :meth:`packer`, compiled once, which yields that query packed.
    """

    variable: str
    lower: BoxFunc  # L_s — approximates the range's lower bound from below
    upper: BoxFunc  # U_t — approximates the range's upper bound from above
    overlaps: Tuple[OverlapTemplate, ...] = ()

    def instantiate(
        self, env: Mapping[str, Box], universe: Optional[Box] = None
    ) -> BoxQuery:
        """Evaluate into a concrete :class:`BoxQuery` for this step."""
        covers = evaluate_boxfunc(self.lower, env, universe)
        upper_box = evaluate_boxfunc(self.upper, env, universe)
        inside: Optional[Box] = upper_box
        if self.upper == TOP and universe is None:
            inside = None
        overlap: List[Box] = []
        for t in self.overlaps:
            c = t.instantiate(env, universe)
            if c is not None:
                overlap.append(c)
        return BoxQuery(
            inside=inside,
            covers=None if covers.is_empty() else covers,
            overlap=tuple(overlap),
        )

    def packer(self, universe: Optional[Box], dim: int) -> "Packer":
        """This step's range query as :class:`~repro.engine.physical.
        IndexProbe` sends it to the index: ``packer(binding, consts)`` is
        ``pack_query(q, dim)`` of ``q = self.instantiate(env, universe)``,
        or ``None`` where ``q.is_unsatisfiable()``; ``env`` is ``consts``
        (the constant boxes) with each row's ``box`` of ``binding`` over
        it.  Compiled once per ``(template, universe, dim)`` and cached
        by value: ``BOT``s dropped, ``TOP`` resolved to the universe, an
        overlap whose ``U_q`` is constant kept or dropped once.  Where
        only overlap boxes vary (every ``boxplan`` step of the overlay
        join) the packer reads each off its row, builds no box, and
        appends its coordinates to the constant ones; ``⊓``/``⊔`` over
        varying operands are ``Box.meet``/``Box.enclose``, so every
        coordinate is the one :meth:`instantiate` computes."""
        return _compile_packer(self, universe, dim)

    def render(self) -> str:
        """Paper-style rendering of the template."""
        x = self.variable
        lines = [
            f"{render_boxfunc(self.lower)} <= [{x}] <= "
            f"{render_boxfunc(self.upper)}"
        ]
        for t in self.overlaps:
            lines.append(
                f"[{x}] ^ {render_boxfunc(t.p_upper)} != empty"
                f"   (when {render_boxfunc(t.q_upper)} = empty)"
            )
        return "\n".join(lines)


#: A step's compiled range query (:meth:`StepTemplate.packer`).
Packer = Callable[[Mapping[str, Any], Mapping[str, Box]], Optional[PackedQuery]]
#: A compiled bounding-box function: a constant box, or its value as a
#: function of a binding and the constant boxes.
_Term = Union[Box, Callable[[Mapping[str, Any], Mapping[str, Box]], Box]]


@lru_cache(maxsize=256)
def _compile_packer(template: StepTemplate, universe: Optional[Box], dim: int) -> Packer:
    covers = _term(template.lower, universe)
    inside = None if template.upper == TOP and universe is None else _term(template.upper, universe)
    overlaps: List[Tuple[_Term, Optional[_Term]]] = []  # (U_p, U_q); U_q None: always required
    for t in template.overlaps:
        q = _term(t.q_upper, universe)
        if isinstance(q, Box):
            if not q._empty:
                continue  # never required
            q = None
        overlaps.append((_term(t.p_upper, universe), q))
    if isinstance(covers, Box) and not callable(inside) and all(q is None for _p, q in overlaps):
        covers = None if covers._empty else covers
        return _static_packer(inside, covers, [p for p, _q in overlaps], dim)
    get_covers = _getter(covers)
    get_inside = None if inside is None else _getter(inside)
    pairs = [(_getter(p), q) for p, q in overlaps]

    def pack(binding, consts):
        cov = get_covers(binding, consts)
        ins = None if get_inside is None else get_inside(binding, consts)
        over = [p(binding, consts) for p, q in pairs if q is None or q(binding, consts)._empty]
        cov = None if cov._empty else cov
        return None if _unsatisfiable(ins, cov, over) else _pack(ins, cov, over, dim)

    return pack


def _static_packer(
    inside: Optional[Box], covers: Optional[Box], overlap: List[_Term], dim: int
) -> Packer:
    """The packer of a query whose shape is constant (``inside`` and
    ``covers`` too): a varying overlap box is the only test left."""
    shape = (inside is not None, covers is not None, len(overlap))
    prefix = _pack(inside, covers, (), dim)[1]
    fixed = [p for p in overlap if isinstance(p, Box)]
    if _unsatisfiable(inside, covers, fixed) or (inside is not None and inside._empty and overlap):
        return lambda binding, consts: None
    getters = [_getter(p) for p in overlap]

    def pack(binding, consts):
        row = prefix
        for get in getters:
            box = get(binding, consts)
            if box._empty:
                return None
            row += box.lo[:dim] + box.hi[:dim]
        return shape, row

    return pack


def _term(f: BoxFunc, universe: Optional[Box]) -> _Term:
    """``f`` compiled: its value when it reads no variable, else a
    function folding its operands as :func:`evaluate_boxfunc` does."""
    if isinstance(f, BoxVar):
        name = f.name

        def var(binding, consts):
            row = binding.get(name)
            return consts[name] if row is None else row.box

        return var
    if isinstance(f, BoxConst):
        if not f.is_top:
            return EMPTY_BOX if f.box is None else f.box
        return _enclose_env if universe is None else universe
    if isinstance(f, (BoxMeet, BoxJoin)):
        parts = [_term(a, universe) for a in f.args]
        if all(isinstance(p, Box) for p in parts):
            return evaluate_boxfunc(f, {}, universe)
        getters = [_getter(p) for p in parts]
        if isinstance(f, BoxJoin):

            def join(binding, consts):
                out = EMPTY_BOX
                for get in getters:
                    out = out.enclose(get(binding, consts))
                return out

            return join
        first, rest = getters[0], getters[1:]

        def meet(binding, consts):
            out = first(binding, consts)
            for get in rest:
                out = out.meet(get(binding, consts))
            return out

        return meet
    raise TypeError(f"not a bounding-box function: {f!r}")


def _getter(term: _Term) -> Callable[[Mapping[str, Any], Mapping[str, Box]], Box]:
    return (lambda binding, consts: term) if isinstance(term, Box) else term


def _enclose_env(binding, consts) -> Box:
    """``TOP`` with no universe: :func:`evaluate_boxfunc`'s box enclosing
    every value of the environment (the engine always has a universe)."""
    env = dict(consts)
    env.update((name, row.box) for name, row in binding.items())
    return evaluate_boxfunc(TOP, env)


def compile_solved_constraint(solved) -> StepTemplate:
    """Convert a solved constraint ``C_i`` into its bounding-box template.

    This is the second half of the paper's compilation pipeline
    (Section 2's step from the triangular system to the ``⌈·⌉`` system):
    lower bounds via ``L``, upper bounds and disequation coefficients via
    ``U``.
    """
    from ..constraints.solved import SolvedConstraint

    if not isinstance(solved, SolvedConstraint):
        raise TypeError(f"expected SolvedConstraint, got {solved!r}")
    s_bcf, t_bcf, pq_bcfs = _bcfs(solved)
    overlaps = tuple(
        OverlapTemplate(
            p_upper=upper_approximation(r.p, p_bcf),
            q_upper=upper_approximation(r.q, q_bcf),
        )
        for r, (p_bcf, q_bcf) in zip(solved.disequations, pq_bcfs)
    )
    return StepTemplate(
        variable=solved.variable,
        lower=lower_approximation(solved.lower, s_bcf),
        upper=upper_approximation(solved.upper, t_bcf),
        overlaps=overlaps,
    )


def box_decided(solved) -> Tuple[Optional[FrozenSet[str]], ...]:
    """Per conjunct of ``solved`` (``s ⊆ x``, ``x ⊆ t``, then each
    ``r_j``): the atoms that must each be one box for a one-box object
    that matches the step's range query to satisfy the conjunct, or
    ``None`` where the box test does not decide it (see the module
    docstring)."""
    s_bcf, t_bcf, pq_bcfs = _bcfs(solved)
    marks = [_lower_mark(s_bcf), _term_mark(t_bcf)]
    marks += [None if q_bcf else _term_mark(p_bcf) for p_bcf, q_bcf in pq_bcfs]
    return tuple(marks)


@lru_cache(maxsize=256)
def _bcfs(solved):
    """``BCF(s)``, ``BCF(t)`` and each ``(BCF(p_j), BCF(q_j))``, computed
    once per constraint for both the template and the marks."""
    pairs = tuple(
        (tuple(blake_canonical_form(r.p)), tuple(blake_canonical_form(r.q)))
        for r in solved.disequations
    )
    s_bcf = tuple(blake_canonical_form(solved.lower))
    t_bcf = tuple(blake_canonical_form(solved.upper))
    return s_bcf, t_bcf, pairs


def _lower_mark(bcf: Sequence[Term]) -> Optional[FrozenSet[str]]:
    """``frozenset()`` when ``⌈s⌉ ⊑ ⌈x⌉`` decides ``s ⊆ x`` for a one-box
    ``x``: every term of ``BCF(s)`` one positive atom (``s = 0``
    included), or ``s = 1``; else ``None``."""
    if len(bcf) == 1 and bcf[0].is_true():
        return frozenset()
    for term in bcf:
        if len(term) != 1 or not next(iter(term))[1]:
            return None
    return frozenset()


def _term_mark(bcf: Sequence[Term]) -> Optional[FrozenSet[str]]:
    """The atoms of ``BCF(f)``'s one term when it has no negative literal
    (``f = 1``: no atom), else ``None``."""
    if len(bcf) != 1:
        return None
    names = []
    for name, positive in bcf[0]:
        if not positive:
            return None
        names.append(name)
    return frozenset(names)
