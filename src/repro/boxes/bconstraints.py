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

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..boolean.blake import blake_canonical_form
from ..boolean.terms import Term
from .approximation import lower_approximation, upper_approximation
from .box import Box
from .functions import TOP, BoxFunc, evaluate_boxfunc, render_boxfunc


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
        if any(c.is_empty() for c in self.overlap):
            return True
        if (
            self.inside is not None
            and self.covers is not None
            and not self.covers.le(self.inside)
        ):
            return True
        if self.inside is not None and self.inside.is_empty():
            # Only the empty box fits inside an empty box, and an empty
            # object box cannot cover or overlap anything.
            return bool(self.overlap) or (
                self.covers is not None and not self.covers.is_empty()
            )
        return False

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
    paper's headline: *one range query per variable*.
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
