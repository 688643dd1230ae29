"""Reduction of relational entailment to a single validity question.

Premises and conclusion are relational terms, each read as the assertion
that it denotes the full relation.  The premises jointly entail the
conclusion exactly when

    (1 ; (-(R1 & ... & Rn) ; 1)) | R

is valid, so one prover call settles the entailment.  The fragment only
admits the encoded term when the complement normal form of the negated
premise intersection is a complement- and 1-free Boolean term, which is
the case for premises expressing inclusions such as ``r <= -(s1 | s2)``.
"""

from __future__ import annotations

from collections import namedtuple

from ..errors import EmptyPremises, FragmentViolation, NotBoolean
from ..terms import (Cmpl, Comp, Inter, ONE, Union, _bound_depth,
                     nf_cmpl, render_term, require_fragment, simplify_ones)


class EntailmentProblem(namedtuple("EntailmentProblem", "premises conclusion")):
    __slots__ = ()

    def __new__(cls, premises, conclusion):
        return super().__new__(cls, tuple(premises), conclusion)


def encode_entailment(problem):
    """The fragment term whose validity decides the entailment.

    Raises :class:`EmptyPremises` without premises,
    :class:`FragmentViolation` when the encoding leaves the fragment
    (offending subterm attached), and :class:`ParseError` when a term
    deeper than :data:`~dualtab.terms.MAX_DEPTH` would be built.
    """
    if not problem.premises:
        raise EmptyPremises("entailment needs at least one premise")
    meet = problem.premises[-1]
    for p in reversed(problem.premises[:-1]):
        _bound_depth(1 + max(p.depth, meet.depth), "premise intersection")
        meet = Inter(p, meet)
    try:
        negated = nf_cmpl(Cmpl(meet))
    except NotBoolean:
        raise FragmentViolation(
            "premises must be Boolean terms: " + render_term(meet), meet
        ) from None
    if not negated.plain:
        raise FragmentViolation(
            "the negated premise intersection must normalize to a complement- "
            "and 1-free Boolean term, got " + render_term(negated),
            negated,
        )
    encoded = Union(Comp(ONE, Comp(negated, ONE)), problem.conclusion)
    _bound_depth(encoded.depth, "encoded term")
    return require_fragment(simplify_ones(encoded))
