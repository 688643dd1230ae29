"""Formulas ``x R y`` over object variables, and the literal-closure
machinery that gates composition decomposition in the engine.

A formula is *forced* by a set ``N`` of literals when it can be assembled
from literals of ``N`` using only unions (both sides forced) and
intersections (one side forced, the other in complement normal form).
``v_set`` collects the object variables a term can reach that way; the
engine consults it before instantiating a composition.  A branch history
is a :class:`History`, which keeps the indices the engine queries up to
date as formulas enter it.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotBoolean, ParseError
from .terms import (Cmpl, Inter, One, Union, Var, _Parser, _Tokenizer, nf_cmpl,
                    parse_term, render_term)

ObjVar = str

DEFAULT_LEFT, DEFAULT_RIGHT = "x", "y"  # the endpoints of a bare term


class RelFormula(namedtuple("RelFormula", "left term right")):
    """The formula ``left term right``.  A tuple, so that hashing and
    equality, which the engine runs constantly, stay in C."""

    __slots__ = ()

    def __repr__(self):
        return f"{self.left} {render_term(self.term)} {self.right}"


class FormulaSet(dict):
    """Set of formulas with insertion-order iteration and O(1) membership:
    a dict from formula to None, so that membership and copying run at
    dict speed."""

    __slots__ = ()

    def __init__(self, items=()):
        # a formula set is copied as a dict, which reuses its stored hashes
        super().__init__(items if isinstance(items, FormulaSet)
                         else dict.fromkeys(items))

    def add(self, f):
        """Insert ``f``; returns True iff it was not already present."""
        if f in self:
            return False
        self[f] = None
        return True

    def update(self, items):
        for f in items:
            self.add(f)

    def copy(self):
        return FormulaSet(self)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self)) + "}"


def is_literal(f):
    """True iff the formula's term is 1, -1, a variable, or a negated variable."""
    match f.term:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return True
        case _:
            return False


def is_nbool(f, n):
    """Whether ``f`` is directly forced by the literals of ``n``.

    Holds when ``f`` is a literal of ``n``; when its term is an
    intersection with one side forced and the other in complement normal
    form; or when its term is a union with both sides forced.  All
    subformulas keep the endpoints of ``f``.  Requires a Boolean term.
    """
    if not f.term.boolean:
        raise NotBoolean(f"not a Boolean term: {render_term(f.term)}")
    return _is_nbool(f.left, f.term, f.right, n)


def _is_nbool(x, t, y, n):
    match t:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return RelFormula(x, t, y) in n
        case Inter(l, r):
            return (_is_nbool(x, l, y, n) and r.cnf) or (_is_nbool(x, r, y, n) and l.cnf)
        case Union(l, r):
            return _is_nbool(x, l, y, n) and _is_nbool(x, r, y, n)
        case _:
            return False


def has_nbool_construction(f, n):
    """Whether the complement normal form of ``f`` is forced by ``n``."""
    return _is_nbool(f.left, nf_cmpl(f.term), f.right, n)


def variables_of(n):
    """Object variables occurring in ``n``, in order of first occurrence."""
    seen = dict()
    for f in n:
        seen.setdefault(f.left, None)
        seen.setdefault(f.right, None)
    return list(seen)


def v_set(term, x, n):
    """The object variables ``z`` of ``n`` for which ``x term z`` is forced.

    Only variables textually present in ``n`` can carry a construction, so
    the search is restricted to them.  Requires ``term`` Boolean.
    """
    nf = nf_cmpl(term)
    return {z for z in variables_of(n) if _is_nbool(x, nf, z, n)}


class History(FormulaSet):
    """A branch history: a formula set that only grows, indexed as each
    formula enters it.

    ``by_left``, ``by_left_right`` and ``by_term_right`` list the formulas
    with a given left endpoint, pair of endpoints, or term and right
    endpoint, each list in admission order.
    """

    __slots__ = ("by_left", "by_left_right", "by_term_right", "_forced")

    def __init__(self, items=()):
        super().__init__()
        self.by_left = {}
        self.by_left_right = {}
        self.by_term_right = {}
        self._forced = {}
        self.update(items)

    def add(self, f):
        if not super().add(f):
            return False
        self.by_left.setdefault(f.left, []).append(f)
        self.by_left_right.setdefault((f.left, f.right), []).append(f)
        self.by_term_right.setdefault((f.term, f.right), []).append(f)
        return True

    def copy(self):
        h = History()
        dict.update(h, self)
        h._forced = dict(self._forced)
        for name in ("by_left", "by_left_right", "by_term_right"):
            setattr(h, name, {k: list(v) for k, v in getattr(self, name).items()})
        return h

    def forced(self, term, x):
        """``v_set(term, x, self)``, kept up to date incrementally.

        Whether ``x term z`` is forced depends only on the formulas with
        endpoints ``x`` and ``z``, and once forced it stays forced as the
        history grows.  So each set is extended only by the right
        endpoints of the formulas with left endpoint ``x`` admitted since
        it was last asked for.
        """
        key = (term, x)
        seen, found = self._forced.get(key, (0, frozenset()))
        fresh = self.by_left.get(x, ())[seen:]
        if fresh:
            nf = nf_cmpl(term)
            found = found.union(z for z in {f.right for f in fresh}
                                if z not in found and _is_nbool(x, nf, z, self))
            self._forced[key] = (seen + len(fresh), found)
        return found


def parse_formula(text):
    """Parse ``"IDENT TERM IDENT"`` or a bare term.

    A bare term gets the distinguished endpoints ``DEFAULT_LEFT`` and
    ``DEFAULT_RIGHT``; validity of ``x R y`` does not depend on how the
    endpoints are named.
    """
    try:
        return RelFormula(DEFAULT_LEFT, parse_term(text), DEFAULT_RIGHT)
    except ParseError as bare_error:
        try:
            tz = _Tokenizer(text)
            left = tz.expect("ident", expected=("ident",))[1]
            term = _Parser(tz).disj()
            right = tz.expect("ident", expected=("ident",))[1]
            tz.expect("eof", expected=("eof",))
            return RelFormula(left, term, right)
        except ParseError as triple_error:
            raise (triple_error if triple_error.offset > bare_error.offset
                   else bare_error) from None
