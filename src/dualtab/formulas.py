"""Formulas ``x R y`` over object variables, and the literal-closure
machinery that gates composition decomposition in the engine.

A formula is *forced* by a set ``N`` of literals when it can be assembled
from literals of ``N`` using only unions (both sides forced) and
intersections (one side forced, the other in complement normal form).
The *forced set* ``v_set(B, x, N)`` holds the object variables ``z`` of
``N`` for which ``x B z`` is forced.  ``tests/reference.py`` defines both
directly from ``N``; the tests check the engine's incremental versions
against it.  A branch history is a :class:`History`, which keeps the
indices the engine queries and the forced sets it reads before
instantiating a composition up to date as formulas enter it, and logs
how to take each write back.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from types import MappingProxyType

from .errors import ParseError
from .terms import (Cmpl, Comp, One, Union, Var, _Parser, _Tokenizer,
                    interned, render_term, term_variables)

DEFAULT_LEFT, DEFAULT_RIGHT = "x", "y"  # the endpoints of a bare term


class RelFormula(namedtuple("RelFormula", "left term right")):
    """The formula ``left term right``.  A tuple, so that hashing and
    equality, which the engine runs constantly, stay in C."""

    __slots__ = ()

    def __repr__(self):
        return f"{self.left} {render_term(self.term)} {self.right}"


class FormulaSet(dict):
    """Set of formulas with insertion-order iteration and O(1) membership:
    a dict from formula to None, so that membership runs at dict speed."""

    __slots__ = ()

    def __init__(self, items=()):
        super().__init__(dict.fromkeys(items))

    def add(self, f):
        """Insert ``f``; returns True iff it was not already present."""
        if f in self:
            return False
        self[f] = None
        return True

    def update(self, items):
        for f in items:
            self.add(f)

    def __repr__(self):
        return "{" + ", ".join(map(repr, self)) + "}"


def is_literal(f):
    """True iff the formula's term is 1, -1, a variable, or a negated variable."""
    match f.term:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return True
        case _:
            return False


def gate_index(terms):
    """Maps each ``-v`` to the gates that mention ``v``: the left operands
    ``B``, other than 1, of the compositions among ``terms``.  ``x B;S y``
    is instantiated only with the ``z`` for which ``x -B z`` is forced.
    Read-only: a search builds it once and only reads it."""
    index = {}
    for t in terms:
        if isinstance(t, Comp) and not isinstance(t.left, One):
            for name in term_variables(t.left):
                index.setdefault(Cmpl(Var(name)), {})[t.left] = None
    return MappingProxyType({lit: tuple(gates) for lit, gates in index.items()})


def gate_forced(x, b, z, n):
    """Whether ``x -b z`` is forced by ``n``, for a plain ``b``: the normal
    form of ``-b`` swaps its unions and intersections and negates its
    variables.  Builds no term."""
    if isinstance(b, Var):
        return tuple.__new__(RelFormula, (x, interned(Cmpl, b), z)) in n
    holds = any if isinstance(b, Union) else all
    return holds(gate_forced(x, part, z, n) for part in (b.left, b.right))


def assign(trail, table, key, value):
    """``table[key] = value``, its inverse on ``trail``; no value is None."""
    old = table.get(key)
    trail.append(partial(table.__delitem__, key) if old is None
                 else partial(table.__setitem__, key, old))
    table[key] = value


class History(FormulaSet):
    """A branch history: a formula set indexed as each formula enters it.

    ``by_left_right`` and ``by_term_right`` list the formulas with a given
    pair of endpoints, or term and right endpoint, each list in admission
    order.  ``forced`` maps ``(B, x)``, for each gate ``B`` of ``gates``,
    to ``v_set(-B, x, self)`` when that is not empty; a gate is plain, so
    only a literal ``x -v z`` that ``gates`` lists can extend one, by ``z``.
    :meth:`add` logs the inverse of each write on the trail it is given.
    The caller binds ``_retract`` once and passes it to every :meth:`add`;
    the history keeps no bound method of its own, which would make it a
    reference cycle.
    """

    __slots__ = ("gates", "forced", "by_left_right", "by_term_right")

    def __init__(self, gates):
        super().__init__()
        self.gates, self.forced, self.by_left_right, self.by_term_right = gates, {}, {}, {}

    def add(self, f, trail, retract):
        """Admit ``f`` unless it is present, logging on ``trail``; returns
        whether it was admitted.  ``retract`` is this history's bound
        ``_retract``, the inverse of an admission."""
        if f in self:
            return False
        self[f] = None
        trail.append(retract)
        x, t, z = f
        group = self.by_left_right.get((x, z))
        if group is None:
            self.by_left_right[x, z] = [f]
        else:
            group.append(f)
        group = self.by_term_right.get((t, z))
        if group is None:
            self.by_term_right[t, z] = [f]
        else:
            group.append(f)
        for gate in self.gates.get(t, ()):
            forced = self.forced.get((gate, x), frozenset())
            if z not in forced and gate_forced(x, gate, z, self):
                assign(trail, self.forced, (gate, x), forced | {z})
        return True

    def _retract(self):
        """Take back the last admission and the index entries it made."""
        x, t, z = self.popitem()[0]
        group = self.by_left_right[x, z]
        group.pop()
        if not group:
            del self.by_left_right[x, z]
        group = self.by_term_right[t, z]
        group.pop()
        if not group:
            del self.by_term_right[t, z]


def parse_formula(text):
    """Parse ``"IDENT TERM IDENT"`` or a bare term.

    A bare term gets the distinguished endpoints ``DEFAULT_LEFT`` and
    ``DEFAULT_RIGHT``; validity of ``x R y`` does not depend on how the
    endpoints are named.
    """
    tz = _Tokenizer(text)  # a tokenizing error is both readings' error
    try:
        return RelFormula(DEFAULT_LEFT, _Parser(tz).parse(), DEFAULT_RIGHT)
    except ParseError as bare_error:
        tz.pos = 0
        try:
            left = tz.expect("ident")[1]
            term = _Parser(tz).expression()
            right = tz.expect("ident")[1]
            tz.expect("eof")
            return RelFormula(left, term, right)
        except ParseError as triple_error:
            raise (triple_error if triple_error.offset > bare_error.offset
                   else bare_error) from None
