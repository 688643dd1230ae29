"""Formulas ``x R y`` over object variables, and the literal-closure
machinery that gates composition decomposition in the engine.

A formula is *forced* by a set ``N`` of literals when it can be assembled
from literals of ``N`` using only unions (both sides forced) and
intersections (one side forced, the other in complement normal form).
The *forced set* ``v_set(B, x, N)`` holds the object variables ``z`` of
``N`` for which ``x B z`` is forced.  ``tests/reference.py`` defines both
directly from ``N``; the tests check the engine's incremental versions
against it.  :func:`gate_index` finds, once per search, which literals
can extend a forced set, and :func:`gate_forced` tests one extension;
the engine's ``Branch`` keeps the forced sets up to date as formulas
enter its history.
"""

from __future__ import annotations

from collections import namedtuple
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


def is_literal(f):
    """True iff the formula's term is 1, -1, a variable, or a negated variable."""
    match f.term:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return True
        case _:
            return False


def gate_index(terms):
    """What a search's branch reads of the components ``terms``
    of its input, found in one pass: the gates, a read-only map from each
    ``-v`` to the left operands ``B``, other than 1, of the compositions
    among ``terms`` that mention ``v``, and the suppressors, the ``-S`` of
    each ``-(1;S)`` among ``terms`` with ``S`` not 1."""
    index, suppressors = {}, set()
    for t in terms:
        if isinstance(t, Comp) and not isinstance(t.left, One):
            for name in term_variables(t.left):
                index.setdefault(Cmpl(Var(name)), {})[t.left] = None
        elif (isinstance(t, Cmpl) and isinstance(t.arg, Comp)
              and isinstance(t.arg.left, One) and not isinstance(t.arg.right, One)):
            suppressors.add(Cmpl(t.arg.right))
    gates = MappingProxyType({lit: tuple(gates) for lit, gates in index.items()})
    return gates, frozenset(suppressors)


def gate_forced(x, b, z, n):
    """Whether ``x -b z`` is forced by ``n``, for a plain ``b``: the normal
    form of ``-b`` swaps its unions and intersections and negates its
    variables.  Builds no term.  A union is forced when either part is,
    an intersection when both are: each is decided by its left part when
    that is, else by its right part.  ``pending`` holds the unions and
    intersections above ``b``, each with whether ``b`` is its right part."""
    pending = []
    while True:
        while type(b) is not Var:
            pending.append((b, False))
            b = b.left
        value = tuple.__new__(RelFormula, (x, interned(Cmpl, b), z)) in n
        while pending:
            b, right = pending.pop()
            if not right and value is not (type(b) is Union):
                pending.append((b, True))
                b = b.right
                break
        else:
            return value


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
