"""Reference definitions that the tests check the program against, and
that no dualtab process runs.

The forcing relation of ``formulas.py``'s docstring, read off a formula
set directly: a formula is forced by a set ``N`` of literals when it can
be assembled from literals of ``N`` using only unions (both sides
forced) and intersections (one side forced, the other in complement
normal form).  The engine keeps the forced sets it needs up to date
instead (``formulas.History``, ``formulas.gate_forced``).  And the
structural readings of a term that ``terms.py`` sets as attributes at
interning, as functions.
"""

from dualtab.errors import NotBoolean
from dualtab.formulas import RelFormula
from dualtab.terms import Cmpl, Inter, One, Union, Var, nf_cmpl, render_term


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


def term_depth(t):
    """Number of nodes on the longest root-to-leaf path (atoms have depth 1)."""
    return t.depth


def is_cnf(t):
    """True iff every complement in ``t`` acts on a variable or constant."""
    return t.cnf


def is_plain_boolean(t):
    """True iff ``t`` is built from variables with union/intersection only."""
    return t.plain
