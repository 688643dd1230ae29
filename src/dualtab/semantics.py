"""Finite models of the relational language and formula evaluation.

A model is a finite universe plus an interpretation of relational
variables as sets of ordered pairs; the constant ``1`` always denotes the
full pair set and is never stored.  :func:`eval_term` gives the pair set a
term denotes, :func:`satisfies` and :func:`falsifies_branch` check
formulas against a model and a valuation, and :func:`model_to_json` and
:func:`model_from_json` convert the model exchange format that the CLI
prints and ``check-model`` reads.  Everything here is plain Python: the
enumeration oracle, which needs numpy, lives in :mod:`dualtab.oracle`.
"""

from __future__ import annotations

import warnings

from .errors import UnboundVariable, UnknownVariableWarning
from .terms import ONE, Cmpl, Conv, Inter, One, Union, Var


class Record:
    """Fields in ``__slots__``, compared and shown as a dataclass's are."""

    __slots__ = ()

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and all(getattr(self, n) == getattr(other, n) for n in self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Model(Record):
    __slots__ = ("universe", "interp")

    def __init__(self, universe, interp=None):
        self.universe = tuple(universe)
        self.interp = {name: {tuple(p) for p in pairs} for name, pairs in (interp or {}).items()}

    def all_pairs(self):
        return {(a, b) for a in self.universe for b in self.universe}


def eval_term(model, t, memo=None):
    """The set of pairs denoted by ``t`` in ``model``.

    Uninterpreted variables denote the empty relation; a warning is
    emitted, once per call for each such variable, so oracle cross-checks
    over mismatched vocabularies stay visible.  Each distinct subterm is
    evaluated once per call.  ``memo``, when given, maps the terms already
    evaluated in ``model`` to their pair sets, which are then shared
    across calls: callers must not mutate the result.
    """
    if memo is None:
        memo = {}
    elif t in memo:
        return memo[t]
    stack = [t]
    while stack:
        u = stack.pop()
        if u in memo:
            continue
        cls = type(u)
        if cls is Var:
            if u.name not in model.interp:
                warnings.warn(
                    f"variable {u.name!r} has no interpretation; treating as empty",
                    UnknownVariableWarning,
                    stacklevel=2,
                )
            memo[u] = set(model.interp.get(u.name, ()))
        elif cls is One:
            memo[u] = model.all_pairs()
        elif cls is Cmpl:
            if ONE in memo and u.arg in memo:
                memo[u] = memo[ONE] - memo[u.arg]
            else:
                stack += u, u.arg, ONE
        elif cls is Conv:
            if u.arg in memo:
                memo[u] = {(b, a) for a, b in memo[u.arg]}
            else:
                stack += u, u.arg
        elif u.left not in memo or u.right not in memo:
            stack += u, u.right, u.left
        elif cls is Union:
            memo[u] = memo[u.left] | memo[u.right]
        elif cls is Inter:
            memo[u] = memo[u.left] & memo[u.right]
        else:
            by_mid = {}
            for c, b in memo[u.right]:
                by_mid.setdefault(c, set()).add(b)
            memo[u] = {(a, b) for a, c in memo[u.left] for b in by_mid.get(c, ())}
    return memo[t]


def satisfies(model, valuation, f, memo=None):
    """Whether ``model`` under ``valuation`` satisfies the formula ``f``.
    ``memo`` is passed on to :func:`eval_term`."""
    try:
        pair = (valuation[f.left], valuation[f.right])
    except KeyError as exc:
        raise UnboundVariable(f"valuation does not bind {exc.args[0]!r}") from None
    return pair in eval_term(model, f.term, memo)


def falsifies_branch(model, valuation, branch, memo=None):
    """Whether ``model``/``valuation`` falsify every formula ever on the branch.

    ``branch`` may be an engine branch (its full history is used) or any
    iterable of formulas.  Each distinct subterm is evaluated once per call;
    ``memo`` is passed on to :func:`eval_term`.
    """
    formulas = getattr(branch, "history", branch)
    memo = {} if memo is None else memo
    return all(not satisfies(model, valuation, f, memo) for f in formulas)


# ---------------------------------------------------------------------------
# Model exchange format


def model_to_json(model, valuation):
    """Exchange form: universe as a name list, relations as sorted pair
    lists, valuation as a variable-to-element map."""
    index = {u: i for i, u in enumerate(model.universe)}
    return {
        "universe": list(model.universe),
        "relations": {
            name: [[a, b] for a, b in sorted(pairs, key=lambda p: (index[p[0]], index[p[1]]))]
            for name, pairs in sorted(model.interp.items())
        },
        "valuation": {v: valuation[v] for v in sorted(valuation)},
    }


def model_from_json(data):
    """The model and valuation of the exchange format's decoded JSON
    ``data``; a ValueError that names the problem when it is malformed."""
    if not isinstance(data, dict):
        raise ValueError("the model must be an object")
    for key in ("universe", "relations", "valuation"):
        if key not in data:
            raise ValueError(f"the model has no {key!r}")
    universe = data["universe"]
    if not isinstance(universe, list) or not all(isinstance(u, str) for u in universe):
        raise ValueError("the universe must be a list of element names")
    relations, valuation = data["relations"], data["valuation"]
    if not isinstance(relations, dict) or not isinstance(valuation, dict):
        raise ValueError("the relations and the valuation must be objects")
    universe = tuple(universe)
    elems = set(universe)
    interp = {}
    for name, pairs in relations.items():
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2
                and all(isinstance(e, str) for e in p) for p in pairs):
            raise ValueError(f"relation {name!r} must be a list of name pairs")
        rel = set()
        for a, b in pairs:
            if a not in elems or b not in elems:
                raise ValueError(f"pair {[a, b]!r} of relation {name!r} leaves the universe")
            rel.add((a, b))
        interp[name] = rel
    for var, elem in valuation.items():
        if not isinstance(elem, str):
            raise ValueError(f"valuation maps {var!r} to no element name")
        if elem not in elems:
            raise ValueError(f"valuation maps {var!r} outside the universe")
    return Model(universe, interp), valuation
