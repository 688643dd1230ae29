"""Exhaustive small-model refutation search for the modal language.

This is an oracle independent of the relational translation: formulas are
evaluated directly under possible-worlds semantics, with each modality
program interpreted as the union/intersection of its component
accessibility relations.  Frames and valuations are enumerated in a fixed
order over universes of growing size, so the first refuting pointed model
is reproducible.  The search space is vectorized: each choice the
enumeration makes, the successor mask of one world under one
accessibility variable or the world mask of one proposition, is its own
numpy axis, and a subformula's world masks broadcast over only the axes
of the variables it reads, so memory follows the formula, not the
budget.  The search imports numpy when it first runs, so importing this
module alone does not load it.
"""

from __future__ import annotations

from collections import namedtuple

from ..errors import BudgetExceeded
from ..semantics import Record
from ..terms import Inter as TInter, Union as TUnion, Var
from .modal import (And, Box, Dia, Not, Or, Prop, accessibility_of,
                    propositions_of, subformulas)


class KripkeModel(Record):
    __slots__ = ("worlds", "relations", "valuation")

    def __init__(self, worlds, relations=None, valuation=None):
        self.worlds = tuple(worlds)
        self.relations = {k: {tuple(p) for p in v} for k, v in (relations or {}).items()}
        self.valuation = {k: set(v) for k, v in (valuation or {}).items()}


def eval_program(program, km):
    """Pairs of the accessibility relation a program denotes."""
    return _program(program, lambda name: set(km.relations.get(name, ())))


def _program(prog, value):
    """A program's value, ``|`` and ``&`` applied to ``value(name)`` of
    each of its variables."""
    match prog:
        case Var(name):
            return value(name)
        case TUnion(l, r):
            return _program(l, value) | _program(r, value)
        case TInter(l, r):
            return _program(l, value) & _program(r, value)
    raise ValueError(f"not a plain Boolean program: {prog!r}")


def eval_modal(f, km, world):
    """Truth of ``f`` at ``world`` under possible-worlds semantics.  Each
    distinct subformula is evaluated at most once per world."""
    return holds(f, world, km, {})


def holds(g, w, km, memo):
    """Truth of ``g`` at ``w`` in ``km``, memoised in ``memo`` by ``(g, w)``."""
    value = memo.get((g, w))
    if value is None:
        match g:
            case Prop(name):
                value = w in km.valuation.get(name, ())
            case Not(a):
                value = not holds(a, w, km, memo)
            case And(l, r):
                value = holds(l, w, km, memo) and holds(r, w, km, memo)
            case Or(l, r):
                value = holds(l, w, km, memo) or holds(r, w, km, memo)
            case Box(prog, a) | Dia(prog, a):
                values = (holds(a, u, km, memo)
                          for v, u in eval_program(prog, km) if v == w)
                value = all(values) if isinstance(g, Box) else any(values)
        memo[g, w] = value
    return value


BUDGET_BITS = 26  # enumerated accessibility and valuation bits accepted
MAX_WORLDS = 8  # a world mask is one uint8


def kripke_countermodel(f, max_worlds):
    """First pointed model refuting ``f`` with at most ``max_worlds`` worlds.

    Enumerates universe sizes ascending; for each size, accessibility
    relations in lexicographic bitmask order (variables sorted), then
    propositional valuations (propositions sorted), then worlds ascending.
    Returns ``(model, world)`` or None; every returned witness is
    re-checked through :func:`eval_modal`.

    Refuses (``BudgetExceeded``) a size whose bits exceed
    :data:`BUDGET_BITS`, or of more than :data:`MAX_WORLDS` worlds.
    """
    subs = subformulas(f)
    accs, props = accessibility_of(subs), propositions_of(subs)
    for n in range(1, max_worlds + 1):
        bits = n * n * len(accs) + n * len(props)
        if bits > BUDGET_BITS:
            raise BudgetExceeded(
                f"{len(accs)} relations and {len(props)} propositions over "
                f"{n} worlds exceed the oracle budget of {BUDGET_BITS} bits"
            )
        if n > MAX_WORLDS:
            raise BudgetExceeded(
                f"{n} worlds exceed the oracle's limit of {MAX_WORLDS}")
        hit = _search_size(f, accs, props, n, subs)
        if hit is not None:
            model, world = hit
            if eval_modal(f, model, world):
                raise AssertionError("oracle witness failed its own re-check")
            return model, world
    return None


def _search_size(f, accs, props, n, subs):
    import numpy as np  # only the search needs it, so importing kripke stays cheap

    choices = n * len(accs) + len(props)  # at most BUDGET_BITS axes, numpy allows 32

    def axis(k):
        """Every mask of ``n`` bits along axis ``k``, of length 1 on every other."""
        shape = [1] * choices
        shape[k] = 1 << n
        return np.arange(1 << n, dtype=np.uint8).reshape(shape)

    # a relation's bitmask is the sum of succ_w << w*n, so its axes run
    # from world n-1 down to world 0
    succ = [{name: axis(i * n + n - 1 - w) for i, name in enumerate(accs)}
            for w in range(n)]
    prop_cols = {name: axis(n * len(accs) + j) for j, name in enumerate(props)}
    world_mask = np.uint8((1 << n) - 1)
    owed = dict(subs)  # asks to come
    memo = {}  # masks of the shared subformulas still owed, never written
    root = truth(f, _Space(np, world_mask, succ, prop_cols, owed, memo))
    # the first choice in C order of the root's axes, those it does not
    # read taken as 0, is the first in (frame, valuation) order
    idx = int(np.argmax(root != world_mask))
    bits = int(root.flat[idx] ^ world_mask)
    if bits == 0:
        return None
    choice = [int(c) for c in np.unravel_index(idx, root.shape)]

    worlds = tuple(f"w{i}" for i in range(n))

    def members(mask):
        return {worlds[u] for u in range(n) if mask >> u & 1}

    relations = {}
    for i, name in enumerate(accs):
        succs = reversed(choice[i * n:(i + 1) * n])  # world 0 first
        relations[name] = {(worlds[w], u) for w, mask in enumerate(succs)
                           for u in members(mask)}
    valuation = dict(zip(props, map(members, choice[n * len(accs):])))
    return KripkeModel(worlds, relations, valuation), worlds[(bits & -bits).bit_length() - 1]


# One universe size of the search, one axis per choice, each holding
# every mask of ``n`` bits: ``succ[w]`` maps each accessibility variable
# to the axis of world ``w``'s successor mask, ``prop_cols`` each
# proposition to the axis of its world mask.  A subformula's masks span
# only the axes of the variables it reads.  ``owed`` counts the asks
# still to come for each subformula of the :func:`subformulas` table;
# ``memo`` keeps the mask of a shared one until its last ask.
_Space = namedtuple("_Space", "np world_mask succ prop_cols owed memo")


def truth(g, space):
    """The world mask of ``g`` in every frame and valuation of ``space``."""
    np, world_mask, memo = space.np, space.world_mask, space.memo
    out = memo.get(g)
    if out is None:
        match g:
            case Prop(name):
                out = space.prop_cols[name]
            case Not(a):
                out = truth(a, space) ^ world_mask
            case And(l, r):
                out = truth(l, space) & truth(r, space)
            case Or(l, r):
                out = truth(l, space) | truth(r, space)
            case Dia(prog, a) | Box(prog, a):
                # [prog]a holds at w when no successor of w falsifies a
                box = isinstance(g, Box)
                ta = truth(a, space) ^ world_mask if box else truth(a, space)
                out = np.uint8(0)
                for w, succ in enumerate(space.succ):
                    hit = (_program(prog, succ.__getitem__) & ta) != 0
                    out = out | (hit != box).astype(np.uint8) << np.uint8(w)
    owed = space.owed
    owed[g] -= 1
    if owed[g] > 0:
        memo[g] = out
    else:
        memo.pop(g, None)
    return out
