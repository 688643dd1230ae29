"""Exhaustive small-model refutation search for the modal language.

This is an oracle independent of the relational translation: formulas are
evaluated directly under possible-worlds semantics, with each modality
program interpreted as the union/intersection of its component
accessibility relations.  Frames and valuations are enumerated in a fixed
order over universes of growing size, so the first refuting pointed model
is reproducible.  The search space is vectorized: truth values are
computed as world-bitmask arrays over the (frame, valuation) axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import BudgetExceeded
from ..terms import Inter as TInter, Union as TUnion, Var
from .modal import (And, Box, Dia, Not, Or, Prop, accessibility_of,
                    propositions_of)


@dataclass
class KripkeModel:
    worlds: tuple[str, ...]
    relations: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    valuation: dict[str, set[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.worlds = tuple(self.worlds)
        self.relations = {k: {tuple(p) for p in v} for k, v in self.relations.items()}
        self.valuation = {k: set(v) for k, v in self.valuation.items()}


def eval_program(program, km):
    """Pairs of the accessibility relation a program denotes."""
    match program:
        case Var(name):
            return set(km.relations.get(name, ()))
        case TUnion(l, r):
            return eval_program(l, km) | eval_program(r, km)
        case TInter(l, r):
            return eval_program(l, km) & eval_program(r, km)
    raise ValueError(f"not a plain Boolean program: {program!r}")


def eval_modal(f, km, world):
    """Truth of ``f`` at ``world`` under possible-worlds semantics."""
    match f:
        case Prop(name):
            return world in km.valuation.get(name, ())
        case Not(a):
            return not eval_modal(a, km, world)
        case And(l, r):
            return eval_modal(l, km, world) and eval_modal(r, km, world)
        case Or(l, r):
            return eval_modal(l, km, world) or eval_modal(r, km, world)
        case Box(prog, a):
            rel = eval_program(prog, km)
            return all(eval_modal(a, km, u) for w, u in rel if w == world)
        case Dia(prog, a):
            rel = eval_program(prog, km)
            return any(eval_modal(a, km, u) for w, u in rel if w == world)


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
    accs, props = accessibility_of(f), propositions_of(f)
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
        hit = _search_size(f, accs, props, n)
        if hit is not None:
            model, world = hit
            if eval_modal(f, model, world):
                raise AssertionError("oracle witness failed its own re-check")
            return model, world
    return None


def _search_size(f, accs, props, n):
    q = n * n
    n_rel = 1 << (q * len(accs))
    n_val = 1 << (n * len(props))
    world_mask = np.uint8((1 << n) - 1)

    rel_masks = {}
    succ = {}
    rcs = np.arange(n_rel, dtype=np.int64)
    for i, name in enumerate(accs):
        shift = q * (len(accs) - 1 - i)
        masks = (rcs >> shift) & ((1 << q) - 1)
        rel_masks[name] = masks
        succ[name] = np.stack(
            [((masks >> (w * n)) & ((1 << n) - 1)).astype(np.uint8) for w in range(n)],
            axis=1,
        )

    prop_cols = {}
    pcs = np.arange(n_val, dtype=np.int64)
    for j, name in enumerate(props):
        shift = n * (len(props) - 1 - j)
        prop_cols[name] = ((pcs >> shift) & ((1 << n) - 1)).astype(np.uint8)

    def program_succ(prog):
        match prog:
            case Var(name):
                return succ[name]
            case TUnion(l, r):
                return program_succ(l) | program_succ(r)
            case TInter(l, r):
                return program_succ(l) & program_succ(r)
        raise ValueError(f"not a plain Boolean program: {prog!r}")

    def truth(g):
        match g:
            case Prop(name):
                out = np.broadcast_to(prop_cols[name][None, :], (1, n_val))
            case Not(a):
                out = truth(a) ^ world_mask
            case And(l, r):
                out = truth(l) & truth(r)
            case Or(l, r):
                out = truth(l) | truth(r)
            case Dia(prog, a):
                ta = truth(a)
                sa = program_succ(prog)
                out = np.zeros((n_rel, ta.shape[1]), dtype=np.uint8)
                for w in range(n):
                    hit = (sa[:, w][:, None] & ta) != 0
                    out |= hit.astype(np.uint8) << np.uint8(w)
            case Box(prog, a):
                ta = truth(a)
                sa = program_succ(prog)
                out = np.zeros((n_rel, ta.shape[1]), dtype=np.uint8)
                for w in range(n):
                    ok = (sa[:, w][:, None] & (ta ^ world_mask)) == 0
                    out |= ok.astype(np.uint8) << np.uint8(w)
        return out

    root = truth(f)
    falsity = np.broadcast_to(root, (n_rel, n_val)) ^ world_mask
    flat = falsity.reshape(-1)
    nz = np.flatnonzero(flat)
    if nz.size == 0:
        return None
    idx = int(nz[0])
    rc, pc = divmod(idx, n_val)
    bits = int(flat[idx])
    world_idx = (bits & -bits).bit_length() - 1

    worlds = tuple(f"w{i}" for i in range(n))
    relations = {}
    for name in accs:
        mask = int(rel_masks[name][rc])
        relations[name] = {
            (worlds[p // n], worlds[p % n]) for p in range(q) if (mask >> p) & 1
        }
    valuation = {}
    for j, name in enumerate(props):
        shift = n * (len(props) - 1 - j)
        mask = (pc >> shift) & ((1 << n) - 1)
        valuation[name] = {worlds[w] for w in range(n) if (mask >> w) & 1}
    return KripkeModel(worlds, relations, valuation), worlds[world_idx]
