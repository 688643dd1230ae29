"""A brute-force countermodel search over finite models, used as an
oracle independent of the proof search.

The oracle enumerates every interpretation of a term's variables over
universes of increasing size in a fixed order, so its output is
reproducible.  It builds each witness as a :class:`dualtab.semantics.Model`
and re-checks it with :func:`dualtab.semantics.satisfies`.  It is the
one module of the package that imports numpy when it is imported; the
prover, the CLI and model evaluation import it only when this oracle
runs.

When the one-element universe has no witness, the oracle evaluates the
term's Boolean skeleton once: every variable, composition and converse is
an independent atom, and ``1`` and ``1 ; 1`` are all ones, since a
universe is never empty.  When every combination of the atoms makes the
skeleton true, the term holds at every pair of every model; the oracle
then answers None without enumerating the larger universes, after the
same per-size budget checks, so it refuses exactly what it refused
before.  Internally it packs the last variables' joint
interpretations into bit vectors (the packed axis) and loops over those of
the first ones (the outer assignments).  A term's table holds one row per
pair and one bit per packed interpretation.

Before that loop, each universe size evaluates once every subterm whose
table no outer assignment can change: one over packed variables only, and
one that folds to a constant, a union with an all-ones part or an
intersection or composition with an all-zeros part.  The fragment keeps
``1 ; 1``, whose table is all ones, so such roots are common.  When the
root itself folds or hoists, the first outer assignment decides the size
and the loop runs once.  Every other subterm is evaluated once per outer
assignment.  The memos, keyed by the interned term, keep only the hoisted
tables and those of subterms that more than one parent uses; any other
table is dropped once its parent has it.  Outer variables, ``1`` and
folded constants are one-word columns that broadcast along the packed
axis, and composition ORs ``n`` broadcast ANDs of ``(n, n, words)`` views.
None of this changes the enumeration order: the first witness is always
the first falsifier in the order :func:`brute_force_countermodel` states.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceeded
from .formulas import RelFormula
from .semantics import Model, satisfies
from .terms import ONE, PARTS, Cmpl, Comp, Conv, Inter, One, Union, Var, term_variables

_ELEMENT_NAMES = "abcdefgh"
_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_INNER_BITS_MAX = 22  # packed axis capped at 2^22 combinations
BUDGET_BITS = 28  # enumerated interpretation bits the oracle accepts


def brute_force_countermodel(term, max_universe):
    """First model and valuation falsifying ``x term y``, or None.

    Enumerates universes of size 1..max_universe; for each size, every
    interpretation of the term's variables in lexicographic bitmask order
    (variables sorted by name, pairs ordered row-major); for each
    interpretation, valuations of the two endpoints in lexicographic
    order.  Returns the first falsifier in that order, re-checked through
    :func:`satisfies` before being returned.

    Refuses (``BudgetExceeded``) when ``variables * size**2`` exceeds
    :data:`BUDGET_BITS` for a size that the search actually reaches.
    """
    names = term_variables(term)
    keep = _shared(term)
    tautology = False
    for n in range(1, max_universe + 1):
        if len(names) * n * n > BUDGET_BITS:
            raise BudgetExceeded(
                f"{len(names)} variables over a universe of {n} exceed the "
                f"oracle budget of {BUDGET_BITS} bits"
            )
        if tautology:
            continue
        hit = _search_universe(term, names, n, keep)
        if hit is not None:
            model, valuation = hit
            if satisfies(model, valuation, RelFormula("x", term, "y")):
                raise AssertionError("oracle witness failed its own re-check")
            return model, valuation
        if n == 1:
            # a skeleton tautology has no witness of any size, so only a
            # term without one of size 1 pays for evaluating its skeleton
            tautology = _skeleton_tautology(term, keep)
    return None


def _skeleton_tautology(term, keep):
    """Whether the Boolean skeleton of ``term`` is a tautology, so that
    ``term`` holds at every pair of every model.

    The skeleton reads every variable, composition and converse as an
    independent atom, except ``1 ; 1``, which like ``1`` is all ones
    because a universe is never empty.  It is evaluated once, at one
    pair, over every combination of the atoms' truth values packed along
    the bit axis; over more than :data:`_INNER_BITS_MAX` atoms it is not
    evaluated and the answer is False.
    """
    ones = np.full((1, 1), _ALL_ONES, dtype=np.uint64)
    memo = {ONE: ones, Comp(ONE, ONE): ones}
    atoms, seen, stack = [], set(memo), [term]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            if isinstance(t, (Var, Comp, Conv)):
                atoms.append(t)
            else:
                stack.extend(PARTS[type(t)](t))
    if len(atoms) > _INNER_BITS_MAX:
        return False
    nwords = max(1, (1 << len(atoms)) // _WORD_BITS)
    for j, t in enumerate(atoms):
        memo[t] = _bit_pattern(j, nwords)[None, :]
    # with fewer than 64 combinations, each bit of the one word still
    # holds one of them: bit b holds combination b mod 2**len(atoms)
    return bool((_eval_rows(term, memo, 1, keep) == _ALL_ONES).all())


def _search_universe(term, names, n, keep):
    universe = tuple(_ELEMENT_NAMES[:n])
    q = n * n
    k = len(names)

    n_inner = 0
    while n_inner < k and q * (n_inner + 1) <= _INNER_BITS_MAX:
        n_inner += 1
    outer_names = names[: k - n_inner]
    inner_names = names[k - n_inner:]

    combos = 1 << (q * n_inner)
    nwords = max(1, combos // _WORD_BITS)
    tail_mask = _ALL_ONES if combos >= _WORD_BITS else np.uint64((1 << combos) - 1)

    fixed = {One(): np.full((q, 1), _ALL_ONES, dtype=np.uint64)}
    for i, name in enumerate(inner_names):
        fixed[Var(name)] = np.stack(
            [_bit_pattern(q * (n_inner - 1 - i) + p, nwords) for p in range(q)])
    root = _hoist(term, fixed, n, keep)
    if root is not None:
        fixed[term] = root
    shifts = np.arange(q)

    # A root that no outer assignment changes is decided by the first one.
    assignments = itertools.product(range(1 << q), repeat=len(outer_names))
    for outer_masks in itertools.islice(assignments, None if root is None else 1):
        outer = dict(zip(outer_names, outer_masks))
        memo = dict(fixed)
        for name, mask in outer.items():
            memo[Var(name)] = np.where((mask >> shifts) & 1, _ALL_ONES, np.uint64(0))[:, None]
        # With more than one word, a one-word row comes from ``1``, the
        # outer variables or a folded constant, so it is all ones or all
        # zeros and combination 0 is its first falsifier; with one word,
        # every row is read as it is.
        rows = _eval_rows(term, memo, n, keep)
        merged = np.bitwise_not(np.bitwise_and.reduce(rows, axis=0))
        merged[-1] &= tail_mask
        nz = np.nonzero(merged)[0]
        if nz.size == 0:
            continue
        w = int(nz[0])
        word = int(merged[w])
        bit = (word & -word).bit_length() - 1
        combo = w * _WORD_BITS + bit
        pair_idx = min(p for p in range(q) if not (int(rows[p, w]) >> bit) & 1)
        interp = dict(outer)
        for i, name in enumerate(inner_names):
            interp[name] = (combo >> (q * (n_inner - 1 - i))) & ((1 << q) - 1)
        cells = [(a, b) for a in universe for b in universe]
        model = Model(universe, {name: {cells[p] for p in range(q) if (mask >> p) & 1}
                                 for name, mask in interp.items()})
        x, y = cells[pair_idx]
        return model, {"x": x, "y": y}
    return None


def _bit_pattern(j, nwords):
    """Packed table of 'bit j of the combination index is set'."""
    if j < 6:
        word = np.uint64(sum(1 << b for b in range(_WORD_BITS) if (b >> j) & 1))
        return np.full(nwords, word, dtype=np.uint64)
    block = (np.arange(nwords, dtype=np.uint64) >> np.uint64(j - 6)) & np.uint64(1)
    return np.where(block.astype(bool), _ALL_ONES, np.uint64(0))


def _shared(term):
    """The subterms of ``term`` that more than one parent uses, counting a
    parent that uses one twice; each distinct subterm is visited once."""
    seen, shared, stack = set(), set(), [term]
    while stack:
        t = stack.pop()
        if t in seen:
            shared.add(t)
        else:
            seen.add(t)
            stack.extend(PARTS[type(t)](t))
    return shared


def _hoist(t, memo, n, keep):
    """The table of ``t`` if no outer assignment can change it, else None:
    ``t`` is ``1`` or a packed variable, or all its parts hoist, or it is a
    union with an all-ones part or an intersection or composition with an
    all-zeros part.  ``memo`` holds ``1`` and the packed variables; it takes
    the parts that hoist of a ``t`` that does not, and the answer for every
    ``t`` in ``keep``, None included, so a shared subterm is walked once."""
    if t in memo:
        return memo[t]
    parts = PARTS[type(t)](t)
    tables = [_hoist(u, memo, n, keep) for u in parts]
    match t:
        case Var():
            out = None
        case _ if all(a is not None for a in tables):
            out = _table(t, tables, n)
        case Union() if any(a is not None and (a == _ALL_ONES).all() for a in tables):
            out = np.full((n * n, 1), _ALL_ONES, dtype=np.uint64)
        case Inter() | Comp() if any(a is not None and not a.any() for a in tables):
            out = np.zeros((n * n, 1), dtype=np.uint64)
        case _:
            memo.update((u, a) for u, a in zip(parts, tables) if a is not None)
            out = None
    if t in keep:
        memo[t] = out
    return out


def _eval_rows(t, memo, n, keep):
    """Packed table of ``t`` over an ``n``-element universe: row ``p`` holds
    one bit per packed interpretation, set when pair ``p`` is in ``t``.  A
    row of one word broadcasts along the packed axis.  ``memo`` holds the
    variables, ``1`` and the hoisted subterms (None where a shared one does
    not hoist), and takes every subterm in ``keep`` evaluated here; results
    are shared and must not be mutated."""
    out = memo.get(t)
    if out is None:
        out = _table(t, [_eval_rows(u, memo, n, keep) for u in PARTS[type(t)](t)], n)
        if t in keep:
            memo[t] = out
    return out


def _table(t, tables, n):
    """Packed table of ``t`` from the tables of its parts."""
    match t:
        case Cmpl():
            return np.bitwise_not(tables[0])
        case Union():
            return tables[0] | tables[1]
        case Inter():
            return tables[0] & tables[1]
        case Comp():
            lv, rv = (a.reshape(n, n, -1) for a in tables)
            comp = lv[:, 0, None] & rv[0]
            for c in range(1, n):
                comp |= lv[:, c, None] & rv[c]
            return comp.reshape(n * n, -1)
        case Conv():
            return tables[0].reshape(n, n, -1).transpose(1, 0, 2).reshape(n * n, -1)
    raise TypeError(f"not a relational term: {t!r}")
