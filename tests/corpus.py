"""The seeded term corpus, the scaled modal families and the modal sweep
that the tests, ``tools/digests.py`` and ``tools/scaling.py`` share.

Plain generators over :mod:`dualtab`: this module imports neither pytest
nor hypothesis, so the tools run without them.  ``conftest.py``
re-exports every name for the tests.
"""

import random

from dualtab.frontends.modal import And, Box, Dia, Not, Or, Prop
from dualtab.terms import (Cmpl, Comp, Inter, ONE, Union, Var, fragment_check,
                           parse_term, simplify_ones)

CORPUS_SEED = 20240809
CORPUS_VARS = ("r", "s", "t")
CORPUS_SIZE = 500
CORPUS_DEPTH = 5


def gen_plain_boolean(rng, depth):
    if depth <= 1 or rng.random() < 0.35:
        return Var(rng.choice(CORPUS_VARS))
    op = Union if rng.random() < 0.5 else Inter
    return op(gen_plain_boolean(rng, depth - 1), gen_plain_boolean(rng, depth - 1))


def gen_comp_right(rng, depth):
    if rng.random() < 0.25:
        return ONE
    return gen_h(rng, depth)


def gen_h(rng, depth):
    if depth <= 1:
        return Var(rng.choice(CORPUS_VARS))
    roll = rng.random()
    if roll < 0.30:
        return Cmpl(gen_h(rng, depth - 1))
    if roll < 0.50:
        op = Union if rng.random() < 0.5 else Inter
        return op(gen_h(rng, depth - 1), gen_h(rng, depth - 1))
    right = ONE if rng.random() < 0.45 else gen_h(rng, depth - 1)
    return Comp(gen_plain_boolean(rng, depth - 1), right)


def gen_fragment_term(rng, depth):
    if depth <= 1:
        return ONE if rng.random() < 0.05 else Var(rng.choice(CORPUS_VARS))
    roll = rng.random()
    if roll < 0.22:
        return Cmpl(gen_fragment_term(rng, depth - 1))
    if roll < 0.40:
        return Union(gen_fragment_term(rng, depth - 1), gen_fragment_term(rng, depth - 1))
    if roll < 0.55:
        return Inter(gen_fragment_term(rng, depth - 1), gen_fragment_term(rng, depth - 1))
    left = ONE if rng.random() < 0.5 else gen_plain_boolean(rng, depth - 1)
    return Comp(left, gen_comp_right(rng, depth - 1))


def build_corpus(seed=CORPUS_SEED, size=CORPUS_SIZE, depth=CORPUS_DEPTH):
    rng = random.Random(seed)
    seen = {}
    while len(seen) < size:
        term = simplify_ones(gen_fragment_term(rng, depth))
        assert fragment_check(term), "generator left the fragment"
        assert term.depth <= depth
        seen.setdefault(term, None)
    return list(seen)


def family_text(name, n):
    p = [f"p{i}" for i in range(n)]
    q = [f"q{i}" for i in range(n)]
    conj = lambda parts: " & ".join(f"({s})" for s in parts)  # noqa: E731
    disj = lambda parts: " | ".join(f"({s})" for s in parts)  # noqa: E731
    if name == "modal_dist":
        return (f"({conj(f'<r>({p[i]} | {q[i]})' for i in range(n))}) -> "
                f"({disj(f'<r>{p[i]} | <r>{q[i]}' for i in range(n))})")
    if name == "kdist":
        box = "[r]" * n
        return f"{box}(p0 -> q0) -> ({box}p0 -> {box}q0)"
    if name == "branching":
        return (f"({conj(f'<r>{p[i]} | <r>{q[i]}' for i in range(n))}) -> "
                f"<r>({disj(f'{p[i]} | {q[i]}' for i in range(n))})")
    return (f"~(({conj(f'<r>{p[i]}' for i in range(n))}) & "
            f"({conj(f'[r]({p[i]} -> <r>{p[(i + 1) % n]})' for i in range(n))}))")


MODAL_PROGRAMS = [parse_term(s) for s in ("r", "s", "r | s", "r & s")]


def all_modal(depth):
    """Every modal formula over p and q and the programs r, s, r|s, r&s,
    up to ``depth`` (1 848 formulas at depth 3)."""
    if depth == 1:
        return [Prop("p"), Prop("q")]
    smaller = all_modal(depth - 1)
    out = list(smaller)
    out += [Not(f) for f in smaller]
    out += [ctor(prog, f) for ctor in (Box, Dia) for prog in MODAL_PROGRAMS
            for f in smaller]
    out += [op(a, b) for op in (And, Or) for a in smaller for b in smaller]
    return out
