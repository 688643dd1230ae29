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


# What the command-line generator puts together: each command with its
# positionals and options, and some names that are no command; options
# that no command has; the texts of positionals and values, terms that
# begin with "-" with and without a space, negative numbers and an empty
# string among them; and the values of the two numeric options, in range
# and out of it.
COMMAND_SHAPES = {
    "prove": (1, ("json", "trace", "max-steps", "oracle-size", "verify")),
    "entail": (0, ("premise", "conclusion", "json", "trace", "max-steps",
                   "oracle-size", "verify")),
    "modal": (1, ("json", "trace", "max-steps", "oracle-size", "verify")),
    "check-model": (2, ()),
    "fragment": (1, ("json",)),
    "simplify": (1, ("json",)),
    "prov": (1, ()),
    "help": (0, ()),
}
COMMAND_OPTIONS = ("json", "trace", "max-steps", "oracle-size", "verify",
                   "premise", "conclusion", "x", "jsonx")
COMMAND_TEXTS = ("r", "r | -r", "-r | s", "-(r ; 1) | s", "1 ; r", "p -> [r]p",
                 "-1", "-25", "-2.5", "-.5", "", "-r", "-(r;1)", "--x y", "-x")
COMMAND_NUMBERS = ("1", "4", "3", "1000", "+3", " 2", "0", "-1", "5", "x", "2.5", "")


def command_lines(seed, count):
    """``count`` seeded argument lists for ``dualtab``.  They cover every
    command and some unknown ones; options of the command and of others,
    unknown options and ``-h``, in every position, written out or as a
    prefix, as ``--name=value`` or ``--name value``, repeated, with a
    value out of range or missing; positionals that begin with ``-``, one
    too few or too many; and ``--`` between the options and the
    positionals, or none."""
    rng = random.Random(seed)
    return [_command_line(rng) for _ in range(count)]


def _command_line(rng):
    command = rng.choice(list(COMMAND_SHAPES))
    wanted, own = COMMAND_SHAPES[command]
    wanted += rng.choice((-1, 0, 0, 0, 0, 0, 0, 1))
    positionals = [_pick(rng, COMMAND_TEXTS) for _ in range(max(wanted, 0))]
    names = [rng.choice(own if own and rng.random() < 0.9 else COMMAND_OPTIONS)
             for _ in range(rng.randrange(5))]
    if command == "entail":
        names += [name for name in ("premise", "conclusion") if rng.random() < 0.95]
    options = [_command_option(rng, name) for name in names]
    if rng.random() < 0.05:
        options.append([rng.choice(("-h", "--help", "--he", "--h"))])
    rng.shuffle(options)
    if rng.random() < 0.4:
        line = [arg for option in options for arg in option] + ["--", *positionals]
    else:
        line = list(positionals)
        for option in options:
            at = rng.randint(0, len(line))
            line[at:at] = option
    before = [rng.choice(("--json", "-h", "--he", "-1"))] if rng.random() < 0.03 else []
    return before + ([command] if rng.random() < 0.98 else []) + line


def _pick(rng, choices):
    """One of ``choices``, the first half three times as often as the rest."""
    half = len(choices) // 2
    return rng.choice(choices[:half] if rng.random() < 0.75 else choices[half:])


def _command_option(rng, name):
    """An option as one or two arguments: written out or shortened, its
    value after ``=`` or in the next argument, or missing."""
    written = "--" + (name[:rng.randint(1, len(name))] if rng.random() < 0.3 else name)
    if name in ("max-steps", "oracle-size"):
        value = _pick(rng, COMMAND_NUMBERS)
    elif name in ("premise", "conclusion"):
        value = _pick(rng, COMMAND_TEXTS)
    else:
        value = None if rng.random() < 0.95 else rng.choice(("1", ""))
    roll = rng.random()
    if value is None or roll < 0.03:
        return [written]
    return [f"{written}={value}"] if roll < 0.4 else [written, value]
