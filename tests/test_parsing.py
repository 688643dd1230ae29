"""The operator-precedence parser against the recursive-descent one it
replaced (``reference.py``), and its independence from the caller's stack."""

import random
import sys

import pytest

import reference
from dualtab.errors import ParseError
from dualtab.formulas import parse_formula
from dualtab.frontends import parse_modal
from dualtab.terms import MAX_DEPTH, MAX_NESTING, parse_term

SEED = 20231

TERM = {
    "atom": ["r", "s", "t1", "x_2", "1"],
    "infix": ["|", "&", ";", "∪", "∩"],
    "prefix": ["-", "−"],
    "postfix": ["^", "⌣"],
    # pieces that break the input, a few of them only for the parser
    "junk": ["(", ")", "^", "-", "r", "1", "|", "x", "y", "", "  ", "?", "∧"],
}
MODAL = {
    "atom": ["p", "q", "p1"],
    "infix": ["&", "|", "->", "<->"],
    "prefix": ["~", "[r]", "<s>", "[r ∪ s]", "<r & s1>", "[r|s&t]"],
    "postfix": [],
    "junk": ["(", ")", "~", "p", "&", "->", "<->", "[-r]", "<1>", "[r ?]", "[r", "<r", "",
             "  ", "-", "?", "∧"],
}

# around a term for ``parse_formula``: the triple, the bare term, and both wrong
ENDPOINTS = [("x ", " y"), ("x ", " y"), ("", ""), ("x ", ""), ("x y ", " y z")]


def operand(rng, g, depth):
    """Text of one operand of grammar ``g``: prefixes, an atom or a group,
    postfixes."""
    text = "".join(rng.choice(g["prefix"]) for _ in range(rng.choice((0, 0, 0, 1, 2))))
    if depth > 0 and rng.random() < 0.3:
        text += "(" + expression(rng, g, depth - 1) + ")"
    else:
        text += rng.choice(g["atom"])
    if g["postfix"]:
        text += "".join(rng.choice(g["postfix"]) for _ in range(rng.choice((0, 0, 1, 2))))
    return text


def expression(rng, g, depth=3):
    """Operands joined by operators of every precedence, unparenthesised."""
    parts = [operand(rng, g, depth)]
    for _ in range(rng.randrange(5)):
        parts += [rng.choice(g["infix"]), operand(rng, g, depth)]
    return rng.choice(("", " ", "  ")).join(parts)


def mutate(rng, g, text):
    """``text`` with a piece of junk of grammar ``g`` put in, or a
    character taken out."""
    i = rng.randrange(len(text) + 1)
    if rng.random() < 0.3:
        return text[:i] + text[i + 1:]
    return text[:i] + rng.choice(g["junk"]) + text[i:]


def chain(op, n, atom):
    return f" {op} ".join(f"{atom}{i % 7}" for i in range(n))


def limit_shapes():
    """Inputs at and around both limits, for each parser."""
    terms, modals = [], []
    for k in range(MAX_NESTING - 1, MAX_NESTING + 2):
        terms += ["(" * k + "r | -s" + ")" * k, "-" * k + "r", "r" + "⌣" * k,
                  "-(" * (k // 2) + "r" + ")" * (k // 2),
                  "-" * (k // 2) + "(r)" + "^" * (k - k // 2),
                  "(" * (k - 1) + "r^" + ")" * (k - 1)]
        modals += ["(" * k + "p | ~p" + ")" * k, "~" * k + "p", "[r]" * k + "p",
                   "p -> " * k + "q", "(p -> " * (k // 2) + "q" + ")" * (k // 2),
                   "<r>~" * (k // 2) + "p"]
        # siblings do not add up
        terms.append(" | ".join(["-" * k + "r", "(" * k + "r" + ")" * k, "r" + "^" * k] * 2))
        modals.append(" & ".join(["~" * k + "p", "(" * k + "p" + ")" * k, "[r]" * k + "p",
                                  "(" + "p -> " * (k - 1) + "q)"] * 2))
    for n in range(MAX_DEPTH - 1, MAX_DEPTH + 2):
        terms += [chain(op, n, "r") for op in ("|", "&", ";")]
        terms += [f"-({chain('|', n - 1, 'r')})", f"({chain('&', n - 1, 'r')})^",
                  f"s ; ({chain('|', n - 1, 'r')})"]
        modals += [chain(op, n, "p") for op in ("|", "&")]
        modals += [f"{chain('|', n - 2, 'p')} -> q", f"{chain('&', n - 3, 'p')} <-> q",
                   f"q -> {chain('|', n - 1, 'p')}", f"~({chain('&', n - 1, 'p')})",
                   f"[{chain('|', n - 1, 'r')}]p", f"<{chain('&', n - 2, 'r')}>~p"]
    return terms, modals


def outcome(parse, text):
    """What ``parse(text)`` gives: True and the parsed object, interned, or
    False and its :class:`ParseError`'s message, offset and expected set."""
    try:
        return True, parse(text)
    except ParseError as exc:
        return False, exc.message, exc.offset, exc.expected


@pytest.fixture
def deep_reference():
    """Room for the reference parsers at the nesting limit under pytest."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_agrees_with_the_recursive_descent_parsers(deep_reference):
    rng = random.Random(SEED)
    cases = []
    for _ in range(700):
        term = expression(rng, TERM)
        cases += [(parse_term, reference.parse_term, term),
                  (parse_term, reference.parse_term, mutate(rng, TERM, term))]
        modal = expression(rng, MODAL)
        cases += [(parse_modal, reference.parse_modal, modal),
                  (parse_modal, reference.parse_modal, mutate(rng, MODAL, modal))]
        left, right = rng.choice(ENDPOINTS)
        triple = left + term + right
        cases.append((parse_formula, reference.parse_formula,
                      mutate(rng, TERM, triple) if rng.random() < 0.5 else triple))
    terms, modals = limit_shapes()
    cases += [(parse_term, reference.parse_term, t) for t in terms]
    cases += [(parse_formula, reference.parse_formula, f"x {t} y") for t in terms]
    cases += [(parse_modal, reference.parse_modal, m) for m in modals]
    parsed = 0
    for parse, old, text in cases:
        new = outcome(parse, text)
        assert new == outcome(old, text), text
        parsed += new[0]
    assert 0.3 < parsed / len(cases) < 0.7


def from_depth(frames, parse, text):
    """``outcome(parse, text)`` from ``frames`` interpreter frames deeper."""
    if frames > 0:
        return from_depth(frames - 1, parse, text)
    return outcome(parse, text)


def stack_depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def nested(k, inner):
    return "(" * k + inner + ")" * k


@pytest.mark.parametrize("parse, text", [
    pytest.param(parse_term, nested(MAX_NESTING, "r | -r"), id="term-nesting"),
    pytest.param(parse_term, nested(MAX_NESTING + 1, "r | -r"), id="term-nesting+1"),
    pytest.param(parse_term, "-(" * (MAX_NESTING // 2) + "r^" + ")" * (MAX_NESTING // 2),
                 id="term-nesting+1-mixed"),
    pytest.param(parse_term, chain("|", MAX_DEPTH, "r"), id="term-depth"),
    pytest.param(parse_term, chain(";", MAX_DEPTH + 1, "r"), id="term-depth+1"),
    pytest.param(parse_modal, nested(MAX_NESTING, "p | ~p"), id="modal-nesting"),
    pytest.param(parse_modal, nested(MAX_NESTING + 1, "p | ~p"), id="modal-nesting+1"),
    pytest.param(parse_modal, "p -> " * MAX_NESTING + "q", id="modal-nesting-implication"),
    pytest.param(parse_modal, chain("|", MAX_DEPTH, "p"), id="modal-depth"),
    pytest.param(parse_modal, chain("&", MAX_DEPTH + 1, "p"), id="modal-depth+1"),
    pytest.param(parse_formula, nested(MAX_NESTING, "r | -r"), id="formula-nesting-bare"),
    pytest.param(parse_formula, "x " + nested(MAX_NESTING, "r & s") + " y", id="formula-nesting"),
    pytest.param(parse_formula, "x " + nested(MAX_NESTING + 1, "r & s") + " y",
                 id="formula-nesting+1"),
    pytest.param(parse_formula, f"x {chain('&', MAX_DEPTH, 'r')} y", id="formula-depth"),
    pytest.param(parse_formula, f"x {chain('&', MAX_DEPTH + 1, 'r')} y", id="formula-depth+1"),
])
def test_caller_depth_does_not_matter(parse, text):
    frames = sys.getrecursionlimit() - 60 - stack_depth()
    assert from_depth(frames, parse, text) == outcome(parse, text)
