"""The term walkers, each one loop over an explicit stack, against the
recursive definitions they replaced (``reference.py``), and their
independence from the caller's stack."""

import random
import sys
import warnings

import pytest

import reference
from conftest import all_modal
from dualtab.engine import Countermodel, run_procedure, verdict_to_json
from dualtab.errors import NotBoolean, UnknownVariableWarning
from dualtab.formulas import RelFormula, gate_forced
from dualtab.frontends import (EntailmentProblem, encode_entailment,
                               parse_modal, translate_modal)
from dualtab.frontends.modal import And, Box, Dia, Not, Or, Prop, _translate, render_modal
from dualtab.semantics import Model, eval_term, falsifies_branch, satisfies
from dualtab.terms import (MAX_DEPTH, MAX_NESTING, ONE, Cmpl, Comp, Conv, Inter,
                           Union, Var, components, nf_cmpl, parse_term,
                           render_term, simplify_ones, term_variables)
from test_parsing import chain, deep_reference, stack_depth  # noqa: F401

SEED = 20261021
NAMES = ("r", "s", "t")
# t has no interpretation, so evaluation warns for it
MODEL = Model(("a", "b"), {"r": {("a", "b"), ("b", "b")}, "s": {("b", "a")}})


def random_term(rng, depth, boolean=False):
    """A term over :data:`NAMES` and ``1`` with every operator, or only
    the Boolean ones."""
    if depth <= 1 or rng.random() < 0.2:
        return ONE if rng.random() < 0.15 else Var(rng.choice(NAMES))
    roll = rng.random()
    if roll < 0.25:
        return Cmpl(random_term(rng, depth - 1, boolean))
    if roll < 0.35 and not boolean:
        return Conv(random_term(rng, depth - 1, boolean))
    op = rng.choice((Union, Inter) if boolean else (Union, Inter, Comp))
    return op(random_term(rng, depth - 1, boolean), random_term(rng, depth - 1, boolean))


def plain_term(rng, depth):
    if depth <= 1 or rng.random() < 0.3:
        return Var(rng.choice(NAMES))
    op = rng.choice((Union, Inter))
    return op(plain_term(rng, depth - 1), plain_term(rng, depth - 1))


def deep_terms():
    """Flat chains at :data:`MAX_DEPTH`, some with ``1`` to simplify away
    and some under a complement or converse."""
    n = MAX_DEPTH
    texts = [chain(op, n, "r") for op in ("|", "&", ";")]
    texts += [f"-({chain('|', n - 1, 'r')})", f"({chain('&', n - 1, 'r')})^",
              f"s ; ({chain('|', n - 1, 'r')})", f"-1 | {chain('|', n - 2, 'r')}",
              f"1 & {chain('&', n - 1, 'r')}", f"-({chain('&', n - 2, '-r')})"]
    return [parse_term(text) for text in texts]


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except NotBoolean as exc:
        return NotBoolean, str(exc)


def evaluation(evaluate, t):
    """The pair set of ``t`` in :data:`MODEL` and the warnings, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnknownVariableWarning)
        pairs = evaluate(MODEL, t)
    return pairs, [str(w.message) for w in caught]


def test_term_walkers_agree_with_the_recursive_ones(fragment_corpus, deep_reference):
    rng = random.Random(SEED)
    terms = list(fragment_corpus) + [random_term(rng, 7) for _ in range(300)]
    terms += [random_term(rng, 7, boolean=True) for _ in range(200)] + deep_terms()
    for t in terms:
        text = render_term(t)
        assert text == reference.render_term(t)
        assert term_variables(t) == reference.term_variables(t), text
        assert components(t) == reference.components(t), text
        assert simplify_ones(t) is reference.simplify_ones(t), text
        assert outcome(reference.nf_cmpl, t) == outcome(nf_cmpl, t), text
        assert evaluation(eval_term, t) == evaluation(reference.eval_term, t), text
    memo, expected = {}, {}
    assert [render_term(t, memo) for t in terms] == [
        reference.render_term(t, expected) for t in terms]
    assert memo == expected


def test_gate_forced_agrees_with_the_recursive_one(deep_reference):
    rng = random.Random(SEED)
    gates = [plain_term(rng, 6) for _ in range(300)]
    gates += [parse_term(chain(op, MAX_DEPTH, "r")) for op in ("|", "&")]
    literals = [RelFormula("x", Cmpl(Var(name)), "z") for name in NAMES + ("r1", "r5")]
    for gate in gates:
        n = set(rng.sample(literals, rng.randint(0, len(literals))))
        assert gate_forced("x", gate, "z", n) == reference.gate_forced("x", gate, "z", n)


def random_modal(rng, depth):
    if depth <= 1 or rng.random() < 0.2:
        return Prop(rng.choice(("p", "q")))
    roll = rng.random()
    if roll < 0.2:
        return Not(random_modal(rng, depth - 1))
    if roll < 0.5:
        program = plain_term(rng, 3)
        return rng.choice((Box, Dia))(program, random_modal(rng, depth - 1))
    return rng.choice((And, Or))(random_modal(rng, depth - 1), random_modal(rng, depth - 1))


def test_modal_walkers_agree_with_the_recursive_ones(deep_reference):
    rng = random.Random(SEED)
    formulas = rng.sample(all_modal(3), 300) + [random_modal(rng, 8) for _ in range(200)]
    formulas.append(parse_modal(chain("|", MAX_DEPTH - 1, "p")))
    formulas.append(parse_modal(" <-> ".join(f"p{i}" for i in range(10))))
    for f in formulas:
        assert render_modal(f) == reference.render_modal(f)
        assert _translate(f, {}) is reference.translate(f, {})


def from_depth(frames, fn, *args):
    """``fn(*args)`` from ``frames`` interpreter frames deeper."""
    if frames > 0:
        return from_depth(frames - 1, fn, *args)
    return fn(*args)


def deep_and_top(fn, *args):
    """``fn(*args)`` from ``sys.getrecursionlimit() - 60`` frames deep,
    then from here; the deep call comes first, so that it finds no memo
    the other one left on a term."""
    frames = sys.getrecursionlimit() - 60 - stack_depth()
    return from_depth(frames, fn, *args), fn(*args)


def decide(term):
    return verdict_to_json(run_procedure(term))


@pytest.mark.parametrize("text", [
    pytest.param(" | ".join(f"r{i}" for i in range(MAX_DEPTH - 1)) + " | -r0", id="depth"),
    pytest.param("-(" * (MAX_NESTING // 2) + "r ; 1 | 1 ; 1" + ")" * (MAX_NESTING // 2),
                 id="nesting"),
])
def test_prove_from_deep_in_the_stack(text):
    deep, top = deep_and_top(decide, parse_term(text))
    assert deep == top
    assert top["verdict"] == "valid"


def test_translate_from_deep_in_the_stack():
    text = chain("|", MAX_DEPTH - 1, "p")
    deep, top = deep_and_top(lambda: translate_modal(parse_modal(text)))
    assert deep is top
    assert top.depth == MAX_DEPTH


def test_encode_entailment_from_deep_in_the_stack():
    # the negated premise's complement normal form is a deep intersection
    premise = parse_term(" | ".join(f"-r{i}" for i in range(MAX_DEPTH - 5)))
    problem = EntailmentProblem((premise,), parse_term("-r0 | s"))
    deep, top = deep_and_top(encode_entailment, problem)
    assert deep is top
    assert top.depth == MAX_DEPTH - 2


def test_falsifies_branch_from_deep_in_the_stack():
    term = parse_term(chain("|", MAX_DEPTH, "r"))
    verdict = run_procedure(term)
    assert isinstance(verdict, Countermodel)

    def falsified():
        query = RelFormula("x", term, "y")
        return (falsifies_branch(verdict.model, verdict.valuation, verdict.branch),
                satisfies(verdict.model, verdict.valuation, query))

    assert deep_and_top(falsified) == ((True, False), (True, False))


def test_a_gate_at_the_depth_limit():
    # the deep program is a gate that each admitted literal of its
    # variables is checked against
    program = chain("|", MAX_DEPTH - 4, "r")
    term = translate_modal(parse_modal(f"<r0>p -> <{program}>p"))
    deep, top = deep_and_top(decide, term)
    assert deep == top
    assert top["verdict"] == "valid"
