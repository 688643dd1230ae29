"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria run only against the prover package itself plus its two
independent oracles (finite-model enumeration and the Kripke search).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import pytest

from conftest import CORPUS_DEPTH, all_modal, build_corpus
from dualtab.cli import main
from dualtab.engine import (VAR_BOUND_FACTOR, Countermodel, Proof,
                            run_procedure, stats_of)
from dualtab.formulas import RelFormula
from dualtab.frontends import (EntailmentProblem, encode_entailment,
                               kripke_countermodel, translate_modal)
from dualtab.oracle import brute_force_countermodel
from dualtab.semantics import falsifies_branch, satisfies
from dualtab.terms import (Cmpl, Comp, Inter, ONE, Union, Var, components,
                           fragment_check, parse_term, simplify_ones)
from reference import has_nbool_construction, is_nbool


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {detail}"


def F(left, text, right):
    return RelFormula(left, parse_term(text), right)


def test_criterion_1_worked_examples():
    started = time.monotonic()

    fragment_examples = [
        "-((r1 | s) ; (p ; 1))",
        "1 ; ((r1 | s) ; -((((q | p) & r1) ; 1)))",
        "1 ; (((r1 | s) & r2) ; 1)",
    ]
    frag_ok = all(
        bool(fragment_check(simplify_ones(parse_term(t)))) for t in fragment_examples
    )

    n = dict.fromkeys([
        F("x", "-r", "z"), F("x", "s", "z"), F("x", "-p", "y"),
        F("z", "p | s", "y"),
    ])
    classifications = [
        is_nbool(F("x", "((-r) | s) & q", "z"), n) is True,
        is_nbool(F("x", "s & (-(q | p))", "z"), n) is False,
        has_nbool_construction(F("x", "((-r) | s) & q", "z"), n) is True,
        has_nbool_construction(F("x", "s & (-(q | p))", "z"), n) is True,
    ]

    elapsed = time.monotonic() - started
    ok = frag_ok and all(classifications) and elapsed < 1.0
    report(1, "worked examples", ok,
           f"fragment={frag_ok} forcing={classifications} {elapsed:.3f}s")


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def corpus_verdicts(corpus):
    started = time.monotonic()
    results = [(term, run_procedure(term)) for term in corpus]
    return results, time.monotonic() - started


def test_criterion_2_countermodel_soundness(corpus_verdicts):
    results, prover_time = corpus_verdicts
    started = time.monotonic()
    failures = 0
    countermodels = 0
    for term, verdict in results:
        if isinstance(verdict, Countermodel):
            countermodels += 1
            query = RelFormula("x", term, "y")
            if not falsifies_branch(verdict.model, verdict.valuation, verdict.branch):
                failures += 1
            elif satisfies(verdict.model, verdict.valuation, query):
                failures += 1
    elapsed = prover_time + (time.monotonic() - started)
    ok = failures == 0 and countermodels > 0 and len(results) >= 500 and elapsed < 120
    report(2, "countermodel soundness", ok,
           f"{countermodels}/{len(results)} countermodels, failures={failures}, "
           f"{elapsed:.1f}s")


def test_criterion_3_validity_soundness(corpus_verdicts):
    results, _ = corpus_verdicts
    failures = 0
    proofs = 0
    for term, verdict in results:
        if isinstance(verdict, Proof):
            proofs += 1
            if brute_force_countermodel(term, 3) is not None:
                failures += 1
    ok = failures == 0 and proofs > 0
    report(3, "validity soundness", ok, f"{proofs} proofs, failures={failures}")


def _all_terms(depth, variables=("r", "s")):
    if depth == 1:
        return [ONE] + [Var(v) for v in variables]
    smaller = _all_terms(depth - 1, variables)
    out = list(smaller)
    out += [Cmpl(t) for t in smaller]
    for a in smaller:
        for b in smaller:
            out += [Union(a, b), Inter(a, b), Comp(a, b)]
    return out


def test_criterion_4_oracle_to_prover():
    terms = list(dict.fromkeys(
        t for t in (simplify_ones(u) for u in _all_terms(3))
        if fragment_check(t)
    ))
    failures = 0
    refuted = 0
    for term in terms:
        if brute_force_countermodel(term, 2) is not None:
            refuted += 1
            if not isinstance(run_procedure(term), Countermodel):
                failures += 1
    ok = failures == 0 and refuted > 0 and len(terms) > 500
    report(4, "oracle-to-prover agreement", ok,
           f"{refuted}/{len(terms)} oracle-refuted terms, failures={failures}")


def test_criterion_5_termination_instrumentation(corpus_verdicts):
    # the per-step progress check (the node weight decreases or a
    # composition records a new instance) and the component/endpoint discipline are asserted
    # inside the engine on every step; any violation raises
    # EngineInvariantError, so a completed corpus run is itself the
    # evidence that none fired
    results, _ = corpus_verdicts
    cap_hits = sum(1 for _, v in results if v.tree.steps >= 1_000_000)
    bound_violations = 0
    for term, verdict in results:
        limit = VAR_BOUND_FACTOR * len(components(term)) ** 2 + 2
        if verdict.tree.max_vars > limit:
            bound_violations += 1
    ok = cap_hits == 0 and bound_violations == 0
    report(5, "termination instrumentation", ok,
           f"cap_hits={cap_hits} variable_bound_violations={bound_violations} "
           f"max_steps={max(v.tree.steps for _, v in results)}")


def test_criterion_6_entailment():
    started = time.monotonic()
    valid = encode_entailment(EntailmentProblem(
        (parse_term("-r | -(s1 | s2)"),), parse_term("-s1 | -r")))
    verdict_valid = run_procedure(valid)
    first = time.monotonic() - started

    started = time.monotonic()
    invalid = encode_entailment(EntailmentProblem(
        (parse_term("-r | -s1"),), parse_term("-r | -s2")))
    verdict_invalid = run_procedure(invalid)
    refuted = (isinstance(verdict_invalid, Countermodel)
               and falsifies_branch(verdict_invalid.model, verdict_invalid.valuation,
                                    verdict_invalid.branch)
               and not satisfies(verdict_invalid.model, verdict_invalid.valuation,
                                 RelFormula("x", invalid, "y")))
    second = time.monotonic() - started

    ok = (isinstance(verdict_valid, Proof) and refuted
          and first < 1.0 and second < 1.0)
    report(6, "entailment", ok,
           f"valid={type(verdict_valid).__name__} invalid_refuted={refuted} "
           f"{first:.3f}s/{second:.3f}s")


def test_criterion_7_modal_agreement():
    started = time.monotonic()
    formulas = all_modal(3)
    failures = 0
    refuted = proofs = 0
    for f in formulas:
        term = translate_modal(f)
        verdict = run_procedure(term)
        refutation = kripke_countermodel(f, 3)
        if refutation is not None:
            refuted += 1
            if not isinstance(verdict, Countermodel):
                failures += 1
        if isinstance(verdict, Proof):
            proofs += 1
            if refutation is not None:
                failures += 1
        else:
            query = RelFormula("x", term, "y")
            if not falsifies_branch(verdict.model, verdict.valuation, verdict.branch):
                failures += 1
            elif satisfies(verdict.model, verdict.valuation, query):
                failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and len(formulas) == 1848 and elapsed < 300
    report(7, "modal agreement", ok,
           f"{len(formulas)} formulas, proofs={proofs}, kripke_refuted={refuted}, "
           f"failures={failures}, {elapsed:.1f}s")


def test_criterion_8_determinism(corpus, capsys):
    from dualtab.terms import render_term

    failures = 0
    for term in corpus[:20]:
        text = render_term(term)
        main(["prove", text, "--json"])
        first = capsys.readouterr().out
        main(["prove", text, "--json"])
        second = capsys.readouterr().out
        if first != second or not first:
            failures += 1
    with capsys.disabled():
        report(8, "determinism", failures == 0, f"20 samples, failures={failures}")
