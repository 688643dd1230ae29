"""A search makes no reference cycles and runs with the cyclic garbage
collector paused.

With the collector off, whatever a run leaves unreachable stays on the
heap, and ``gc.collect()`` counts it: a search and the walkers it calls
must leave nothing for it.  ``ProofSearch.run`` pauses the collector and
gives the caller back the setting it had, whatever the search's exit.
"""

import gc
import types
from pathlib import Path

import pytest

import dualtab
from conftest import build_corpus, family_text
from dualtab.engine import run_procedure
from dualtab.errors import FragmentViolation, ResourceExhausted
from dualtab.frontends import (EntailmentProblem, encode_entailment,
                               eval_modal, kripke_countermodel, parse_modal,
                               translate_modal)
from dualtab.oracle import brute_force_countermodel
from dualtab.terms import parse_term, simplify_ones

FAMILIES = ("modal_dist", "kdist", "branching", "cycle")


@pytest.fixture
def collector_off():
    """Turn the collector off, with no garbage left from before; turn it
    back on after the test."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def family_term(name, n):
    return translate_modal(parse_modal(family_text(name, n)))


def entailment_term():
    premises = (parse_term("-r | -(s | t)"),)
    return encode_entailment(EntailmentProblem(premises, parse_term("-s | -r")))


@pytest.mark.usefixtures("collector_off")
class TestNoCycles:
    def test_corpus(self):
        corpus = build_corpus()
        assert gc.collect() == 0
        for term in corpus:
            run_procedure(term)
        assert gc.collect() == 0

    @pytest.mark.parametrize("name", FAMILIES)
    def test_family(self, name):
        term = family_term(name, 4)
        assert gc.collect() == 0
        verdict = run_procedure(term)
        del verdict
        assert gc.collect() == 0

    def test_parse_simplify_and_entailment(self):
        # the walkers over terms are called outside a search too
        run_procedure(simplify_ones(entailment_term()))
        run_procedure(translate_modal(parse_modal(family_text("kdist", 3))))
        assert gc.collect() == 0

    def test_trace(self):
        events = []
        run_procedure(family_term("cycle", 4), trace=events.append)
        assert events
        del events
        assert gc.collect() == 0

    def test_modal_oracles(self):
        f = parse_modal("[r](p -> q) -> ([r]p -> <r>q)")
        model, world = kripke_countermodel(f, 3)
        assert not eval_modal(f, model, world)
        assert kripke_countermodel(parse_modal("p | ~p"), 2) is None
        assert brute_force_countermodel(parse_term("r | -(r ; 1)"), 2) is not None
        del model, world
        assert gc.collect() == 0

    def test_resource_exhausted(self):
        with pytest.raises(ResourceExhausted):
            run_procedure(family_term("modal_dist", 4), max_steps=5)
        assert gc.collect() == 0

    def test_fragment_violation(self):
        with pytest.raises(FragmentViolation):
            run_procedure(parse_term("r^ ; s"))
        assert gc.collect() == 0


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_setting_is_restored(self, enabled):
        seen = []

        def trace(event):
            seen.append(gc.isenabled())

        (gc.enable if enabled else gc.disable)()
        try:
            run_procedure(family_term("branching", 4), trace=trace)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert after is enabled
        assert seen and not any(seen)

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_setting_is_restored_after_a_raising_trace(self, enabled):
        def trace(event):
            raise KeyError("from the trace callback")

        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(KeyError, match="from the trace callback"):
                run_procedure(parse_term("r | -r"), trace=trace)
            after = gc.isenabled()
        finally:
            gc.enable()
        assert after is enabled

    def test_setting_is_restored_after_resource_exhausted(self):
        assert gc.isenabled()
        with pytest.raises(ResourceExhausted):
            run_procedure(family_term("modal_dist", 4), max_steps=5)
        assert gc.isenabled()


def nested_code(code):
    """The code objects nested in ``code``, at any depth."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from nested_code(const)


def test_no_function_refers_to_itself_through_a_closure():
    # a nested function that calls itself by name holds its own cell: the
    # function, its closure and the cell make a reference cycle per call
    package = Path(dualtab.__file__).parent
    modules = sorted(package.rglob("*.py"))
    offenders = []
    for path in modules:
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        offenders += [f"{path.relative_to(package)}: {code.co_name}"
                      for code in nested_code(module)
                      if code.co_name in code.co_freevars]
    assert len(modules) > 10
    assert offenders == []
