import collections
import contextlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_modal, family_text

from dualtab import terms
from dualtab.engine import Countermodel, Proof, run_procedure
from dualtab.errors import BudgetExceeded, EmptyPremises, FragmentViolation, ParseError
from dualtab.formulas import RelFormula
from dualtab.frontends import (EntailmentProblem, encode_entailment,
                               eval_modal, kripke_countermodel, parse_modal,
                               translate_modal)
from dualtab.frontends import KripkeModel, kripke, modal
from dualtab.frontends.modal import And, Box, Dia, Not, Or, Prop, render_modal
from dualtab.semantics import Model, falsifies_branch, satisfies
from dualtab.terms import FragmentVerdict, fragment_check, parse_term, render_term
import reference


def problem(premises, conclusion):
    return EntailmentProblem(tuple(parse_term(p) for p in premises),
                             parse_term(conclusion))


class TestEncodeEntailment:
    def test_single_inclusion_premise(self):
        encoded = encode_entailment(problem(["-r | -(s1 | s2)"], "-s1 | -r"))
        assert encoded == parse_term("(1 ; ((r & (s1 | s2)) ; 1)) | (-s1 | -r)")

    def test_no_premises(self):
        with pytest.raises(EmptyPremises):
            encode_entailment(EntailmentProblem((), parse_term("r")))

    def test_rejects_premise_with_positive_normal_form_complements(self):
        with pytest.raises(FragmentViolation) as exc:
            encode_entailment(problem(["r | s"], "-r"))
        assert exc.value.offender is not None

    def test_rejects_non_boolean_premise(self):
        with pytest.raises(FragmentViolation):
            encode_entailment(problem(["r ; 1"], "-r"))

    def test_multiple_premises_nest_right(self):
        encoded = encode_entailment(
            problem(["-r | -s1", "-r | -s2"], "-r | -(s1 & s2)")
        )
        assert encoded == parse_term(
            "(1 ; (((r & s1) | (r & s2)) ; 1)) | (-r | -(s1 & s2))"
        )

    def test_output_is_always_inside_the_fragment(self):
        encoded = encode_entailment(problem(["-r | -s"], "-s | -r"))
        assert fragment_check(encoded)


class TestTranslateModal:
    def test_box(self):
        assert translate_modal(parse_modal("[r]p")) == parse_term("-(r ; -(p ; 1))")

    def test_diamond_with_compound_program(self):
        assert translate_modal(parse_modal("<r | s>p")) == parse_term("(r | s) ; (p ; 1)")

    def test_distribution_axiom(self):
        translated = translate_modal(parse_modal("[r](p->q) -> ([r]p -> [r]q)"))
        expected = parse_term(
            "-(-(r ; -(-(p ; 1) | (q ; 1)))) | (-(-(r ; -(p ; 1))) | -(r ; -(q ; 1)))"
        )
        assert translated == expected
        assert isinstance(run_procedure(translated), Proof)
        assert kripke_countermodel(parse_modal("[r](p->q) -> ([r]p -> [r]q)"), 3) is None

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_image_stays_in_the_fragment(self, seed):
        f = random_modal(random.Random(seed), 4)
        assert fragment_check(translate_modal(f))

    def test_chain_translates_each_subformula_object_once(self, monkeypatch):
        # each distinct object's image is made once, and put in the memo
        # once, after its parts'
        f = iff_chain(12)
        _, objects = holders(f)
        made = collections.Counter()
        translate = modal._translate

        class Memo(dict):
            def __setitem__(self, g, term):
                parts = [getattr(g, name) for name in ("left", "right", "arg")
                         if hasattr(g, name)]
                assert all(p in self for p in parts)
                made[id(g)] += 1
                super().__setitem__(g, term)

        monkeypatch.setattr(modal, "_translate", lambda g, memo: translate(g, Memo()))
        assert translate_modal(f).size > 50_000
        assert made == dict.fromkeys(objects, 1)


def iff_chain(k):
    """``p0 <-> ... <-> pk``.  ``a <-> b`` shares ``a`` and ``b`` between
    its two implications, so as a tree the k=12 chain has thousands of
    times more nodes than it has distinct objects."""
    return parse_modal(" <-> ".join(f"p{i}" for i in range(k + 1)))


def holders(f):
    """How many distinct subformula objects of ``f`` hold each one, by id,
    the root counted once, and the distinct objects by id."""
    asked, objects, stack = collections.Counter({id(f): 1}), {}, [f]
    while stack:
        g = stack.pop()
        if id(g) not in objects:
            objects[id(g)] = g
            parts = [getattr(g, name) for name in ("left", "right", "arg")
                     if hasattr(g, name)]
            asked.update(id(p) for p in parts)
            stack.extend(parts)
    return asked, objects


@contextlib.contextmanager
def profiling(profile):
    """Run the block with ``profile`` as the interpreter's profile hook."""
    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(before)


def calls_by_object(run):
    """Run ``run()``; count the calls of the Kripke oracle's ``holds`` and
    ``truth``, told apart by their code objects, by the id of their first
    argument, the subformula they were asked for."""
    calls = collections.defaultdict(collections.Counter)
    names = {kripke.holds.__code__: "holds", kripke.truth.__code__: "truth"}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            first = frame.f_locals[frame.f_code.co_varnames[0]]
            calls[names[frame.f_code]][id(first)] += 1

    with profiling(profile):
        run()
    return calls


def random_modal(rng, depth, programs=("r", "s", "r | s", "r & s"), props="pq"):
    if depth <= 1:
        return Prop(rng.choice(props))
    roll = rng.random()
    if roll < 0.25:
        return Not(random_modal(rng, depth - 1, programs, props))
    if roll < 0.45:
        return And(random_modal(rng, depth - 1, programs, props),
                   random_modal(rng, depth - 1, programs, props))
    if roll < 0.65:
        return Or(random_modal(rng, depth - 1, programs, props),
                  random_modal(rng, depth - 1, programs, props))
    ctor = Box if rng.random() < 0.5 else Dia
    return ctor(parse_term(rng.choice(programs)), random_modal(rng, depth - 1, programs, props))


class TestKripkeOracle:
    def test_distribution_axiom_has_no_refutation(self):
        assert kripke_countermodel(parse_modal("[r](p->q) -> ([r]p -> [r]q)"), 3) is None

    def test_necessitation_failure_needs_two_worlds(self):
        hit = kripke_countermodel(parse_modal("p -> [r]p"), 3)
        assert hit is not None
        model, world = hit
        assert len(model.worlds) == 2
        assert not eval_modal(parse_modal("p -> [r]p"), model, world)

    def test_excluded_middle_has_no_refutation(self):
        assert kripke_countermodel(parse_modal("p | ~p"), 3) is None

    def test_union_program_quantifies_over_both_relations(self):
        f = parse_modal("[r | s]p -> [r]p")
        assert kripke_countermodel(f, 3) is None
        g = parse_modal("[r]p -> [r | s]p")
        assert kripke_countermodel(g, 3) is not None

    def test_intersection_program(self):
        f = parse_modal("[r]p -> [r & s]p")
        assert kripke_countermodel(f, 3) is None

    def test_frame_masks_are_not_kept_for_the_witness(self):
        # 16 relations at one world make 2^16 frames; one int64 mask per
        # frame and relation, kept for the whole search, would be 8 MB.
        # The only refuting frame is the last one, every relation full.
        f = parse_modal(" | ".join(f"[r{i}]p" for i in range(16)))
        tracemalloc.start()
        try:
            model, world = kripke_countermodel(f, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.relations == {f"r{i}": {("w0", "w0")} for i in range(16)}
        assert model.valuation == {"p": set()} and world == "w0"
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("text", [
        " <-> ".join(f"p{i}" for i in range(21)),
        " | ".join(f"[r{i}]p" for i in range(20)),
    ], ids=["iff_chain_20", "boxes_20"])
    def test_peak_memory_follows_the_formula(self, text):
        # 21 choices at one world: a mask over all of them is 2 MB, and
        # one int64 index over all of them 16 MB
        f = parse_modal(text)
        tracemalloc.start()
        try:
            hit = kripke_countermodel(f, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hit is not None
        assert peak < 16 * 2 ** 20

    def test_first_witness_is_the_reference_enumerations(self):
        # up to three relations and propositions at one world, two at two
        rng = random.Random(20261021)
        outcomes = collections.Counter()
        for worlds, names, count in ((1, 3, 60), (2, 2, 25)):
            for _ in range(count):
                rels = [f"r{i}" for i in range(names)]
                programs = (*rels, " | ".join(rels), " & ".join(rels),
                            f"({rels[-1]} | {rels[0]}) & {rels[1]}")
                props = [f"p{i}" for i in range(names)]
                f = random_modal(rng, 4, programs, props)
                roll = rng.random()
                if roll < 0.2:  # valid: every model is visited
                    f = Or(f, Not(f))
                elif roll < 0.6:  # refuted later in the order, if at all
                    f = Or(f, random_modal(rng, 4, programs, props))
                hit = kripke_countermodel(f, worlds)
                assert hit == reference.kripke_countermodel(f, worlds), render_modal(f)
                outcomes[worlds, hit is None] += 1
        assert len(outcomes) == 4, outcomes

    def test_budget_guard(self):
        # valid, so the search reaches the over-budget universe size
        f = parse_modal("[r1][r2][r3][r4]p -> [r1][r2][r3][r4]p")
        with pytest.raises(BudgetExceeded):
            kripke_countermodel(f, 3)

    def test_more_than_eight_worlds_is_refused(self):
        # a world mask is one byte: eight worlds are searched, a ninth is
        # refused once the search reaches it
        f = parse_modal("p | ~p")
        assert kripke_countermodel(f, 8) is None
        with pytest.raises(BudgetExceeded, match="9 worlds"):
            kripke_countermodel(f, 9)
        assert kripke_countermodel(parse_modal("p"), 9) is not None

    def test_chain_visits_each_subformula_object_once(self):
        # the search asks for each object's masks once per holder; the
        # witness re-check, which short-circuits, at most once per holder
        # at each world; the walkers meet each object once
        f = iff_chain(12)
        asked, objects = holders(f)
        assert modal.subformulas(f) == {
            g: asked[key] - (g is f) for key, g in objects.items()}
        assert modal.propositions_of(modal.subformulas(f)) == sorted(
            f"p{i}" for i in range(13))
        calls = calls_by_object(lambda: kripke_countermodel(f, 1))
        assert calls["truth"] == asked
        assert calls["holds"][id(f)] == 1
        assert all(n <= asked[key] for key, n in calls["holds"].items())
        # every proposition true: no ``|`` short-circuits past its ``~``
        everywhere = KripkeModel(("w",), {}, {f"p{i}": {"w"} for i in range(13)})
        calls = calls_by_object(lambda: eval_modal(f, everywhere, "w"))
        assert all(n <= asked[key] for key, n in calls["holds"].items())

    def test_shared_masks_are_released_at_the_last_ask(self):
        left = []

        def profile(frame, event, arg):
            if event == "return" and frame.f_code is kripke._search_size.__code__:
                left.append(dict(frame.f_locals["memo"]))

        with profiling(profile):
            assert kripke_countermodel(iff_chain(6), 1) is not None
        assert left == [{}]

    def test_witness_is_reproducible(self):
        f = parse_modal("p -> [r]p")
        assert kripke_countermodel(f, 3) == kripke_countermodel(f, 3)


class TestAgreementOnSmallFormulas:
    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=40, deadline=None)
    def test_refuted_formulas_get_countermodels(self, seed):
        f = random_modal(random.Random(seed), 3)
        term = translate_modal(f)
        verdict = run_procedure(term)
        refutation = kripke_countermodel(f, 3)
        if refutation is not None:
            assert isinstance(verdict, Countermodel)
        if isinstance(verdict, Countermodel):
            assert falsifies_branch(verdict.model, verdict.valuation, verdict.branch)
            assert not satisfies(verdict.model, verdict.valuation,
                                 RelFormula("x", term, "y"))


class TestModalParser:
    def test_precedence_and_desugaring(self):
        f = parse_modal("p -> q | r1")
        assert f == Or(Not(Prop("p")), Or(Prop("q"), Prop("r1")))

    def test_modalities_bind_tightly(self):
        f = parse_modal("[r]p & q")
        assert f == And(Box(parse_term("r"), Prop("p")), Prop("q"))

    def test_nested_modalities(self):
        f = parse_modal("[r|s](p -> <r>q)")
        assert f == Box(parse_term("r | s"),
                        Or(Not(Prop("p")), Dia(parse_term("r"), Prop("q"))))

    def test_biconditional(self):
        f = parse_modal("p <-> q")
        assert f == And(Or(Not(Prop("p")), Prop("q")),
                        Or(Not(Prop("q")), Prop("p")))

    def test_unfinished_input(self):
        with pytest.raises(ParseError):
            parse_modal("[r](p &")

    def test_program_must_be_plain_boolean(self):
        with pytest.raises(ParseError):
            parse_modal("[-r]p")
        with pytest.raises(ParseError):
            parse_modal("[r ; s]p")

    def test_missing_closing_bracket(self):
        with pytest.raises(ParseError):
            parse_modal("[r p")

    def test_each_program_text_is_parsed_once(self, monkeypatch):
        parsed = []

        def counting(text):
            parsed.append(text)
            return parse_term(text)

        monkeypatch.setattr(modal, "parse_term", counting)
        parse_modal(family_text("modal_dist", 12))  # 36 modalities, each on r
        assert parsed == ["r"]
        parsed.clear()
        parse_modal("[r | s]p & <r|s>q -> [r | s]q")
        assert parsed == ["r | s", "r|s"]

    def test_render_round_trip(self):
        formulas = [random_modal(random.Random(seed), 4) for seed in range(40)]
        for f in formulas + all_modal(3):
            assert parse_modal(render_modal(f)) == f
            assert repr(f) == render_modal(f)

    def test_depth(self):
        assert parse_modal("p").depth == 1
        assert parse_modal("[r]p").depth == 2
        assert parse_modal("[r]p & q").depth == 3
        assert parse_modal("<r | s>p").depth == 3

    @pytest.mark.parametrize("text", ["p", "~p", "[r](p -> <r | s>q)", "p <-> q <-> r"])
    def test_equal_formulas_are_one_object(self, text):
        f = parse_modal(text)
        assert parse_modal(text) is f
        assert parse_modal(render_modal(f)) is f

    def test_constructors_intern(self):
        assert Not(Prop("p")) is Not(Prop("p"))
        assert Box(parse_term("r | s"), Prop("p")) is parse_modal("[r | s]p")
        assert Box(parse_term("r"), Prop("p")) is not Dia(parse_term("r"), Prop("p"))
        assert And(Prop("p"), Prop("q")) != And(Prop("q"), Prop("p"))
        assert Not(Prop("p")) != Prop("p")

    def test_depth_is_set_at_interning(self):
        f = Box(parse_term("r | s"), Not(Prop("p")))
        assert (f.depth, f.arg.depth, f.arg.arg.depth) == (3, 2, 1)
        assert Or(f, Prop("q")).depth == 4

    def test_constructor_checks_its_arity(self):
        with pytest.raises(TypeError):
            And(Prop("p"))
        with pytest.raises(TypeError):
            Prop("p", "q")

    def test_copies_are_the_interned_formula(self):
        import copy
        import pickle

        f = parse_modal("(p -> ~q) & (q | ~p)")
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        g = parse_modal("[r | s]p")  # a box holds a program term
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g

    def test_formulas_are_released(self):
        import gc
        import weakref

        ref = weakref.ref(Not(Prop("unused_modal_p")))
        gc.collect()
        assert ref() is None
        assert Not(Prop("unused_modal_p")).arg.name == "unused_modal_p"

    def test_a_dead_formulas_key_leaves_the_table(self):
        p = Prop("dead_modal_p")
        f = Not(p)
        assert terms._INTERNED[Not, p]() is f
        dead = terms._INTERNED[Not, p]
        del f
        assert (Not, p) not in terms._INTERNED
        f = Not(p)
        terms._drop(dead)  # the dead reference's callback, run late
        assert terms._INTERNED[Not, p]() is f and Not(p) is f

    def test_render_memo_is_shared_across_calls(self):
        f = iff_chain(12)
        memo = {}
        assert render_modal(f.left, memo) == render_modal(f.left)
        assert render_modal(f, memo) == render_modal(f)
        assert memo.keys() == modal.subformulas(f).keys()


class TestRecords:
    """The plain records keep the equality, normalisation and truth value
    that their fields give them."""

    def test_model_equality(self):
        m = Model(["a", "b"], {"r": [("a", "b")]})
        assert m.universe == ("a", "b") and m.interp == {"r": {("a", "b")}}
        assert m == Model(("a", "b"), {"r": {("a", "b")}})
        assert m != Model(("b", "a"), {"r": {("a", "b")}})
        assert m != Model(("a", "b"), {"r": set()})
        assert Model(("a",)) == Model(("a",), {})
        assert repr(m) == "Model(universe=('a', 'b'), interp={'r': {('a', 'b')}})"

    def test_kripke_model_equality(self):
        km = KripkeModel(["w0", "w1"], {"r": [["w0", "w1"]]}, {"p": ["w1"]})
        assert (km.worlds, km.relations, km.valuation) == (
            ("w0", "w1"), {"r": {("w0", "w1")}}, {"p": {"w1"}})
        assert km == KripkeModel(("w0", "w1"), {"r": {("w0", "w1")}}, {"p": {"w1"}})
        assert km != KripkeModel(("w0", "w1"), {"r": {("w0", "w1")}}, {"p": {"w0"}})
        assert km != KripkeModel(("w0", "w1"), {"r": set()}, {"p": {"w1"}})
        assert KripkeModel(("w",)) == KripkeModel(("w",), {}, {})
        assert km != Model(("w0", "w1"))
        assert repr(KripkeModel(("w",), {"r": {("w", "w")}})) == (
            "KripkeModel(worlds=('w',), relations={'r': {('w', 'w')}}, valuation={})")

    def test_entailment_problem(self):
        premises = [parse_term("-r | -s")]
        problem = EntailmentProblem(premises, parse_term("-s | -r"))
        assert problem.premises == tuple(premises)
        assert problem == EntailmentProblem(tuple(premises), parse_term("-s | -r"))
        assert problem != EntailmentProblem(premises, parse_term("-r"))
        assert hash(problem) == hash(EntailmentProblem(premises, parse_term("-s | -r")))
        with pytest.raises(AttributeError):
            problem.premises = ()

    def test_fragment_verdict(self):
        accepted, rejected = fragment_check(parse_term("r")), fragment_check(parse_term("r^"))
        assert accepted == FragmentVerdict(True) and accepted
        assert (accepted.offender, accepted.clause) == (None, None)
        assert not rejected and rejected.offender == parse_term("r^")
        assert rejected == FragmentVerdict(False, parse_term("r^"), rejected.clause)
        assert rejected != FragmentVerdict(False, parse_term("r"), rejected.clause)
        with pytest.raises(AttributeError):
            rejected.accepted = True
