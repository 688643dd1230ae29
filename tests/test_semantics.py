import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_models, model_strategy, term_strategy
from dualtab import oracle
from dualtab.errors import BudgetExceeded, UnboundVariable, UnknownVariableWarning
from dualtab.formulas import RelFormula
from dualtab.oracle import brute_force_countermodel
from dualtab.semantics import (Model, eval_term, falsifies_branch,
                               model_from_json, model_to_json, satisfies)
from dualtab.terms import (ONE, Cmpl, Comp, Inter, Union, Var, parse_term,
                           simplify_ones, term_variables)


def F(left, text, right):
    return RelFormula(left, parse_term(text), right)


class TestEvalTerm:
    def test_constant_is_total(self):
        m = Model(("a", "b"), {})
        assert eval_term(m, ONE) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}

    def test_composition(self):
        m = Model(("a", "b"), {"r": {("a", "b")}, "s": {("b", "b")}})
        assert eval_term(m, parse_term("r ; s")) == {("a", "b")}

    def test_complement_of_empty(self):
        m = Model(("a",), {"r": set()})
        assert eval_term(m, parse_term("-r")) == {("a", "a")}

    def test_converse(self):
        m = Model(("a", "b"), {"r": {("a", "b")}})
        assert eval_term(m, parse_term("r^")) == {("b", "a")}

    def test_unknown_variable_warns_and_is_empty(self):
        m = Model(("a",), {})
        with pytest.warns(UnknownVariableWarning):
            assert eval_term(m, Var("ghost")) == set()

    def test_call_without_memo_evaluates_each_subterm_once(self):
        # the shared uninterpreted variable is evaluated, and warns, once
        m = Model(("a",), {})
        ghost = Var("ghost")
        with pytest.warns(UnknownVariableWarning) as caught:
            assert eval_term(m, Union(ghost, Comp(ghost, ONE))) == set()
        assert len(caught) == 1

    def test_memo_gives_the_sets_of_a_fresh_evaluation(self, corpus_countermodels):
        # every subterm on a countermodel's branch evaluates to the same set
        # with one memo shared over the branch as without one, and no later
        # evaluation changes a set the memo already holds
        def subterms(t):
            yield t
            for child in (getattr(t, name) for name in t.__match_args__):
                if not isinstance(child, str):
                    yield from subterms(child)

        for verdict in corpus_countermodels:
            model, memo = verdict.model, {}
            for f in verdict.branch.history:
                for t in subterms(f.term):
                    assert eval_term(model, t, memo) == eval_term(model, t)
            assert all(pairs == eval_term(model, t) for t, pairs in memo.items())
        assert corpus_countermodels


class TestSatisfies:
    def test_empty_relation(self):
        m = Model(("a",), {"r": set()})
        assert not satisfies(m, {"x": "a", "y": "a"}, F("x", "r", "y"))

    def test_constant_always_holds(self):
        m = Model(("a", "b"), {})
        for vx, vy in itertools.product("ab", repeat=2):
            assert satisfies(m, {"x": vx, "y": vy}, F("x", "1", "y"))

    def test_complemented_constant_never_holds(self):
        m = Model(("a", "b"), {})
        for vx, vy in itertools.product("ab", repeat=2):
            assert not satisfies(m, {"x": vx, "y": vy}, F("x", "-1", "y"))

    def test_unbound_variable(self):
        m = Model(("a",), {"r": set()})
        with pytest.raises(UnboundVariable):
            satisfies(m, {"x": "a"}, F("x", "r", "y"))


class TestFalsifiesBranch:
    def test_single_positive_literal(self):
        m = Model(("x", "y"), {"r": set()})
        v = {"x": "x", "y": "y"}
        assert falsifies_branch(m, v, [F("x", "r", "y")])

    def test_branch_with_constant_formula(self):
        m = Model(("x", "y"), {"r": set()})
        v = {"x": "x", "y": "y"}
        assert not falsifies_branch(m, v, [F("x", "1", "y")])

    def test_empty_branch(self):
        m = Model(("a",), {})
        assert falsifies_branch(m, {}, [])


class TestBruteForce:
    def test_smallest_falsifier_of_a_variable(self):
        model, valuation = brute_force_countermodel(parse_term("r"), 2)
        assert model == Model(("a",), {"r": set()})
        assert valuation == {"x": "a", "y": "a"}

    def test_tautology_has_none(self):
        assert brute_force_countermodel(parse_term("r | -r"), 3) is None

    def test_valid_entailment_encoding_has_none(self):
        t = simplify_ones(parse_term("(1 ; ((r & (s1 | s2)) ; 1)) | (-s1 | -r)"))
        assert brute_force_countermodel(t, 3) is None

    def test_witness_falsifies(self):
        t = parse_term("(r ; s) | -(r & s)")
        hit = brute_force_countermodel(t, 3)
        assert hit is not None
        model, valuation = hit
        assert not satisfies(model, valuation, RelFormula("x", t, "y"))

    def test_budget_guard(self):
        t = parse_term("((v1 | -v1) | (v2 | -v2)) | ((v3 | -v3) | (v4 | -v4))")
        with pytest.raises(BudgetExceeded):
            brute_force_countermodel(t, 3)

    # Valid on at most two elements; over three, the first variable ``r`` is
    # enumerated on the outer axis and the first witness has it nonempty.
    @pytest.mark.parametrize("text, relations, valuation", [
        ("(-(-t ; (t & r)) | (-(t ; s) | ((t ; s) & (r | s))))",
         {"r": [["a", "a"]], "s": [["b", "a"]], "t": [["a", "a"], ["c", "b"]]},
         {"x": "c", "y": "a"}),
        ("((-(r ; t) | ((r ; s) ; -r)) | (((r ; t) ; -r) | ((t | r) | (s ; s))))",
         {"r": [["a", "c"], ["b", "b"]], "s": [], "t": [["c", "b"]]},
         {"x": "a", "y": "b"}),
        ("(((-t | (t ; t)) | ((s ; r) ; (s | t))) | -((s ; t) & (r ; t)))",
         {"r": [["a", "a"]], "s": [["a", "b"]], "t": [["a", "c"], ["b", "c"]]},
         {"x": "a", "y": "c"}),
        ("((-(r ; s) | (-t | (r | s))) | -((-t)^))",
         {"r": [["a", "b"]], "s": [["b", "c"]], "t": [["a", "c"]]},
         {"x": "a", "y": "c"}),
    ])
    def test_first_witness_on_the_outer_axis(self, text, relations, valuation):
        t = parse_term(text)
        assert brute_force_countermodel(t, 2) is None
        assert model_to_json(*brute_force_countermodel(t, 3)) == {
            "universe": ["a", "b", "c"], "relations": relations,
            "valuation": valuation}

    @given(term_strategy(variables=("r", "s"), with_conv=True, max_leaves=5))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_direct_enumeration(self, t):
        # reference search: same order, plain evaluation
        def reference(term, max_universe):
            names = term_variables(term)
            query = RelFormula("x", term, "y")
            for size in range(1, max_universe + 1):
                elems = ("a", "b", "c")[:size]
                for model in all_models(names, size):
                    for vx in elems:
                        for vy in elems:
                            if not satisfies(model, {"x": vx, "y": vy}, query):
                                return model, {"x": vx, "y": vy}
            return None

        assert brute_force_countermodel(t, 2) == reference(t, 2)


# A three-variable term whose first witness over three elements sits on
# the outer axis (``r`` nonempty), and a tautology.
WITNESSED = "((-(r ; s) | (-t | (r | s))) | -((-t)^))"
VALID = "((r & (s | r)) ; (t ; -s)) | -((r & (s | r)) ; (t ; -s))"


class TestConstantFolding:
    @pytest.mark.parametrize("text", [
        f"(1 ; 1) | ({WITNESSED})",
        f"({WITNESSED}) | (1 ; 1)",
        "(t | -t) | (r ; s)",
        f"-(-(1 ; 1) & ({WITNESSED}))",
    ])
    def test_all_ones_part_folds_to_no_witness(self, text):
        assert brute_force_countermodel(parse_term(text), 3) is None

    def test_all_zeros_part_gives_the_first_model(self):
        model, valuation = brute_force_countermodel(parse_term(f"-(1 ; 1) & ({WITNESSED})"), 3)
        assert model == Model(("a",), {"r": set(), "s": set(), "t": set()})
        assert valuation == {"x": "a", "y": "a"}

    @pytest.mark.parametrize("y", [WITNESSED, VALID])
    def test_all_zeros_composition_part_drops_out(self, y):
        for text in (f"(-(1 ; 1) ; (r ; t)) | ({y})", f"({y}) | ((t & s) ; -(1 ; 1))"):
            assert (brute_force_countermodel(parse_term(text), 3)
                    == brute_force_countermodel(parse_term(y), 3))

    def test_one_word_root_reads_its_witness(self):
        # valid on at most two elements; over three the folded part leaves
        # a root of one word, while ``s`` and ``t`` span 4 096 words
        r_only = ("((r | (-r ; -(r ; r))) | "
                  "(((1 & r) | (r & 1))^ ; (-(-r) ; ((r ; 1) ; (1 & r)))))")
        model, valuation = brute_force_countermodel(parse_term(r_only), 3)
        model.interp.update(s=set(), t=set())
        assert brute_force_countermodel(
            parse_term(f"(-(1 ; 1) & (s | t)) | {r_only}"), 3) == (model, valuation)
        assert len(model.universe) == 3

    def test_shared_subterms_are_walked_once(self):
        # 2^40 paths lead from the root to ``t``; a walk along each of them,
        # in the evaluation or in the witness's re-check, would not end
        t = deep = parse_term(WITNESSED)
        for _ in range(40):
            deep = Union(deep, deep)
        assert brute_force_countermodel(deep, 3) == brute_force_countermodel(t, 3)

    @staticmethod
    def size_3_counts(text, monkeypatch):
        """How often the size-3 search computes each subterm's table, and
        how often it reads the root's table.  The search is called on its
        own: these roots are skeleton tautologies, which
        :func:`brute_force_countermodel` answers without searching."""
        tables, reads = collections.Counter(), collections.Counter()
        table, eval_rows = oracle._table, oracle._eval_rows

        def counting_table(t, parts, n):
            tables[t] += 1
            return table(t, parts, n)

        def counting_eval_rows(t, memo, fixed, n, keep):
            reads[t] += 1
            return eval_rows(t, memo, fixed, n, keep)

        monkeypatch.setattr(oracle, "_table", counting_table)
        monkeypatch.setattr(oracle, "_eval_rows", counting_eval_rows)
        root = parse_term(text)
        assert oracle._search_universe(
            root, term_variables(root), 3, oracle._shared(root)) is None
        return tables, reads[root]

    def test_constant_part_is_computed_once_per_size(self, monkeypatch):
        # ``s`` and ``t`` are packed and ``r`` is outer: a part without
        # ``r`` is computed at the first of the 512 outer assignments only
        text = f"(-(1 ; 1) ; r) | ({VALID})"
        tables, root_reads = self.size_3_counts(text, monkeypatch)
        assert root_reads == tables[parse_term(text)] == 512  # one per outer assignment
        assert tables[parse_term("(r & (s | r)) ; (t ; -s)")] == 512  # shared, kept
        assert tables[parse_term("t ; -s")] == 1
        assert tables[parse_term("-(1 ; 1)")] == 1
        assert tables[parse_term("-(1 ; 1) ; r")] == 512

    @given(term_strategy(variables=("r", "s", "t"), with_conv=True, max_leaves=6))
    @settings(max_examples=25, deadline=None)
    def test_constant_identities_keep_the_answer(self, t):
        # Up to two elements the packed axis holds all three variables, so
        # nothing folds; over three ``r`` is outer, and the universe is
        # searched on its own because most terms have a smaller witness.
        names = ["r", "s", "t"]
        ones = Comp(ONE, ONE)
        for same in (Inter(t, ones), Union(t, Cmpl(ones))):
            assert brute_force_countermodel(same, 2) == brute_force_countermodel(t, 2)
            assert (oracle._search_universe(same, names, 3, oracle._shared(same))
                    == oracle._search_universe(t, names, 3, oracle._shared(t)))


# A propositional tautology over ``r``, ``s`` and ``t``: without the
# skeleton check every size-3 outer assignment would be searched.
TAUTOLOGY = "(-(-r & (t | t)) | -((s | t) & (t & r)))"


class TestSkeletonTautology:
    @given(term_strategy(variables=("r", "s", "t"), with_conv=True, max_leaves=4),
           term_strategy(variables=("r", "s", "t"), with_conv=True, max_leaves=4),
           st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_tautology_has_no_countermodel(self, a, b, shape):
        t = (a, Union(a, Cmpl(a)), Union(Cmpl(Inter(a, b)), a),
             Union(Inter(a, b), Union(Cmpl(b), Cmpl(a))), Union(b, Comp(ONE, ONE)))[shape]
        keep = oracle._shared(t)
        if not oracle._skeleton_tautology(t, keep):
            assert shape == 0
            return
        names = term_variables(t)
        for n in (1, 2, 3):
            assert oracle._search_universe(t, names, n, keep) is None

    @staticmethod
    def searches(monkeypatch):
        """The universe sizes ``_search_universe`` is called for."""
        calls = []
        search = oracle._search_universe

        def counting(term, names, n, keep):
            calls.append(n)
            return search(term, names, n, keep)

        monkeypatch.setattr(oracle, "_search_universe", counting)
        return calls

    @pytest.mark.parametrize("names", list(itertools.permutations("rst")))
    def test_found_tautology_is_searched_at_size_1_only(self, names, monkeypatch):
        calls = self.searches(monkeypatch)
        renaming = dict(zip("rst", names))
        t = parse_term("".join(renaming.get(c, c) for c in TAUTOLOGY))
        assert brute_force_countermodel(t, 3) is None
        assert calls == [1]

    @pytest.mark.parametrize("x", ["r ; s", "r ; (s | t)", "(r ; 1)^"])
    def test_excluded_middle_over_a_composition_is_searched_at_size_1_only(
            self, x, monkeypatch):
        calls = self.searches(monkeypatch)
        assert brute_force_countermodel(parse_term(f"({x}) | -({x})"), 3) is None
        assert calls == [1]

    def test_skeleton_waits_for_size_1(self, monkeypatch):
        calls = self.searches(monkeypatch)
        skeletons = []
        skeleton = oracle._skeleton_tautology

        def recording(t, keep):
            skeletons.append(t)
            return skeleton(t, keep)

        monkeypatch.setattr(oracle, "_skeleton_tautology", recording)
        assert brute_force_countermodel(parse_term("r ; s"), 3) is not None
        assert calls == [1] and skeletons == []
        # at size 1 a composition is an intersection, so this holds there
        t = parse_term("(r ; s) | -(s ; r)")
        assert brute_force_countermodel(t, 3)[0].universe == ("a", "b")
        assert calls == [1, 1, 2] and skeletons == [t]

    @pytest.mark.parametrize("text", ["-(r ; s) | (r ; (s | t))",
                                      "-((r & t) ; s) | (r ; s)"])
    def test_validity_beyond_the_skeleton_is_searched_at_every_size(self, text, monkeypatch):
        # valid, but their skeletons are not tautologies, so no size is
        # skipped
        calls = self.searches(monkeypatch)
        assert brute_force_countermodel(parse_term(text), 3) is None
        assert calls == [1, 2, 3]

    def test_one_composed_with_one_is_all_ones(self, monkeypatch):
        calls = self.searches(monkeypatch)
        assert brute_force_countermodel(parse_term("(1 ; 1) | -r"), 3) is None
        assert calls == [1]
        # ``1 ; r`` may be empty, so it is an atom like any other
        assert brute_force_countermodel(parse_term("(1 ; r) | r"), 3) is not None

    def test_one_falsifying_combination_among_several_words(self):
        # 8 atoms give 256 combinations in four words; a union is false
        # only at the first, the complement of an intersection at the last
        names = [f"v{i}" for i in range(8)]
        for text, closing in ((" | ".join(names), "-v3"),
                              ("-(" + " & ".join(names) + ")", "v5")):
            t, valid = parse_term(text), parse_term(f"({text}) | {closing}")
            assert not oracle._skeleton_tautology(t, oracle._shared(t))
            assert oracle._skeleton_tautology(valid, oracle._shared(valid))

    def test_budget_is_checked_before_the_shortcut(self):
        names = [f"v{i}" for i in range(8)]
        t = parse_term(" | ".join(names + ["-v0"]))
        assert brute_force_countermodel(t, 1) is None
        with pytest.raises(BudgetExceeded):
            brute_force_countermodel(t, 2)


class TestMeaningPreservingRewrites:
    @given(term_strategy(variables=("p", "q"), with_conv=False, max_leaves=6),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_simplification(self, t, data):
        names = term_variables(t)
        model = data.draw(model_strategy(names))
        assert eval_term(model, t) == eval_term(model, simplify_ones(t))

    def test_de_morgan(self):
        for model in all_models(["a", "b"], 2):
            left = eval_term(model, parse_term("-(a | b)"))
            right = eval_term(model, parse_term("-a & -b"))
            assert left == right


class TestExchangeFormat:
    def test_round_trip(self):
        model = Model(("x", "y", "z1"), {"r": {("x", "y"), ("z1", "x")}, "s": set()})
        valuation = {"x": "x", "y": "y", "z1": "z1"}
        data = model_to_json(model, valuation)
        back_model, back_valuation = model_from_json(data)
        assert back_model == model
        assert back_valuation == valuation
        assert model_to_json(back_model, back_valuation) == data

    def test_rejects_stray_elements(self):
        with pytest.raises(ValueError):
            model_from_json({
                "universe": ["a"],
                "relations": {"r": [["a", "b"]]},
                "valuation": {},
            })

    def test_rejects_stray_valuation(self):
        with pytest.raises(ValueError):
            model_from_json({
                "universe": ["a"],
                "relations": {},
                "valuation": {"x": "b"},
            })
