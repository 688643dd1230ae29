import hashlib
import json

import pytest
from hypothesis import given, settings

from conftest import (build_corpus, family_text, fill_plan,
                      fragment_term_strategy)
from dualtab import engine, terms
from dualtab.engine import (Branch, Countermodel, Proof, RULE_CMPL_COMP,
                            RULE_CMPL_COMP_ONE, RULE_CMPL_COMP_UNIV,
                            RULE_CMPL_INTER, RULE_CMPL_UNION, RULE_COMP_BOOL,
                            RULE_COMP_UNIV, RULE_DOUBLE_CMPL, RULE_INTER,
                            RULE_UNION, X, Y, Z, applications,
                            extract_model, is_axiomatic, is_blocked,
                            plan_of, rule_of, run_procedure, verdict_to_json)
from dualtab.errors import (BranchNotSaturated, EngineInvariantError,
                            FragmentViolation, ResourceExhausted)
from dualtab.formulas import RelFormula, gate_index
from dualtab.frontends import parse_modal, translate_modal
from dualtab.oracle import brute_force_countermodel
from dualtab.semantics import falsifies_branch, satisfies
from dualtab.terms import (Cmpl, components, is_boolean, parse_term,
                           simplify_ones, term_variables)
from reference import v_set


def F(left, text, right):
    return RelFormula(left, parse_term(text), right)


def prove(text, **kw):
    return run_procedure(simplify_ones(parse_term(text)), **kw)


def initial(formula):
    """The root branch of ``formula``, with the gates a search of its term
    indexes."""
    return Branch(formula, gate_index(components(formula.term)))


def offered(branch, z):
    return list(applications(branch, z))


def take(branch, rule, f, z=None):
    """Carry out one application on the branch as the search does, keeping
    the first successor; returns the conclusion groups."""
    groups = fill_plan(f, z)
    removed = () if rule in (RULE_COMP_BOOL, RULE_COMP_UNIV) else (f,)
    added = [g for g in groups[0] if g not in branch.node]
    branch.enter(added, removed, (rule, f, z))
    return groups


def introduce(branch, premise, z):
    """Enter the step that decomposes ``premise`` with the fresh witness
    ``z``, leaving the node as it is."""
    branch.enter([], (), (rule_of(premise.term), premise, z))


class TestWeight:
    def test_literals_weigh_nothing(self):
        assert parse_term("r").weight == 0
        assert parse_term("-1").weight == 0

    def test_composition(self):
        assert parse_term("r ; 1").weight == 1

    def test_complemented_union(self):
        assert parse_term("-(r | s)").weight == 1

    def test_complement_distributes(self):
        assert parse_term("-((r | s) ; 1)").weight == 2

    def test_non_fragment_term_has_no_weight(self):
        assert parse_term("r^").weight is None
        assert parse_term("-(r | s^)").weight is None


class TestRuleOf:
    def test_rules_of_terms(self):
        # one term per shape, its rule and its plan: one group per
        # successor of (left, term, right), the endpoints X and Y of the
        # premise and Z its instance or witness; a literal has no rule
        table = [
            ("r | s", RULE_UNION, (((X, "r", Y), (X, "s", Y)),)),
            ("r & s", RULE_INTER, (((X, "r", Y),), ((X, "s", Y),))),
            ("--r", RULE_DOUBLE_CMPL, (((X, "r", Y),),)),
            ("-(r | s)", RULE_CMPL_UNION, (((X, "-r", Y),), ((X, "-s", Y),))),
            ("-(r & s)", RULE_CMPL_INTER, (((X, "-r", Y), (X, "-s", Y)),)),
            ("1 ; s", RULE_COMP_UNIV, (((Z, "s", Y),),)),
            ("r ; s", RULE_COMP_BOOL, (((Z, "s", Y),),)),
            ("-(1 ; s)", RULE_CMPL_COMP_UNIV, (((Z, "-s", Y),),)),
            ("-(r ; 1)", RULE_CMPL_COMP_ONE, (((X, "-r", Z),),)),
            ("-(r ; s)", RULE_CMPL_COMP, (((X, "-r", Z), (Z, "-s", Y)),)),
            ("-(1 ; 1)", "inert", ()),
            ("r", None, ()),
            ("-r", None, ()),
            ("1", None, ()),
            ("-1", None, ()),
        ]
        for text, rule, plan in table:
            t = parse_term(text)
            assert plan_of(t) == tuple(
                tuple((l, parse_term(c), r) for l, c, r in group) for group in plan
            ), text
            assert t.rule == rule and rule_of(t) == rule, text

    def test_memo_lives_and_dies_with_the_term(self):
        # the rule and the plan are memoised on the term, so terms that
        # only ``rule_of`` and ``plan_of`` saw, the complements that a
        # plan made included, leave the weak interning table when they
        # are dropped
        import gc

        gc.collect()
        before = len(terms._INTERNED)
        for i in range(300):
            t = parse_term(f"rl_{i} | -(sl_{i} ; tl_{i})")
            assert rule_of(t) == RULE_UNION and t.rule == RULE_UNION
            for _, c, _ in plan_of(t)[0]:
                plan_of(c)
            assert terms.interned(Cmpl, parse_term(f"sl_{i}")) is not None
        assert len(terms._INTERNED) > before
        del t, c
        gc.collect()
        assert len(terms._INTERNED) == before


class TestIsAxiomatic:
    def test_constant_formula(self):
        assert is_axiomatic(dict.fromkeys([F("x", "1", "y")]))

    def test_complementary_pair_with_compound_term(self):
        node = dict.fromkeys([F("x", "r ; 1", "y"), F("x", "-(r ; 1)", "y")])
        assert is_axiomatic(node)

    def test_pair_with_swapped_endpoints_is_open(self):
        node = dict.fromkeys([F("x", "r", "y"), F("y", "-r", "x")])
        assert not is_axiomatic(node)

    def test_builds_no_complement_to_look_for(self, monkeypatch):
        # no formula can hold a complement that is not a live term, so
        # looking for one must not create it
        node = dict.fromkeys([F("x", "(ax_r ; 1) | ax_s", "y"),
                              F("x", "-(ax_r & ax_s)", "z")])
        created = []
        interned = terms._interned

        def counting(cls, *fields):
            if terms._INTERNED.get((cls, *fields)) is None:
                created.append((cls, fields))
            return interned(cls, *fields)

        monkeypatch.setattr(terms, "_interned", counting)
        assert not is_axiomatic(node)
        assert not is_axiomatic(node, list(node))
        assert created == []


class TestVarOrder:
    def test_endpoints_only(self):
        b = initial(F("x", "r", "y"))
        assert b.order == ["x", "y"]

    def test_descendant_of_the_right_endpoint_comes_last(self):
        b = initial(F("x", "-(r ; (s ; 1))", "y"))
        gen_x = F("x", "-(r ; (s ; 1))", "y")
        gen_y = F("y", "-(s ; 1)", "y")
        introduce(b, gen_x, "z1")
        introduce(b, gen_y, "z2")
        assert b.decomposed == {gen_x: "z1", gen_y: "z2"}
        assert b.vars == ["x", "y", "z1", "z2"]
        assert b.order == ["x", "z1", "y", "z2"]

    def test_universal_rule_variable_is_not_a_descendant(self):
        b = initial(F("x", "-(1 ; (s ; 1))", "y"))
        introduce(b, F("y", "-(1 ; (s ; 1))", "y"), "z1")
        assert b.order == ["x", "z1", "y"]

    def test_chained_descendants(self):
        b = initial(F("x", "r", "y"))
        introduce(b, F("y", "-(r ; (s ; 1))", "y"), "z1")
        introduce(b, F("z1", "-(s ; 1)", "y"), "z2")
        introduce(b, F("x", "-(s ; 1)", "y"), "z3")
        assert b.order == ["x", "z3", "y", "z1", "z2"]

    def test_undo_takes_back_each_placement(self):
        b = initial(F("x", "r", "y"))
        states = []
        for premise, z in ((F("y", "-(r ; (s ; 1))", "y"), "z1"),
                           (F("z1", "-(s ; 1)", "y"), "z2"),
                           (F("x", "-(s ; 1)", "y"), "z3")):
            states.append((b.mark(), list(b.vars), list(b.order), set(b.right)))
            introduce(b, premise, z)
        assert b.right == {"y", "z1", "z2"}
        for mark, vars, order, right in reversed(states):
            b.undo(mark)
            assert (b.vars, b.order, b.right) == (vars, order, right)


class TestApplyBoolean:
    def test_union_yields_both_disjuncts(self):
        f = F("x", "r | s", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_UNION, f, None)]
        groups = fill_plan(f, None)
        assert groups == [[F("x", "r", "y"), F("x", "s", "y")]]

    def test_intersection_branches(self):
        f = F("x", "r & s", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_INTER, f, None)]
        groups = fill_plan(f, None)
        assert groups == [[F("x", "r", "y")], [F("x", "s", "y")]]

    def test_double_complement(self):
        f = F("x", "--r", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_DOUBLE_CMPL, f, None)]
        groups = fill_plan(f, None)
        assert groups == [[F("x", "r", "y")]]

    def test_keeps_other_formulas(self):
        # the successor is the parent in order, minus the premise, plus
        # the conclusions that are new
        other, f = F("x", "p", "y"), F("x", "r | s", "y")
        tree = prove("(r | p) | (r | s)").tree
        assert [n.premise for n in tree.nodes[2:4]] == [
            F("x", "r | p", "y"), f]
        formulas = tree.replay()
        assert formulas[2] == [F("x", "r | s", "y"), F("x", "r", "y"), other]
        assert formulas[3] == [F("x", "r", "y"), other, F("x", "s", "y")]

    def test_decomposed_premise_that_comes_back_is_not_decomposed_again(self):
        # x (r | s) y leaves the node, comes back as a conclusion of the
        # last union, and has no work left
        tree = prove("(r | s) | ((r | s) | p)").tree
        assert [n.premise for n in tree.nodes[1:]] == [
            F("x", "(r | s) | ((r | s) | p)", "y"), F("x", "r | s", "y"),
            F("x", "(r | s) | p", "y")]
        assert F("x", "r | s", "y") in tree.replay()[-1]

    def test_not_applicable_on_literal(self):
        b = initial(F("x", "r", "y"))
        assert offered(b, "x") == [] and offered(b, "y") == []


class TestApplyNegcomp:
    def test_general_shape_adds_both_parts(self):
        f = F("x", "-(r ; (s ; 1))", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_CMPL_COMP, f, None)]
        groups = take(b, RULE_CMPL_COMP, f, "z1")
        assert groups == [[F("x", "-r", "z1"), F("z1", "-(s ; 1)", "y")]]
        assert b.decomposed[f] == "z1"
        assert b.order == ["x", "z1", "y"]
        assert offered(b, "x") == []

    def test_right_constant_adds_left_part_only(self):
        f = F("x", "-(r ; 1)", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_CMPL_COMP_ONE, f, None)]
        groups = fill_plan(f, "z1")
        assert groups == [[F("x", "-r", "z1")]]

    def test_left_constant_adds_right_part_only(self):
        f = F("x", "-(1 ; (s ; 1))", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_CMPL_COMP_UNIV, f, None)]
        groups = take(b, RULE_CMPL_COMP_UNIV, f, "z1")
        assert groups == [[F("z1", "-(s ; 1)", "y")]]
        assert "z1" not in b.right

    def test_fully_constant_shape_is_inert(self):
        f = F("x", "-(1 ; 1)", "y")
        b = initial(f)
        assert offered(b, "x") == [] and offered(b, "y") == []

    def test_left_constant_suppressed_by_existing_instance(self):
        f = F("x", "-(1 ; (s ; 1))", "y")
        b = initial(f)
        z = "z1"
        introduce(b, F("x", "-(r ; (s ; 1))", "y"), z)
        assert offered(b, "x") == [(RULE_CMPL_COMP_UNIV, f, None)]
        b._admit(F(z, "-(s ; 1)", "y"))
        assert offered(b, "x") == []

    def test_blocked_formula_records_renamed_literals(self):
        # the blocker's decomposition with witness w left z1 -r w; the
        # model counts it for the blocked formula as z2 -r w as well
        term_text = "-(r ; (s ; 1))"
        blocked = RelFormula("z2", parse_term(term_text), "y")
        blocker = RelFormula("z1", parse_term(term_text), "y")
        b = initial(blocked)
        for g in (blocker, F("z1", "-r", "w")):
            b._admit(g)
        b.vars += ["z1", "w"]
        b.decomposed[blocker] = "w"
        assert offered(b, "z2") == [("blocked", blocked, blocker)]
        model, _ = extract_model(b)
        assert F("z2", "-r", "w") not in b.history
        assert model.interp["r"] == {("z1", "w"), ("z2", "w")}


class TestIsBlocked:
    def setup_branch(self):
        term_text = "-(r ; (s ; 1))"
        blocker = RelFormula("z1", parse_term(term_text), "y")
        blocked = RelFormula("z2", parse_term(term_text), "y")
        b = initial(F("x", "1 ; " + term_text, "y"))
        b._admit(blocker)
        b._admit(blocked)
        b.vars += ["z1", "w", "z2"]
        return b, blocker, blocked

    def test_no_twin_in_history(self):
        f = F("z1", "-(r ; (s ; 1))", "y")
        b = initial(F("x", "1 ; -(r ; (s ; 1))", "y"))
        b._admit(f)
        assert is_blocked(f, b) is None

    def test_undecomposed_twin_does_not_block(self):
        b, blocker, blocked = self.setup_branch()
        assert is_blocked(blocked, b) is None

    def test_decomposed_twin_blocks_without_obligations(self):
        b, blocker, blocked = self.setup_branch()
        b.decomposed[blocker] = "w"
        b._admit(F("z1", "-r", "w"))
        assert is_blocked(blocked, b) == blocker

    def test_unmirrored_obligation_prevents_blocking(self):
        b, blocker, blocked = self.setup_branch()
        b.decomposed[blocker] = "w"
        b._admit(F("z1", "-r", "w"))
        # the blocked variable owes a composition the twin never mirrored
        b._admit(F("z2", "r ; (s ; 1)", "y"))
        assert is_blocked(blocked, b) is None

    def test_mirrored_obligation_restores_blocking(self):
        b, blocker, blocked = self.setup_branch()
        b.decomposed[blocker] = "w"
        b._admit(F("z1", "-r", "w"))
        b._admit(F("z2", "r ; (s ; 1)", "y"))
        b._admit(F("z1", "r ; (s ; 1)", "y"))
        assert is_blocked(blocked, b) == blocker


class TestApplyCompA:
    def forced_branch(self, text):
        f = F("x", text, "y")
        b = initial(f)
        introduce(b, F("x", "-(r ; 1)", "y"), "z1")
        b._admit(F("x", "-r", "z1"))
        return b, f

    def test_adds_instantiated_right_part(self):
        b, f = self.forced_branch("r ; (s ; 1)")
        groups = fill_plan(f, "z1")
        assert groups == [[F("z1", "s ; 1", "y")]]

    def test_right_constant_closes_the_node(self):
        b, f = self.forced_branch("r ; 1")
        groups = fill_plan(f, "z1")
        assert groups == [[F("z1", "1", "y")]]
        assert is_axiomatic(dict.fromkeys(groups[0]))

    def test_same_variable_only_once(self):
        b, f = self.forced_branch("r ; (s ; 1)")
        assert offered(b, "x") == [(RULE_COMP_BOOL, f, "z1")]
        take(b, RULE_COMP_BOOL, f, "z1")
        assert offered(b, "x") == []

    def test_unforced_variable_rejected(self):
        f = F("x", "r ; (s ; 1)", "y")
        b = initial(f)
        assert offered(b, "x") == []
        b, f = self.forced_branch("r ; (s ; 1)")
        introduce(b, F("x", "-(s ; 1)", "y"), "z2")  # x -r z2 is not on the branch
        assert [w for _, _, w in offered(b, "x")] == ["z1"]


class TestApplyCompB:
    def test_instantiates_with_left_endpoint(self):
        f = F("x", "1 ; (r ; 1)", "y")
        b = initial(f)
        assert offered(b, "x") == [(RULE_COMP_UNIV, f, "x")]
        groups = fill_plan(f, "x")
        assert groups == [[F("x", "r ; 1", "y")]]

    def test_then_with_right_endpoint(self):
        f = F("x", "1 ; (r ; 1)", "y")
        b = initial(f)
        take(b, RULE_COMP_UNIV, f, "x")
        assert offered(b, "y") == [(RULE_COMP_UNIV, f, "y")]
        groups = fill_plan(f, "y")
        assert groups == [[F("y", "r ; 1", "y")]]

    def test_existing_instance_not_repeated(self):
        f = F("x", "1 ; (r ; 1)", "y")
        b = initial(f)
        assert offered(b, "y") == [(RULE_COMP_UNIV, f, "y")]
        b._admit(F("y", "r ; 1", "y"))
        assert offered(b, "y") == []


class TestRunProcedure:
    def test_excluded_middle_closes(self):
        verdict = prove("r | -r")
        assert isinstance(verdict, Proof)
        leaves = [n for n in verdict.tree.nodes if not n.children]
        assert len(leaves) == 1 and leaves[0].closed
        formulas = verdict.tree.replay()[leaves[0].id]
        assert F("x", "r", "y") in formulas
        assert F("x", "-r", "y") in formulas

    def test_bare_variable_countermodel(self):
        verdict = prove("r")
        assert isinstance(verdict, Countermodel)
        assert verdict.model.universe == ("x", "y")
        assert verdict.model.interp == {"r": set()}
        assert verdict.valuation == {"x": "x", "y": "y"}
        assert falsifies_branch(verdict.model, verdict.valuation, verdict.branch)

    def test_universal_composition_saturates_open(self):
        t = simplify_ones(parse_term("1 ; (r ; 1)"))
        verdict = run_procedure(t)
        assert isinstance(verdict, Countermodel)
        assert F("x", "r ; 1", "y") in verdict.branch.history
        assert F("y", "r ; 1", "y") in verdict.branch.history
        assert falsifies_branch(verdict.model, verdict.valuation, verdict.branch)
        assert not satisfies(verdict.model, verdict.valuation,
                             RelFormula("x", t, "y"))

    def test_blocking_keeps_the_branch_finite(self):
        t = simplify_ones(parse_term("1 ; -(r ; (s ; 1))"))
        verdict = run_procedure(t)
        assert isinstance(verdict, Countermodel)
        b = verdict.branch
        blocked = [app for z in b.vars for app in applications(b, z)]
        assert blocked and all(rule == "blocked" for rule, _, _ in blocked)
        for _, f, blocker in blocked:
            w = b.decomposed[blocker]
            assert F(f.left, "-r", w) not in b.history
            assert (f.left, w) in verdict.model.interp["r"]
        assert falsifies_branch(verdict.model, verdict.valuation, verdict.branch)

    def test_negated_literal_forces_the_pair_in(self):
        verdict = prove("-r")
        assert isinstance(verdict, Countermodel)
        assert verdict.model.interp == {"r": {("x", "y")}}

    def test_rejects_terms_outside_the_fragment(self):
        with pytest.raises(FragmentViolation):
            run_procedure(parse_term("r^"))
        with pytest.raises(FragmentViolation):
            run_procedure(parse_term("(-r) ; s"))

    def test_step_cap(self):
        with pytest.raises(ResourceExhausted):
            prove("(r | s) | (p | q)", max_steps=1)

    def test_deterministic_trees(self):
        a = verdict_to_json(prove("(1 ; ((r & s) ; 1)) | (-r | -s)"))
        b = verdict_to_json(prove("(1 ; ((r & s) ; 1)) | (-r | -s)"))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_corpus_verdicts_are_reproducible(self, fragment_corpus):
        for term in fragment_corpus[:40]:
            first = verdict_to_json(run_procedure(term))
            second = verdict_to_json(run_procedure(term))
            assert first == second

    def test_closed_leaves_have_no_successors(self):
        verdict = prove("(r & s) | (-r | -s)")
        assert isinstance(verdict, Proof)
        for node in verdict.tree.nodes:
            if node.closed:
                assert node.children == []

    def test_variable_cap(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_VARS", 1)
        with pytest.raises(ResourceExhausted):
            prove("1 ; -(r ; (s ; 1))")

    def test_returned_branch_is_saturated(self):
        for text in ("r", "1 ; (r ; 1)", "1 ; -(r ; (s ; 1))"):
            verdict = prove(text)
            assert isinstance(verdict, Countermodel)
            assert extract_model(verdict.branch) == (verdict.model,
                                                     verdict.valuation)

    @given(fragment_term_strategy(depth=5))
    @settings(max_examples=80, deadline=None)
    def test_random_fragment_verdicts_are_sound(self, term):
        verdict = run_procedure(term)
        if isinstance(verdict, Countermodel):
            assert falsifies_branch(verdict.model, verdict.valuation, verdict.branch)
            assert not satisfies(verdict.model, verdict.valuation,
                                 RelFormula("x", term, "y"))
        else:
            assert brute_force_countermodel(term, 2) is None

    @given(fragment_term_strategy(depth=5))
    @settings(max_examples=60, deadline=None)
    def test_open_branches_meet_the_saturation_characterization(self, term):
        # on a saturated open branch: universal compositions are
        # instantiated with every branch variable, literal-gated
        # compositions with every forced variable, and every undecomposed
        # complemented composition is either inert, suppressed, or blocked
        verdict = run_procedure(term)
        if not isinstance(verdict, Countermodel):
            return
        branch = verdict.branch
        history = branch.history
        for f in history:
            rule = rule_of(f.term)
            if rule == RULE_COMP_UNIV:
                for w in branch.vars:
                    assert RelFormula(w, f.term.right, f.right) in history
            elif rule == RULE_COMP_BOOL:
                for w in v_set(Cmpl(f.term.left), f.left, history):
                    assert RelFormula(w, f.term.right, f.right) in history
            if (rule in (RULE_CMPL_COMP, RULE_CMPL_COMP_ONE)
                    and f not in branch.decomposed and f in branch.node):
                assert is_blocked(f, branch) is not None
            if rule == RULE_CMPL_COMP_UNIV and f not in branch.decomposed:
                s = f.term.arg.right
                assert any(
                    g.term == Cmpl(s) and g.right == f.right
                    and g.left not in branch.vars[:2]
                    for g in history
                )

    def test_trace_events(self):
        events = []
        prove("r | -r", trace=events.append)
        assert events and events[0]["rule"] == RULE_UNION

    def test_branch_discipline(self):
        # every formula a branch ever carries stays within the component
        # set of the input, and compositional formulas keep the right
        # endpoint
        t = simplify_ones(parse_term("1 ; ((r | s) ; -(((q | p) & r) ; 1))"))
        verdict = run_procedure(t)
        assert isinstance(verdict, Countermodel)
        cp = components(t)
        for f in verdict.branch.history:
            assert f.term in cp
            if not is_boolean(f.term):
                assert f.right == "y"

    @pytest.mark.parametrize("term, rule, fired", [
        (simplify_ones(parse_term("1 ; (r ; 1)")), RULE_COMP_UNIV, 2),
        (translate_modal(parse_modal("<r>p -> <r>(p | q)")), RULE_COMP_BOOL, 1),
    ], ids=["comp-univ", "comp-bool"])
    def test_composition_without_a_new_instance_is_an_invariant_error(
            self, monkeypatch, term, rule, fired):
        events = []
        run_procedure(term, trace=events.append)
        assert [e["rule"] for e in events if e["rule"] in (RULE_COMP_BOOL, RULE_COMP_UNIV)
                ] == [rule] * fired
        # a scan that offers an applied instance again
        scan = engine.applications

        def repeating(branch, z):
            for f, done in branch.instances.items():
                for w in done:
                    yield rule_of(f.term), f, w
            yield from scan(branch, z)

        monkeypatch.setattr(engine, "applications", repeating)
        with pytest.raises(EngineInvariantError, match="without progress"):
            run_procedure(term)

    def test_second_child_is_checked_at_its_step(self):
        # ``x r y``, the first child of ``x (r & s) y``, ends open, and the
        # second child ``x s y`` carries a term taken out of the component
        # set: the check fails at the step, not when the child would enter
        search = engine.ProofSearch(parse_term("r & s"))
        search.cp = search.cp - {parse_term("s")}
        with pytest.raises(EngineInvariantError, match="escaped"):
            search.run()
        assert search.tree.steps == 1 and len(search.tree.nodes) == 3

    @pytest.mark.parametrize("family", ["branching", "cycle"])
    def test_one_search_builds_one_branch(self, family, monkeypatch):
        built = []

        class CountedBranch(Branch):
            __slots__ = ()

            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(engine, "Branch", CountedBranch)
        verdict = run_procedure(translate_modal(parse_modal(family_text(family, 4))))
        assert verdict.tree.branch_count > 1
        assert len(built) == 1


class TestExtractModel:
    def test_positive_literal_excludes_its_pair(self):
        verdict = prove("r")
        model, _ = extract_model(verdict.branch)
        assert ("x", "y") not in model.interp["r"]

    def test_no_literals_gives_empty_relations(self):
        verdict = prove("1 ; (r ; 1)")
        model, _ = extract_model(verdict.branch)
        assert model.interp["r"] == set()

    def test_negative_literal_forces_its_pair(self):
        verdict = prove("-r")
        model, _ = extract_model(verdict.branch)
        assert ("x", "y") in model.interp["r"]

    def test_identity_valuation(self):
        verdict = prove("r ; 1")
        model, valuation = extract_model(verdict.branch)
        assert valuation == {w: w for w in model.universe}

    def test_names_are_those_of_the_whole_branch(self, corpus_countermodels):
        # read off the root term alone, they are every relational variable
        # of every formula the branch ever carried
        for verdict in corpus_countermodels:
            names = set().union(*(term_variables(f.term)
                                  for f in verdict.branch.history))
            assert list(extract_model(verdict.branch)[0].interp) == sorted(names)
        assert corpus_countermodels

    def test_requires_saturation(self):
        b = initial(F("x", "r | s", "y"))
        with pytest.raises(BranchNotSaturated):
            extract_model(b)

    def test_requires_open_branch(self):
        b = initial(F("x", "1", "y"))
        with pytest.raises(BranchNotSaturated):
            extract_model(b)


class TestVerdictJson:
    def test_proof_shape(self):
        data = verdict_to_json(prove("r | -r"))
        assert data["verdict"] == "valid"
        assert data["countermodel"] is None
        assert data["proof"]["nodes"][0]["parent"] is None
        assert set(data["stats"]) == {"steps", "branches", "variables"}

    def test_countermodel_shape(self):
        data = verdict_to_json(prove("r"))
        assert data["verdict"] == "invalid"
        assert data["proof"] is None
        assert data["countermodel"]["universe"] == ["x", "y"]
        assert data["countermodel"]["valuation"] == {"x": "x", "y": "y"}

    def test_verdict_bytes_are_pinned(self):
        # the verdict JSON and the trace events of the corpus and of four
        # modal families, byte for byte: a change to the engine must leave
        # every proof tree, countermodel, stats line and step as it is
        terms = build_corpus() + [
            translate_modal(parse_modal(family_text(name, 4)))
            for name in ("modal_dist", "kdist", "branching", "cycle")
        ]
        digest, trace_digest = hashlib.sha256(), hashlib.sha256()
        for term in terms:
            events = []
            data = verdict_to_json(run_procedure(term, trace=events.append))
            digest.update(json.dumps(data, sort_keys=True).encode() + b"\n")
            trace_digest.update(json.dumps(events, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "13128eb18178c0a502e28d5740978c2732c5acf78ae5bfb1ed0137443d69c3ea")
        assert trace_digest.hexdigest() == (
            "937c097ff395a94e8449a2a1795e172954a83d31d667bafd92a8a3af502787d5")
