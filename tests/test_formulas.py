import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boolean_term_strategy
from dualtab.errors import NotBoolean, ParseError
from dualtab.formulas import RelFormula, gate_forced, parse_formula
from dualtab.terms import Cmpl, Inter, ONE, Union, Var, nf_cmpl, parse_term
from reference import has_nbool_construction, is_nbool, v_set, variables_of


def F(left, text, right):
    return RelFormula(left, parse_term(text), right)


@pytest.fixture
def forced_set():
    # the four-literal set used across the forcing examples
    return dict.fromkeys([
        F("x", "-r", "z"),
        F("x", "s", "z"),
        F("x", "-p", "y"),
        F("z", "p | s", "y"),
    ])


class TestIsNbool:
    def test_intersection_with_forced_union(self, forced_set):
        assert is_nbool(F("x", "((-r) | s) & q", "z"), forced_set)

    def test_unnormalized_complement_blocks_it(self, forced_set):
        assert not is_nbool(F("x", "s & (-(q | p))", "z"), forced_set)

    def test_literal_of_the_set(self, forced_set):
        assert is_nbool(F("x", "-p", "y"), forced_set)

    def test_literal_outside_the_set(self, forced_set):
        assert not is_nbool(F("y", "-p", "y"), forced_set)

    def test_rejects_non_boolean(self, forced_set):
        with pytest.raises(NotBoolean):
            is_nbool(F("x", "r ; 1", "y"), forced_set)

    @given(boolean_term_strategy(variables=("p", "q", "r", "s")))
    @settings(max_examples=60)
    def test_members_are_in_normal_form(self, t):
        n = dict.fromkeys([
            F("x", "-r", "z"), F("x", "s", "z"), F("x", "-p", "y"),
            F("z", "p | s", "y"),
        ])
        f = RelFormula("x", t, "z")
        if is_nbool(f, n):
            assert t == nf_cmpl(t)


class TestNboolConstruction:
    def test_after_normalization(self, forced_set):
        assert has_nbool_construction(F("x", "s & (-(q | p))", "z"), forced_set)

    def test_nothing_from_empty_set(self):
        assert not has_nbool_construction(F("x", "q & p", "z"), {})

    def test_already_normal(self, forced_set):
        assert has_nbool_construction(F("x", "((-r) | s) & q", "z"), forced_set)

    @given(boolean_term_strategy(variables=("p", "q", "r", "s"), max_leaves=6),
           st.sets(st.sampled_from([
               ("x", "-r", "z"), ("x", "s", "z"), ("x", "-p", "y"),
               ("x", "q", "z"), ("x", "-s", "y"),
           ])))
    @settings(max_examples=60)
    def test_monotone_in_the_literal_set(self, t, extra):
        base = dict.fromkeys([F("x", "-r", "z")])
        larger = dict.fromkeys(base)
        larger.update(dict.fromkeys(F(*parts) for parts in extra))
        f = RelFormula("x", t, "z")
        if has_nbool_construction(f, base):
            assert has_nbool_construction(f, larger)


class TestVSet:
    def test_negated_literal(self, forced_set):
        assert v_set(parse_term("-r"), "x", forced_set) == {"z"}

    def test_empty_set(self):
        assert v_set(parse_term("q"), "x", {}) == set()

    def test_union_of_literals(self, forced_set):
        assert v_set(parse_term("(-r) | s"), "x", forced_set) == {"z"}

    def test_matches_pointwise_definition(self, forced_set):
        # the set is exactly the variables whose formula has a construction
        for term_text in ("-r", "s", "(-r) | s", "s & q", "-(r | p)"):
            term = parse_term(term_text)
            expected = {
                z for z in variables_of(forced_set)
                if has_nbool_construction(RelFormula("x", term, z), forced_set)
            }
            assert v_set(term, "x", forced_set) == expected

    def test_restricted_to_set_variables(self, forced_set):
        assert v_set(parse_term("-r"), "x", forced_set) <= set(variables_of(forced_set))

    @given(boolean_term_strategy(variables=("p", "q", "r", "s"), max_leaves=6),
           st.sets(st.sampled_from([
               ("x", "-r", "w"), ("x", "s", "w"), ("x", "-q", "z"),
               ("x", "p", "z"), ("x", "-s", "y"),
           ])))
    @settings(max_examples=60)
    def test_monotone_in_the_literal_set(self, t, extra):
        base = dict.fromkeys([F("x", "-r", "z"), F("x", "s", "z")])
        larger = dict.fromkeys(base)
        larger.update(dict.fromkeys(F(*parts) for parts in extra))
        assert v_set(t, "x", base) <= v_set(t, "x", larger)


class TestGateForced:
    def test_matches_the_construction_on_every_small_gate(self):
        # every plain gate of up to four leaves over p, q, r, against every
        # set of the literals ``x -v z`` and two that must not count
        gates = {Var(v) for v in "pqr"}
        for _ in range(2):
            gates |= {op(a, b) for a in gates for b in gates for op in (Union, Inter)}
        literals = [F("x", f"-{v}", "z") for v in "pqr"]
        noise = [F("x", "p", "z"), F("z", "-q", "x")]
        for bits in range(8):
            n = dict.fromkeys([f for i, f in enumerate(literals) if bits >> i & 1] + noise)
            for gate in gates:
                assert gate_forced("x", gate, "z", n) == has_nbool_construction(
                    RelFormula("x", Cmpl(gate), "z"), n), (gate, bits)


class TestParseFormula:
    def test_explicit_endpoints(self):
        f = parse_formula("u (r | s) w")
        assert (f.left, f.right) == ("u", "w")
        assert f.term == parse_term("r | s")

    def test_bare_term_gets_default_endpoints(self):
        f = parse_formula("r ; 1")
        assert (f.left, f.right) == ("x", "y")

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("x (r y")

    @pytest.mark.parametrize("text", ["x r | s y", "r | s"])
    def test_tokenizes_once(self, text, monkeypatch):
        # a failed bare-term reading rewinds the tokens for the triple
        from dualtab import terms

        calls = []
        init = terms.TokenStream.__init__

        def counting(self, text):
            calls.append(text)
            init(self, text)

        monkeypatch.setattr(terms.TokenStream, "__init__", counting)
        parse_formula(text)
        assert calls == [text]
