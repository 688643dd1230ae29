import pytest
from hypothesis import given, settings

from conftest import (all_modal, all_models, boolean_term_strategy, build_corpus,
                      family_text, term_strategy)
from dualtab import terms
from dualtab.errors import NotBoolean, ParseError
from dualtab.formulas import parse_formula
from dualtab.frontends import (EntailmentProblem, encode_entailment, parse_modal,
                               translate_modal)
from dualtab.frontends.modal import Or, Prop
from dualtab.semantics import eval_term
from dualtab.terms import (CMPL_ONE, MAX_DEPTH, MAX_NESTING, Cmpl, Comp, Conv,
                           Inter, ONE, One, Union, Var,
                           components, fragment_check, is_boolean, nf_cmpl,
                           parse_term, render_term, simplify_ones, term_size,
                           term_variables)
from reference import is_cnf, is_plain_boolean, term_depth


def subterms(u):
    yield u
    match u:
        case Cmpl(a) | Conv(a):
            yield from subterms(a)
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            yield from subterms(l)
            yield from subterms(r)


TERM_STARTS = ("ident", "1", "(", "-")
MODAL_STARTS = ("ident", "~", "(", "[", "<")

# (parser, text, message, byte offset, expected set) of a parse error; the
# unicode aliases take three bytes each, so an offset after one is no index
ERROR_POSITIONS = [
    (parse_term, "r ∪ ?", "unexpected character '?'", 6, TERM_STARTS),
    (parse_term, "−−r ∩", "expected a term, found end of input", 11, TERM_STARTS),
    (parse_term, "(r", "expected ')', found end of input", 2, (")",)),
    (parse_term, "r r", "trailing input 'r'", 2, ("|", "&", ";", "^", "eof")),
    (parse_term, "-" * 101 + "r", "nesting deeper than 100 levels", 100, ()),
    (parse_term, "r" + " | r" * 600, "syntax tree deeper than 500 levels", 1998, ()),
    (parse_modal, "[r ∪ s]p ∧ q", "unexpected character '∧'", 11, MODAL_STARTS),
    (parse_modal, "[r ∪ ?]p", "bad program term: unexpected character '?'", 7, TERM_STARTS),
    (parse_modal, "[r ∪ s p", "missing ']' for modality", 0, ("]",)),
    (parse_modal, "<−r>p", "modality programs must be complement- and 1-free Boolean terms",
     0, ("plain Boolean program",)),
    (parse_modal, "(p", "expected ')', found end of input", 2, (")",)),
    (parse_modal, "p q", "trailing input 'q'", 2, ("&", "|", "->", "<->", "eof")),
    (parse_modal, "p -> ", "expected a formula, found end of input", 5, MODAL_STARTS),
    (parse_modal, "~" * 101 + "p", "nesting deeper than 100 levels", 100, ()),
    (parse_formula, "x r ∪ s y z", "expected 'eof', found 'z'", 12, ("eof",)),
    (parse_formula, "x r ∪ ? y", "unexpected character '?'", 8, TERM_STARTS),
    (parse_formula, "x ⌣r y", "trailing input 'r'", 5, ("|", "&", ";", "^", "eof")),
    (parse_formula, "x r", "expected 'ident', found end of input", 3, ("ident",)),
    (parse_formula, "x −r ; (s y", "expected ')', found 'y'", 12, (")",)),
]


class TestParse:
    def test_complement_of_composition(self):
        assert parse_term("-(r ; 1)") == Cmpl(Comp(Var("r"), ONE))

    def test_nested_composition(self):
        expected = Cmpl(Comp(Union(Var("r1"), Var("s")), Comp(Var("p"), ONE)))
        assert parse_term("-((r1 | s) ; (p ; 1))") == expected

    def test_incomplete_input_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_term("r &")
        assert exc.value.offset == 3
        assert exc.value.expected

    @pytest.mark.parametrize("parse, text, message, offset, expected", ERROR_POSITIONS,
                             ids=[f"{parse.__name__}-{i}"
                                  for i, (parse, *_) in enumerate(ERROR_POSITIONS)])
    def test_error_position(self, parse, text, message, offset, expected):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} at offset {offset}"
        assert exc.value.offset == offset
        assert exc.value.expected == frozenset(expected)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_term("r r")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError) as exc:
            parse_term("(r | s")
        assert ")" in exc.value.expected

    def test_precedence(self):
        # '-' over ';' over '&' over '|', left-assoc chains
        assert parse_term("-r ; s") == Comp(Cmpl(Var("r")), Var("s"))
        assert parse_term("r ; s & p | q") == Union(
            Inter(Comp(Var("r"), Var("s")), Var("p")), Var("q")
        )
        assert parse_term("r | s | p") == Union(Union(Var("r"), Var("s")), Var("p"))

    def test_converse_postfix(self):
        assert parse_term("r^") == Conv(Var("r"))
        assert parse_term("r^^") == Conv(Conv(Var("r")))
        assert parse_term("-r^") == Cmpl(Conv(Var("r")))
        assert parse_term("(r | s)^") == Conv(Union(Var("r"), Var("s")))

    def test_unicode_aliases(self):
        assert parse_term("r ∪ s") == Union(Var("r"), Var("s"))
        assert parse_term("r ∩ s") == Inter(Var("r"), Var("s"))
        assert parse_term("−r") == Cmpl(Var("r"))
        assert parse_term("r⌣") == Conv(Var("r"))


class TestNestingLimit:
    @pytest.mark.parametrize("make", [
        lambda k: "(" * k + "r" + ")" * k,
        lambda k: "-" * k + "r",
        lambda k: "r" + "^" * k,
        lambda k: "-(" * (k // 2) + "r" + ")" * (k // 2),
    ])
    def test_limit_is_exact(self, make):
        assert parse_term(make(MAX_NESTING)) is not None
        with pytest.raises(ParseError) as exc:
            parse_term(make(MAX_NESTING + 2))
        assert "nesting" in str(exc.value)

    def test_siblings_do_not_add_up(self):
        wide = " | ".join(["(" * MAX_NESTING + "r" + ")" * MAX_NESTING] * 3)
        r = Var("r")
        assert parse_term(wide) == Union(Union(r, r), r)


class TestInterning:
    def test_equal_structure_is_the_same_object(self):
        assert Cmpl(Var("r")) is Cmpl(Var("r"))
        assert Comp(Var("r"), ONE) is Comp(Var("r"), One())
        assert Union(Var("r"), Var("s")) is not Union(Var("s"), Var("r"))

    def test_identity_survives_parsing(self):
        assert parse_term("-(r ; 1)") is Cmpl(Comp(Var("r"), ONE))
        assert parse_term("(r | s) & t") is parse_term("((r)|(s))&t")

    def test_identity_survives_normal_forms(self):
        assert nf_cmpl(parse_term("-(r & -s)")) is Union(Cmpl(Var("r")), Var("s"))
        assert simplify_ones(parse_term("1 & (p | -1)")) is Var("p")
        assert simplify_ones(parse_term("-(-1)")) is ONE

    def test_copies_are_the_interned_term(self):
        import copy
        import pickle

        for t in (ONE, Var("r"), parse_term("-(r ; 1) | (s & -t^)")):
            assert copy.copy(t) is t and copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t

    def test_table_does_not_keep_dead_terms(self):
        import gc
        import weakref

        ref = weakref.ref(Comp(Var("unused_a"), Var("unused_b")))
        gc.collect()
        assert ref() is None
        fresh = Comp(Var("unused_a"), Var("unused_b"))
        assert (fresh.left.name, fresh.right.name) == ("unused_a", "unused_b")

    def test_a_dead_terms_key_leaves_the_table(self):
        a, b = Var("dead_a"), Var("dead_b")
        t = Union(a, b)
        assert terms._INTERNED[Union, a, b]() is t
        del t
        assert (Union, a, b) not in terms._INTERNED
        assert terms.interned(Union, a, b) is None

    def test_a_term_rebuilt_after_its_death_is_interned_again(self):
        a, b = Var("reborn_a"), Var("reborn_b")
        t = Inter(a, b)
        del t
        # a dead reference whose callback has not run yet
        dead = terms._INTERNED[Inter, a, b] = terms._Ref(type("Gone", (), {})())
        assert dead() is None
        t = Inter(a, b)
        assert Inter(a, b) is t and terms.interned(Inter, a, b) is t
        assert terms._INTERNED[Inter, a, b]() is t

    def test_a_late_callback_does_not_drop_a_rebound_entry(self):
        a, b = Var("late_a"), Var("late_b")
        old = terms._INTERNED.get((Comp, a, b))
        t = Comp(a, b)
        dead = terms._INTERNED[Comp, a, b]
        del t
        assert dead() is None and old is None
        t = Comp(a, b)
        terms._drop(dead)  # the dead reference's callback, run late
        assert terms._INTERNED[Comp, a, b]() is t
        assert Comp(a, b) is t


class TestRender:
    def test_variable(self):
        assert render_term(Var("r")) == "r"

    def test_union_with_constant(self):
        assert render_term(Union(ONE, Var("p"))) == "(1 | p)"

    def test_double_complement_of_constant(self):
        assert render_term(Cmpl(Cmpl(ONE))) == "-(-1)"

    @given(term_strategy())
    def test_round_trip(self, t):
        assert parse_term(render_term(t)) == t

    def test_shared_memo_gives_the_text_of_a_fresh_render(self):
        # the k=12 chain is far larger as a tree than as a DAG; a memo
        # shared across calls must give every subterm its own text
        term = translate_modal(parse_modal(" <-> ".join(f"p{i}" for i in range(13))))
        memo = {}
        assert render_term(term.left, memo) == render_term(term.left)
        assert render_term(term, memo) == render_term(term)
        assert all(text == render_term(t) for t, text in memo.items())
        assert len(memo) < 200 and len(render_term(term)) > 100_000


class TestTermVariables:
    def test_sorted_names(self):
        assert term_variables(parse_term("(s ; r) | -(t & (r^ ; 1))")) == ["r", "s", "t"]
        assert term_variables(parse_term("1 ; -1")) == []

    def test_shared_subterms_are_walked_once(self):
        # as a tree this term has 2**40 leaves
        t = Var("r")
        for _ in range(40):
            t = Union(t, t)
        assert term_variables(t) == ["r"]


class TestSimplifyOnes:
    def test_union_with_one(self):
        assert simplify_ones(parse_term("1 | p")) == ONE

    def test_intersection_with_complemented_one(self):
        assert simplify_ones(parse_term("-1 & p")) == CMPL_ONE

    def test_nested(self):
        t = parse_term("1 & (p | -1)")
        simplified = simplify_ones(t)
        assert simplified == Var("p")
        # independent check: the rewrite preserves meaning on every
        # two-element model
        for model in all_models(["p"], 2):
            assert eval_term(model, t) == eval_term(model, simplified)

    @given(term_strategy(with_conv=False))
    def test_idempotent(self, t):
        once = simplify_ones(t)
        assert simplify_ones(once) == once

    @given(term_strategy(with_conv=False))
    def test_boolean_subterms_normalized(self, t):
        # after simplification a Boolean subterm is 1, -1, or 1-free
        simplified = simplify_ones(t)
        for sub in subterms(simplified):
            if is_boolean(sub) and sub not in (ONE, CMPL_ONE):
                assert ONE not in subterms(sub)


class TestNfCmpl:
    def test_de_morgan_union(self):
        assert nf_cmpl(parse_term("-(q | p)")) == Inter(Cmpl(Var("q")), Cmpl(Var("p")))

    def test_double_complement(self):
        assert nf_cmpl(parse_term("--s")) == Var("s")

    def test_already_normal(self):
        t = parse_term("r | s")
        assert nf_cmpl(t) == t

    def test_rejects_composition(self):
        with pytest.raises(NotBoolean):
            nf_cmpl(parse_term("r ; s"))

    @given(boolean_term_strategy())
    def test_idempotent_and_normal(self, t):
        normal = nf_cmpl(t)
        assert nf_cmpl(normal) == normal
        assert is_cnf(normal)

    @given(boolean_term_strategy(variables=("p", "q"), max_leaves=6))
    @settings(max_examples=40)
    def test_preserves_meaning(self, t):
        normal = nf_cmpl(t)
        for model in all_models(term_variables(t), 2):
            assert eval_term(model, t) == eval_term(model, normal)


class TestComponents:
    def test_variable(self):
        assert components(Var("r")) == {Var("r")}

    def test_union(self):
        t = parse_term("r | s")
        assert components(t) == {t, Var("r"), Var("s")}

    def test_complemented_union(self):
        t = parse_term("-(r | s)")
        assert components(t) == {t, Cmpl(Var("r")), Cmpl(Var("s"))}

    def test_contains_term_itself(self):
        t = parse_term("1 ; (-(r ; (s ; 1)))")
        assert t in components(t)

    @given(term_strategy())
    def test_bounded_by_twice_the_size(self, t):
        assert len(components(t)) <= 2 * term_size(t)


class TestPlainBoolean:
    def test_plain_boolean(self):
        assert is_plain_boolean(parse_term("(r1 | s) & r2"))

    def test_complement_is_not_plain(self):
        t = parse_term("-r")
        assert not is_plain_boolean(t)
        assert is_cnf(t)

    def test_composition_with_one(self):
        t = parse_term("p ; 1")
        assert not is_plain_boolean(t)
        assert ONE in components(t)

    @given(term_strategy())
    def test_plain_implies_cnf_and_one_free(self, t):
        if is_plain_boolean(t):
            assert is_cnf(t)
            assert ONE not in components(t)


class TestFragmentCheck:
    @pytest.mark.parametrize("text", [
        "-((r1 | s) ; (p ; 1))",
        "1 ; ((r1 | s) ; -((((q | p) & r1) ; 1)))",
        "1 ; (((r1 | s) & r2) ; 1)",
    ])
    def test_accepts(self, text):
        assert fragment_check(simplify_ones(parse_term(text)))

    def test_rejects_complemented_left_operand(self):
        verdict = fragment_check(parse_term("(-r) ; s"))
        assert not verdict
        assert verdict.offender == Cmpl(Var("r"))

    def test_rejects_converse(self):
        verdict = fragment_check(simplify_ones(parse_term("r^")))
        assert not verdict
        assert "converse" in verdict.clause

    @pytest.mark.parametrize("text, offender, clause", [
        ("r^", "r^", "converse is not allowed"),
        ("s ; (r^)", "r^", "converse is not allowed"),
        ("(-r) ; s", "-r", "left operand of ';' must be 1 or"),
        ("s ; ((-r) ; t)", "-r", "inside a composition's right operand, every"),
        ("1 ; t", None, None),
        ("s ; (1 ; t)", "1", "inside a composition's right operand, every"),
        ("1 | s", None, None),
        ("s ; (t | 1)", "1", "inside a composition's right operand, 1 may"),
    ])
    def test_each_clause_at_top_level_and_in_a_right_operand(
            self, text, offender, clause):
        verdict = fragment_check(parse_term(text))
        assert bool(verdict) == (offender is None)
        if offender is None:
            assert verdict.offender is None and verdict.clause is None
        else:
            assert verdict.offender == parse_term(offender)
            assert verdict.clause.startswith(clause)

    def test_rejects_composition_as_left_operand(self):
        assert not fragment_check(parse_term("(r ; 1) ; s"))

    def test_rejects_misplaced_one_in_right_operand(self):
        assert not fragment_check(parse_term("r ; (1 ; s)"))
        assert not fragment_check(parse_term("r ; (s | 1)"))

    def test_accepts_inert_shapes(self):
        assert fragment_check(parse_term("-(1 ; 1)"))
        assert fragment_check(parse_term("1 ; 1"))

    def test_accepted_compositions_have_admissible_left(self):
        def comps(t):
            match t:
                case Comp(l, r):
                    yield t
                    yield from comps(l)
                    yield from comps(r)
                case Cmpl(a) | Conv(a):
                    yield from comps(a)
                case Union(l, r) | Inter(l, r):
                    yield from comps(l)
                    yield from comps(r)
                case _:
                    return

        for text in ["-((r1 | s) ; (p ; 1))",
                     "1 ; ((r1 | s) ; -((((q | p) & r1) ; 1)))"]:
            t = simplify_ones(parse_term(text))
            assert fragment_check(t)
            for comp in comps(t):
                assert comp.left == ONE or is_plain_boolean(comp.left)


# Reference definitions: the recursive walks that the attributes set at
# interning replace.

def ref_boolean(t):
    match t:
        case One() | Var():
            return True
        case Cmpl(a):
            return ref_boolean(a)
        case Union(l, r) | Inter(l, r):
            return ref_boolean(l) and ref_boolean(r)
    return False


def ref_cnf(t):
    match t:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return True
        case Cmpl(_):
            return False
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            return ref_cnf(l) and ref_cnf(r)
        case Conv(a):
            return ref_cnf(a)


def ref_plain(t):
    match t:
        case Var():
            return True
        case Union(l, r) | Inter(l, r):
            return ref_plain(l) and ref_plain(r)
    return False


def ref_depth(t):
    match t:
        case One() | Var():
            return 1
        case Cmpl(a) | Conv(a):
            return 1 + ref_depth(a)
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            return 1 + max(ref_depth(l), ref_depth(r))


def ref_size(t):
    match t:
        case One() | Var():
            return 1
        case Cmpl(a) | Conv(a):
            return 1 + ref_size(a)
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            return 1 + ref_size(l) + ref_size(r)


def ref_nf_cmpl(t):
    match t:
        case One() | Var():
            return t
        case Union(l, r):
            return Union(ref_nf_cmpl(l), ref_nf_cmpl(r))
        case Inter(l, r):
            return Inter(ref_nf_cmpl(l), ref_nf_cmpl(r))
        case Cmpl(a):
            match a:
                case One() | Var():
                    return t
                case Cmpl(b):
                    return ref_nf_cmpl(b)
                case Inter(l, r):
                    return Union(ref_nf_cmpl(Cmpl(l)), ref_nf_cmpl(Cmpl(r)))
                case Union(l, r):
                    return Inter(ref_nf_cmpl(Cmpl(l)), ref_nf_cmpl(Cmpl(r)))
                case _:
                    raise NotBoolean(f"term contains a non-Boolean operator: {render_term(a)}")
        case _:
            raise NotBoolean(f"term contains a non-Boolean operator: {render_term(t)}")


def simplify_ones_walk(t):
    """The recursive tree walk that ``simplify_ones`` replaced."""
    match t:
        case One() | Var():
            return t
        case Cmpl(a):
            a2 = simplify_ones_walk(a)
            return ONE if a2 == CMPL_ONE else Cmpl(a2)
        case Union(l, r):
            l2, r2 = simplify_ones_walk(l), simplify_ones_walk(r)
            if l2 == ONE or r2 == ONE:
                return ONE
            if l2 == CMPL_ONE:
                return r2
            if r2 == CMPL_ONE:
                return l2
            return Union(l2, r2)
        case Inter(l, r):
            l2, r2 = simplify_ones_walk(l), simplify_ones_walk(r)
            if l2 == CMPL_ONE or r2 == CMPL_ONE:
                return CMPL_ONE
            if l2 == ONE:
                return r2
            if r2 == ONE:
                return l2
            return Inter(l2, r2)
        case Comp(l, r):
            return Comp(simplify_ones_walk(l), simplify_ones_walk(r))
        case Conv(a):
            return Conv(simplify_ones_walk(a))


def _fragment_walk(t, inside):
    """The recursive walk that ``fragment_check`` replaced: whether ``t``
    is accepted, at top level or inside a composition's right operand."""
    match t:
        case One():
            return not inside
        case Var():
            return True
        case Conv():
            return False
        case Cmpl(a):
            return _fragment_walk(a, inside)
        case Union(l, r) | Inter(l, r):
            return _fragment_walk(l, inside) and _fragment_walk(r, inside)
        case Comp(l, r):
            if inside and not ref_plain(l):
                return False
            if not (isinstance(l, One) or ref_plain(l)):
                return False
            return isinstance(r, One) or _fragment_walk(r, True)


def ref_weight(t):
    """The engine's recursive weight, None where it raised."""
    match t:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return 0
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            parts = (ref_weight(l), ref_weight(r))
        case Cmpl(Union(l, r)) | Cmpl(Inter(l, r)) | Cmpl(Comp(l, r)):
            parts = (ref_weight(Cmpl(l)), ref_weight(Cmpl(r)))
        case Cmpl(Cmpl(a)):
            parts = (ref_weight(a), 0)
        case _:
            return None
    return None if None in parts else sum(parts) + 1


def assert_preparation_matches_reference(u):
    """The attributes that prepare a term for the engine against the
    walkers they replaced, and the readers that use them."""
    simplified = simplify_ones_walk(u)
    assert u.simple == (simplified is u), u
    assert simplify_ones(u) is simplified
    assert (u.fragment, u.fragment_inside) == (
        _fragment_walk(u, False), _fragment_walk(u, True)), u
    assert bool(fragment_check(u)) == u.fragment
    assert (u.weight, u.cweight) == (ref_weight(u), ref_weight(Cmpl(u))), u


def assert_attributes_match_reference(roots):
    seen = set()
    for root in roots:
        seen.update(subterms(root))
    for u in seen:
        assert (u.boolean, u.cnf, u.plain, u.depth, u.size) == (
            ref_boolean(u), ref_cnf(u), ref_plain(u), ref_depth(u), ref_size(u)), u
        assert (is_boolean(u), is_cnf(u), is_plain_boolean(u), term_depth(u),
                term_size(u)) == (u.boolean, u.cnf, u.plain, u.depth, u.size)
        assert repr(u) == render_term(u)
        assert_preparation_matches_reference(u)
        try:
            expected = ref_nf_cmpl(u)
        except NotBoolean as exc:
            with pytest.raises(NotBoolean) as got:
                nf_cmpl(u)
            assert str(got.value) == str(exc)
        else:
            assert nf_cmpl(u) is expected
            assert nf_cmpl(u) is expected  # the memoised answer
    return len(seen)


class TestAttributes:
    def test_corpus(self):
        assert assert_attributes_match_reference(build_corpus()) > 500

    def test_families(self):
        roots = [translate_modal(parse_modal(family_text(name, 4)))
                 for name in ("modal_dist", "kdist", "branching", "cycle")]
        assert assert_attributes_match_reference(roots) > 100

    def test_modal_sweep(self):
        assert assert_attributes_match_reference(map(translate_modal, all_modal(3))) > 1848

    @given(term_strategy(max_leaves=12))
    def test_random_terms(self, t):
        assert_attributes_match_reference([t])

    def test_every_small_term(self):
        # every term up to three levels over 1, r and s, with converse
        level = [ONE, Var("r"), Var("s")]
        for _ in range(2):
            level = list({**dict.fromkeys(level),
                          **dict.fromkeys(c(a) for c in (Cmpl, Conv) for a in level),
                          **dict.fromkeys(c(a, b) for c in (Union, Inter, Comp)
                                          for a in level for b in level)})
        assert len(level) == 3963
        for u in level:
            assert_preparation_matches_reference(u)


def chain(op, n):
    return f" {op} ".join(f"r{i}" for i in range(n))


class TestDepthLimit:
    @pytest.mark.parametrize("make", [
        lambda n: chain("|", n),
        lambda n: chain("&", n),
        lambda n: chain(";", n),
        lambda n: f"-({chain('|', n - 1)})",
        lambda n: f"({chain('&', n - 1)})^",
        lambda n: f"s & ({chain('|', n - 1)})",
    ], ids=["union", "inter", "comp", "complement", "converse", "right-operand"])
    def test_limit_is_exact(self, make):
        assert parse_term(make(MAX_DEPTH)).depth == MAX_DEPTH
        with pytest.raises(ParseError) as exc:
            parse_term(make(MAX_DEPTH + 1))
        assert f"deeper than {MAX_DEPTH} levels" in str(exc.value)

    # ``simplify_ones`` rebuilds every level of these, and must still take
    # one frame per level at the bound.
    @pytest.mark.parametrize("text", [
        " | ".join(["-1"] + [f"r{i}" for i in range(1, MAX_DEPTH - 1)]),
        " & ".join(["1"] + [f"r{i}" for i in range(1, MAX_DEPTH)]),
    ], ids=["union", "inter"])
    def test_simplify_ones_at_the_limit(self, text):
        t = parse_term(text)
        assert t.depth == MAX_DEPTH and not t.simple
        assert simplify_ones(t) is parse_term(text.split(maxsplit=2)[2])

    def test_error_points_at_the_operator_past_the_bound(self):
        text = chain("|", MAX_DEPTH + 5)
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert exc.value.offset == text.index(f"| r{MAX_DEPTH}")

    def test_explicit_endpoints_route(self):
        assert parse_formula(f"x {chain('|', MAX_DEPTH)} y").term.depth == MAX_DEPTH
        with pytest.raises(ParseError, match="deeper than"):
            parse_formula(f"x {chain('|', MAX_DEPTH + 1)} y")

    @pytest.mark.parametrize("build", [
        lambda: parse_term(chain("|", 10_000)),
        lambda: parse_formula(f"x {chain('&', 10_000)} y"),
        lambda: encode_entailment(EntailmentProblem(
            [parse_term(f"-r{i}") for i in range(10_000)], parse_term("r0"))),
    ], ids=["parse_term", "parse_formula", "encode_entailment"])
    def test_no_deeper_term_is_built(self, monkeypatch, build):
        deepest = []
        interned = terms._interned

        def recording(cls, *fields):
            t = interned(cls, *fields)
            deepest.append(t.depth)
            return t

        monkeypatch.setattr(terms, "_interned", recording)
        with pytest.raises(ParseError, match="deeper than"):
            build()
        assert max(deepest) == MAX_DEPTH

    def test_modal_formula_and_translation(self):
        # A chain of n propositions is n deep; its image is one deeper.
        text = " | ".join(f"p{i}" for i in range(MAX_DEPTH + 1))
        with pytest.raises(ParseError, match="syntax tree deeper"):
            parse_modal(text)
        f = parse_modal(" | ".join(f"p{i}" for i in range(MAX_DEPTH)))
        assert f.depth == MAX_DEPTH
        with pytest.raises(ParseError, match="translated term deeper"):
            translate_modal(f)
        assert translate_modal(f.left).depth == MAX_DEPTH

    def test_modal_formula_built_in_code(self):
        f = Prop("p0")
        for i in range(1, 10_000):
            f = Or(f, Prop(f"p{i}"))
        with pytest.raises(ParseError, match="modal formula deeper"):
            translate_modal(f)
