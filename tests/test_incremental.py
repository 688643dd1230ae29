"""The engine's incremental search state against its from-scratch meaning.

A search is driven to its verdict; after every rule application, on the
branch that took it, the formulas the step says it added to and removed
from the node are compared with a diff of the tree's replayed node
against its parent, the branch's node with the set of the replayed
node, and each index the branch keeps up to date with a plain
recomputation over the whole history or node, or over the tree path to
the node: the agenda's groups, the composition instances read off the
path's steps, the applications the agenda yields at every
variable, the branch's variables, the per-key formula lists, the forced
set of every gate at every variable, the variable order, and the
blocking verdict of every complemented composition on the node.  Since
a search keeps one branch, a second child is checked after the branch
has been undone to its step's mark.  Every replayed node is compared
with the node built as a full copy of its parent, as the search once
built it.  A second search marks the branch before each step, enters
the step, undoes to the mark and checks that every slot, the node
included, is as it was, then enters the step again; a
third does the same across two steps and two nested marks, and a count
of ``gate_forced`` calls shows that undoing recomputes nothing.  A
fourth checks that the scheduler's scans and the model extraction write
nothing to a branch, and a fifth that every inverse on the trail is a
builtin or a ``functools.partial`` of one, so that undoing runs no
Python code.
"""

from collections import Counter
from functools import partial
from types import BuiltinFunctionType

import pytest

from conftest import family_text
from dualtab import engine, formulas
from dualtab.engine import (RULE_CMPL_COMP, RULE_CMPL_COMP_ONE,
                            RULE_CMPL_COMP_UNIV, RULE_CMPL_INTER,
                            RULE_CMPL_UNION, RULE_COMP_BOOL, RULE_COMP_UNIV,
                            RULE_DOUBLE_CMPL, RULE_INTER, RULE_UNION,
                            Branch, Countermodel, ProofSearch, Proof,
                            applications, conclusions, extract_model,
                            is_axiomatic, is_blocked, rule_of)
from dualtab.formulas import RelFormula, gate_index
from dualtab.frontends import parse_modal, translate_modal
from dualtab.terms import (ONE, Cmpl, Comp, Inter, Union, Var, components,
                           parse_term, simplify_ones)
from reference import has_nbool_construction, v_set, variables_of


def genealogy(branch):
    """Each generated variable and the premise that introduced it."""
    return {w: f for f, w in branch.decomposed.items() if w is not None}


def descends_from_right_root(branch, w):
    """Walk the genealogy of ``w`` up: through premises' left endpoints,
    until the right root, a root, or a ``cmpl-comp-univ`` witness."""
    parents = genealogy(branch)
    while w in parents:
        premise = parents[w]
        if rule_of(premise.term) == RULE_CMPL_COMP_UNIV:
            return False
        if premise.left == branch.vars[1]:
            return True
        w = premise.left
    return False


def scratch_order(branch):
    x, y = branch.vars[:2]
    rest = branch.vars[2:]
    after = [w for w in rest if descends_from_right_root(branch, w)]
    before = [w for w in rest if w not in after]
    return [x, *before, y, *after]


def scratch_blocked(f, branch):
    """The blocking test as a scan over the whole history."""
    history = list(branch.history)
    for g in history:
        if g == f or g.term != f.term or g.right != f.right:
            continue
        w = branch.decomposed.get(g)
        if w is None:
            continue
        renamed = dict.fromkeys(
            RelFormula(f.left, h.term, w) for h in history
            if h.left == g.left and h.right == w
            and isinstance(h.term, Cmpl) and isinstance(h.term.arg, Var)
        )
        if all(RelFormula(g.left, h.term, f.right) in branch.history
               for h in history
               if h.left == f.left and h.right == f.right
               and rule_of(h.term) == RULE_COMP_BOOL
               and has_nbool_construction(RelFormula(f.left, Cmpl(h.term.left), w),
                                          renamed)):
            return g
    return None


# the phase of each rule, in the order the scan tries them
PHASE = {**dict.fromkeys((RULE_UNION, RULE_CMPL_UNION, RULE_INTER,
                          RULE_CMPL_INTER, RULE_DOUBLE_CMPL), 0),
         **dict.fromkeys((RULE_CMPL_COMP, RULE_CMPL_COMP_ONE,
                          RULE_CMPL_COMP_UNIV), 1),
         RULE_COMP_BOOL: 2, RULE_COMP_UNIV: 3}


def scratch_agenda(branch, node):
    """The formulas with work of ``node``, the branch's node in order,
    grouped by left variable and phase, the ``(1;S)`` premises under
    ``(None, 3)``, each group in node order.  A premise already decomposed
    has no work."""
    groups = {}
    for f in node:
        phase = PHASE.get(rule_of(f.term))
        if phase is not None and not (phase < 2 and f in branch.decomposed):
            groups.setdefault((None if phase == 3 else f.left, phase), []).append(f)
    return groups


def scratch_applications(branch, node, z):
    """The applicability scan as a walk over the whole of ``node``, the
    branch's node in order, with forced sets, blocking and suppression
    recomputed over the whole history."""
    instances, decomposed = branch.instances, branch.decomposed
    generated, plain = genealogy(branch), dict.fromkeys(branch.history)
    phases = ([], [], [], [])
    for f in node:
        rule = rule_of(f.term)
        phase = PHASE.get(rule)
        if phase is not None and (f.left == z or phase == 3):
            phases[phase].append((f, rule))
    boolean, negcomp, comp_bool, comp_univ = phases
    out = [(rule, f, None) for f, rule in boolean if f not in decomposed]
    for f, rule in negcomp:
        if f in decomposed:
            continue
        if rule == RULE_CMPL_COMP_UNIV:
            if not any(g.term == Cmpl(f.term.arg.right) and g.right == f.right
                       and g.left in generated for g in plain):
                out.append((rule, f, None))
        else:
            blocker = scratch_blocked(f, branch)
            out.append((rule, f, None) if blocker is None
                       else ("blocked", f, blocker))
    for f, _ in comp_bool:
        forced = v_set(Cmpl(f.term.left), z, plain)
        out += [(RULE_COMP_BOOL, f, w) for w in branch.order
                if w in forced and w not in instances.get(f, ())]
    out += [(RULE_COMP_UNIV, f, z) for f, _ in comp_univ
            if z not in instances.get(f, ())
            and RelFormula(z, f.term.right, f.right) not in plain]
    return out


def scratch_forced(branch):
    """Every non-empty forced set, recomputed over the whole history: for
    each gate, the left operand of a literal-gated composition among the
    components of the root formula's term, and each variable ``x``, the
    variables ``z`` for which ``x -gate z`` is forced."""
    plain = dict.fromkeys(branch.history)
    root = next(iter(plain)).term
    gates = {t.left for t in components(root) if rule_of(t) == RULE_COMP_BOOL}
    found = {(gate, x): v_set(Cmpl(gate), x, plain)
             for gate in gates for x in branch.vars}
    return {key: forced for key, forced in found.items() if forced}


def scratch_indices(branch):
    """The branch's indices, recomputed over the whole history by their
    definitions, each list in admission order: ``literals`` the negated
    variable literals by endpoint pair, ``obligations`` the literal-gated
    compositions by endpoint pair, and ``twins`` by term and right
    endpoint the complemented compositions ``-(B;S)``, ``B`` not 1, and
    the formulas whose term is the ``-S`` of a ``-(1;S)`` among the
    components of the root formula's term."""
    plain = dict.fromkeys(branch.history)
    root = next(iter(plain)).term
    suppressors = {Cmpl(t.arg.right) for t in components(root)
                   if rule_of(t) == RULE_CMPL_COMP_UNIV}
    indices = {"literals": {}, "obligations": {}, "twins": {}}
    for f in plain:
        rule = rule_of(f.term)
        if isinstance(f.term, Cmpl) and isinstance(f.term.arg, Var):
            indices["literals"].setdefault((f.left, f.right), []).append(f)
        if rule == RULE_COMP_BOOL:
            indices["obligations"].setdefault((f.left, f.right), []).append(f)
        if rule in (RULE_CMPL_COMP, RULE_CMPL_COMP_ONE) or f.term in suppressors:
            indices["twins"].setdefault((f.term, f.right), []).append(f)
    return indices


def nonempty(groups):
    """``groups`` without its empty groups."""
    return {key: group for key, group in groups.items() if group}


def path_instances(tree, leaf):
    """Each composition premise's instance variables, in the order
    applied, read off the composition steps on the tree path from the
    root to ``leaf``."""
    path = [leaf]
    while path[-1].parent is not None:
        path.append(tree.nodes[path[-1].parent])
    instances = {}
    for n in reversed(path):
        if n.rule in (RULE_COMP_BOOL, RULE_COMP_UNIV):
            instances.setdefault(n.premise, []).append(n.variable)
    return instances


def check_branch(branch, node, instances):
    """Check every index of the branch, whose node is ``node`` in order
    and whose composition steps applied ``instances``."""
    assert branch.node == set(node)
    for z in branch.order:
        assert list(applications(branch, z)) == scratch_applications(branch, node, z)
    expected = scratch_agenda(branch, node)
    assert nonempty(branch.agenda) == expected
    # a mark is the length of the trail, which undo runs back to it
    assert branch.mark() == len(branch.trail)
    # each composition premise lists the variables of its applied
    # instances in the order applied; a group stays once made, maybe empty
    assert {f: list(done) for f, done in nonempty(branch.instances).items()
            } == instances
    for (_, phase), group in branch.agenda.items():
        for f in group:
            assert PHASE[rule_of(f.term)] == phase
    plain = dict.fromkeys(branch.history)
    assert branch.vars == variables_of(plain)
    for name, expected in scratch_indices(branch).items():
        assert nonempty(getattr(branch, name)) == expected, name
    assert {key: set(forced) for key, forced in nonempty(branch.forced).items()
            } == scratch_forced(branch)
    for f in node:
        if isinstance(f.term, Cmpl) and isinstance(f.term.arg, Comp):
            blocker = scratch_blocked(f, branch)
            assert is_blocked(f, branch) == blocker
            CheckedSearch.blocked += blocker is not None
    assert branch.order == scratch_order(branch)


def removed_by(node):
    """The formulas the step of a tree node takes off its parent's node."""
    return () if node.rule in (RULE_COMP_BOOL, RULE_COMP_UNIV) else (node.premise,)


def reference_conclusions(rule, f, z):
    """The conclusion groups of an application, each formula once, built
    by a match on the premise's term at every call, as the search once
    built them."""
    x, y = f.left, f.right
    match f.term:
        case Comp(_, s):
            groups = [[RelFormula(z, s, y)]]
        case Union(l, r):
            groups = [[RelFormula(x, l, y), RelFormula(x, r, y)]]
        case Inter(l, r):
            groups = [[RelFormula(x, l, y)], [RelFormula(x, r, y)]]
        case Cmpl(Cmpl(a)):
            groups = [[RelFormula(x, a, y)]]
        case Cmpl(Union(l, r)):
            groups = [[RelFormula(x, Cmpl(l), y)], [RelFormula(x, Cmpl(r), y)]]
        case Cmpl(Inter(l, r)):
            groups = [[RelFormula(x, Cmpl(l), y), RelFormula(x, Cmpl(r), y)]]
        case Cmpl(Comp(b, s)):
            groups = [[]]
            if rule != RULE_CMPL_COMP_UNIV:
                groups[0].append(RelFormula(x, Cmpl(b), z))
            if rule != RULE_CMPL_COMP_ONE:
                groups[0].append(RelFormula(z, Cmpl(s), y))
    return [list(dict.fromkeys(group)) for group in groups]


def reference_nodes(search):
    """Each tree node's formulas as a full copy of its parent's, minus the
    premise unless the rule is a composition, plus the node's conclusion
    group as :func:`reference_conclusions` builds it; by id."""
    nodes, refs = search.tree.nodes, []
    for n in nodes:
        if n.parent is None:
            refs.append(dict.fromkeys([search.root_formula]))
            continue
        siblings = nodes[n.parent].children
        group = reference_conclusions(n.rule, n.premise, n.variable)[
            siblings.index(n.id)]
        succ = dict.fromkeys(refs[n.parent])
        for g in removed_by(n):
            del succ[g]
        succ.update(dict.fromkeys(group))
        refs.append(succ)
    return refs


def test_plans_conclude_what_the_match_concludes(fragment_corpus):
    # every premise a search can meet is a component of its input term
    roots = fragment_corpus + [
        simplify_ones(translate_modal(parse_modal(family_text(family, 4))))
        for family in ("modal_dist", "kdist", "branching", "cycle")]
    premises = {t: None for root in roots for t in components(root)
                if rule_of(t) not in (None, "inert")}
    for t in premises:
        f = RelFormula("x", t, "y")
        assert conclusions(f, "z") == reference_conclusions(rule_of(t), f, "z")
    assert {rule_of(t) for t in premises} == set(PHASE)


@pytest.mark.parametrize("text, group", [("r | r", "r"), ("-(r & r)", "-r")])
def test_a_formula_twice_in_a_group_is_concluded_once(text, group):
    f = RelFormula("x", parse_term(text), "y")
    expected = [[RelFormula("x", parse_term(group), "y")]]
    assert conclusions(f, "z") == expected
    assert reference_conclusions(rule_of(f.term), f, "z") == expected


def check_replay(search):
    assert search.tree.replay() == [list(ref) for ref in reference_nodes(search)]


class CheckedSearch(ProofSearch):
    """A proof search that checks the step's delta, the branch's node and
    every index after each step enters the branch, a second child's after
    the undo."""

    checked_steps = 0
    blocked = 0  # blocking verdicts that found a blocker, over all searches

    def _enter(self, branch, child):
        formulas = self.tree.replay()
        parent, node = formulas[child.parent], formulas[child.id]
        assert child.added == [g for g in node if g not in parent]
        assert list(removed_by(child)) == [g for g in parent if g not in node]
        super()._enter(branch, child)
        assert child.closed == is_axiomatic(set(node))
        check_branch(branch, node, path_instances(self.tree, child))
        self.checked_steps += 1


@pytest.mark.parametrize("family, valid", [
    ("modal_dist", True), ("kdist", True), ("branching", True), ("cycle", False),
])
def test_family_indices_match_recomputation(family, valid):
    blocked_before = CheckedSearch.blocked
    search = CheckedSearch(translate_modal(parse_modal(family_text(family, 4))))
    verdict = search.run()
    assert isinstance(verdict, Proof) == valid
    assert search.checked_steps >= search.tree.steps > 0
    check_replay(search)
    if family == "cycle":  # the family that needs blocking to terminate
        assert CheckedSearch.blocked > blocked_before


def test_corpus_indices_match_recomputation(fragment_corpus):
    checked = 0
    for term in fragment_corpus:
        search = CheckedSearch(term)
        search.run()
        check_replay(search)
        checked += search.checked_steps
    assert checked > len(fragment_corpus)


def c_level(inverse):
    """Whether calling ``inverse`` runs no Python code: it is a builtin,
    a bound method of a builtin container among them, or a
    ``functools.partial`` of one."""
    if isinstance(inverse, partial):
        inverse = inverse.func
    return isinstance(inverse, BuiltinFunctionType)


class TrailSearch(ProofSearch):
    """A proof search that checks, after each step enters the branch,
    that every inverse on the branch's trail is C-level."""

    checked_steps = 0

    def _enter(self, branch, child):
        super()._enter(branch, child)
        assert [i for i in branch.trail if not c_level(i)] == []
        TrailSearch.checked_steps += 1


@pytest.mark.parametrize("family", ["modal_dist", "kdist", "branching", "cycle"])
def test_family_trail_inverses_are_c_level(family):
    before = TrailSearch.checked_steps
    search = TrailSearch(translate_modal(parse_modal(family_text(family, 4))))
    search.run()
    assert TrailSearch.checked_steps - before >= search.tree.steps > 0


def test_corpus_trail_inverses_are_c_level(fragment_corpus):
    before = TrailSearch.checked_steps
    steps = sum(TrailSearch(term).run().tree.steps for term in fragment_corpus)
    assert TrailSearch.checked_steps - before >= steps > 0


def test_c_level_tells_python_code_apart():
    group = []
    assert c_level(group.pop) and c_level(partial(group.insert, 0, None))
    assert not c_level(lambda: None) and not c_level(partial(lambda: None))
    root = RelFormula("x", Var("r"), "y")
    assert not c_level(Branch(root, gate_index(()))._admit)


def plain(value):
    """A copy of ``value`` made of fresh containers, which compares equal
    to a later copy only when nothing in ``value`` changed, order included."""
    if isinstance(value, dict):
        return [(k, plain(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, set):
        return set(value)
    return value


class UndoingSearch(ProofSearch):
    """A proof search that, before each step enters the branch, marks the
    branch, enters the step, undoes to the mark and checks that every
    slot is as it was; then it enters the step for good."""

    undos = 0

    def _enter(self, branch, child):
        before = undoable(branch)
        mark = branch.mark()
        super()._enter(branch, child)
        branch.undo(mark)
        assert undoable(branch) == before
        UndoingSearch.undos += 1
        super()._enter(branch, child)


def undoable(branch):
    """Every slot that :meth:`Branch.undo` restores, as fresh containers:
    all of them, the node as a set and the trail included, without the
    empty groups of the agenda, of ``instances``, of the history's
    indices and of the forced sets, which stay once made."""
    slots = {name: getattr(branch, name) for name in Branch.__slots__}
    for name in ("agenda", "instances", "literals", "obligations", "twins", "forced"):
        slots[name] = nonempty(slots[name])
    return plain(slots)


def check_undo(term):
    undos_before = UndoingSearch.undos
    search = UndoingSearch(term)
    search.run()
    # every step enters its first child, and each second child that is
    # not still pending when the search ends enters once
    assert UndoingSearch.undos - undos_before == search.tree.steps + (
        search.tree.branch_count - 1 - len(search._stack))
    return search


@pytest.mark.parametrize("family", ["modal_dist", "kdist", "branching", "cycle"])
def test_undo_restores_every_slot(family):
    # a slot that undo forgets shows as a difference after the step is
    # undone: an index key left empty, a forced variable kept, a grown
    # ``instances`` or ``vars``, a reordered ``order``
    search = check_undo(translate_modal(parse_modal(family_text(family, 4))))
    assert search.tree.branch_count > 1


def test_corpus_undo_restores_every_slot(fragment_corpus):
    assert sum(check_undo(term).tree.branch_count > 1
               for term in fragment_corpus) > 0


def enter_next(branch):
    """Enter the first application the scan offers on the branch, its
    first successor as the search would, with a fresh witness named apart
    from the search's; False if none is open."""
    app = next((app for z in branch.order for app in applications(branch, z)
                if app[0] != "blocked"), None)
    if is_axiomatic(branch.node) or app is None:
        return False
    rule, f, z = app
    if rule in (RULE_CMPL_COMP, RULE_CMPL_COMP_ONE, RULE_CMPL_COMP_UNIV):
        z = f"w{len(branch.vars)}"
    removed = () if rule in (RULE_COMP_BOOL, RULE_COMP_UNIV) else (f,)
    added = [g for g in conclusions(f, z)[0] if g not in branch.node]
    branch.enter(added, removed, (rule, f, z))
    return True


def test_undo_puts_the_node_back():
    # the union's premise leaves the node and its two parts enter; undo
    # takes the parts off and puts the premise back
    root = RelFormula("x", parse_term("r | s"), "y")
    branch = Branch(root, gate_index(components(root.term)))
    mark = branch.mark()
    assert enter_next(branch)
    assert branch.node == {RelFormula("x", Var("r"), "y"),
                           RelFormula("x", Var("s"), "y")}
    branch.undo(mark)
    assert branch.node == {root}
    assert branch.agenda == {("x", 0): [root]}


class NestedUndoingSearch(ProofSearch):
    """A proof search that, before each step enters the branch, marks the
    branch, enters the step, marks it again and enters the next step
    after it; then it undoes to the inner mark, enters that next step
    again and undoes to the outer mark, each time checking that every
    slot is as it was at the mark.  Then it enters the step for good."""

    nested = 0

    def _enter(self, branch, child):
        before = undoable(branch)
        outer = branch.mark()
        super()._enter(branch, child)
        between = undoable(branch)
        inner = branch.mark()
        if enter_next(branch):
            branch.undo(inner)
            assert undoable(branch) == between
            assert enter_next(branch)
            NestedUndoingSearch.nested += 1
        branch.undo(outer)
        assert undoable(branch) == before
        super()._enter(branch, child)


@pytest.mark.parametrize("family", ["modal_dist", "kdist", "branching", "cycle"])
def test_nested_marks_undo_two_steps(family):
    nested_before = NestedUndoingSearch.nested
    search = NestedUndoingSearch(translate_modal(parse_modal(family_text(family, 4))))
    verdict = search.run()
    assert isinstance(verdict, Countermodel) == (family == "cycle")
    assert NestedUndoingSearch.nested - nested_before >= search.tree.steps // 2 > 0


@pytest.mark.parametrize("family", ["modal_dist", "kdist", "branching", "cycle"])
def test_undo_recomputes_no_forced_set(family, monkeypatch):
    calls = Counter()
    gate_forced, undo = formulas.gate_forced, Branch.undo

    def counting(*args):
        calls["gate_forced"] += 1
        return gate_forced(*args)

    def undoing(branch, mark):
        calls["undo"] += 1
        before = calls["gate_forced"]
        undo(branch, mark)
        assert calls["gate_forced"] == before

    monkeypatch.setattr(formulas, "gate_forced", counting)
    monkeypatch.setattr(engine, "gate_forced", counting)
    monkeypatch.setattr(Branch, "undo", undoing)
    search = ProofSearch(translate_modal(parse_modal(family_text(family, 4))))
    search.run()
    assert calls["undo"] == search.tree.branch_count - 1 - len(search._stack) > 0
    assert calls["gate_forced"] > 0


def snapshot(branch):
    """Every slot of the branch as fresh containers."""
    return [plain(getattr(branch, name)) for name in Branch.__slots__]


class ReadOnlySearch(ProofSearch):
    """A proof search that checks that each scan for the next application
    leaves the branch as it was."""

    scans = 0

    def _next_application(self, branch, z):
        before = snapshot(branch)
        turn = super()._next_application(branch, z)
        assert snapshot(branch) == before
        ReadOnlySearch.scans += 1
        return turn


def check_read_only(term, monkeypatch):
    def extract(branch):
        before = snapshot(branch)
        found = extract_model(branch)
        assert snapshot(branch) == before
        return found

    monkeypatch.setattr(engine, "extract_model", extract)
    scans_before = ReadOnlySearch.scans
    search = ReadOnlySearch(term)
    verdict = search.run()
    assert ReadOnlySearch.scans - scans_before >= search.tree.steps
    if isinstance(verdict, Countermodel):
        assert extract(verdict.branch) == (verdict.model, verdict.valuation)
    return verdict


@pytest.mark.parametrize("family", ["modal_dist", "kdist", "branching", "cycle"])
def test_scans_and_extraction_write_nothing(family, monkeypatch):
    term = translate_modal(parse_modal(family_text(family, 4)))
    verdict = check_read_only(term, monkeypatch)
    assert isinstance(verdict, Countermodel) == (family == "cycle")


def test_corpus_scans_and_extraction_write_nothing(fragment_corpus, monkeypatch):
    verdicts = [check_read_only(term, monkeypatch) for term in fragment_corpus]
    assert any(isinstance(v, Countermodel) for v in verdicts)


def test_forced_set_grows_when_the_last_literal_arrives():
    # x -(r & s) z is forced by x -r z together with x -s z
    r, s = Var("r"), Var("s")
    gate = Inter(r, s)
    root = RelFormula("x", Comp(gate, ONE), "y")
    branch = Branch(root, gate_index(components(root.term)))
    assert branch.forced == {}
    branch._admit(RelFormula("x", Cmpl(r), "z1"))
    branch._admit(RelFormula("z1", Cmpl(s), "y"))
    assert branch.forced == {}
    branch._admit(RelFormula("x", Cmpl(s), "z1"))
    assert branch.forced == {(gate, "x"): {"z1": None}}
    plain = dict.fromkeys(branch.history)
    assert set(branch.forced[gate, "x"]) == v_set(Cmpl(gate), "x", plain)


def test_gate_index_lists_the_gates_of_each_negated_variable():
    # ``1 ; r`` has no gate, ``(r | s) ; (t ; 1)`` has ``r | s`` and
    # ``t ; 1`` has ``t``; ``-(u ; 1)`` is no composition, so ``-u`` gates
    # nothing.  ``-(1 ; (t ; 1))`` suppresses on ``-(t ; 1)``, and
    # ``-(1 ; 1)``, which no rule decomposes, on nothing
    term = parse_term("(1 ; r) | ((r | s) ; (t ; 1)) | -(u ; 1) | -(1 ; (t ; 1))"
                      " | -(1 ; 1)")
    rs, t = parse_term("r | s"), Var("t")
    index, suppressors = gate_index(components(term))
    assert dict(index) == {Cmpl(Var("r")): (rs,), Cmpl(Var("s")): (rs,),
                           Cmpl(t): (t,)}
    assert suppressors == frozenset({parse_term("-(t ; 1)")})
    with pytest.raises(TypeError):
        index[Cmpl(t)] = ()
