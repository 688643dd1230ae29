"""Dual-tableau decision procedure with blocking.

Given a fragment term ``P``, the engine builds a deduction tree for the
formula ``x P y``.  Nodes carry disjunctive formula sets; a node is closed
when it contains ``x' 1 y'`` or a formula together with its complement.
Branches are explored depth first, left successor first, on one
:class:`Branch`.  Every write to it, the node's included, logs its
inverse on one trail, which :meth:`Branch.undo` runs back to a branching
step's :meth:`Branch.mark` before its second successor enters.  Each
inverse is a bound method of a builtin container (a list's ``pop``, a
dict's ``popitem``), maybe wrapped in a ``functools.partial``, so an undo
runs no Python code.  On each open branch the engine repeatedly picks the
smallest variable (in the branch order) that still has work and applies,
in order: the Boolean rules, the complemented-composition rules, the
composition rule gated by forced literals, and the universal-composition
rule instantiated with that variable.

A step has a pure part and one write.  :func:`applications` alone decides
what applies at a variable, reading only the branch's agenda: the node's
formulas with work, grouped by left variable and phase.  What a rule
concludes is a function of its premise's term alone, the term's *plan*
(:func:`plan_of`): one group per successor of ``(left, term, right)``,
each endpoint the premise's ``x`` or ``y`` or the instance.  It is
memoised on the interned term next to the term's ``rule``, so a step
only fills in the endpoints; the search names each fresh witness from
one counter.  The search takes from a
group the formulas that are not on the node yet, checks them, and hands
the step and what enters and leaves the node to :meth:`Branch.enter`,
the only method that writes a branch's node, history and its indices,
forced sets, agenda, composition instances, decomposed premises and
witness placement forward.  A tree node keeps only the formulas its step
added, and :meth:`DeductionTree.replay` rebuilds each node's formulas
from its parent's.  Complemented compositions are suppressed when an
already decomposed twin *blocks* them; the scheduler passes over a
blocked formula and writes nothing.  The branch indexes only the
formulas of its history that :func:`is_blocked`, :func:`is_suppressed`
and :func:`extract_model` read.

If every branch closes the tree is a proof.  Otherwise the first
saturated open branch yields a finite model and identity valuation that
falsify every formula ever on the branch, the input included.  The model
is a function of that branch alone: its literals, plus the renamed
literals of each blocked formula's blocker, found by one last scan.

A search makes no reference cycles: the trail's inverses are bound to
containers, not to the branch, and the walkers over terms are loops
over stacks of their own, not closures.  Reference counting
therefore frees everything a search drops, and :meth:`ProofSearch.run`
pauses the cyclic garbage collector for the search, as :mod:`timeit`
does, restoring it on every exit.  The collector is process-wide: while
a search runs, the cyclic garbage of other threads waits until it ends.
"""

from __future__ import annotations

import gc
from collections import defaultdict, namedtuple
from functools import partial

from .errors import BranchNotSaturated, EngineInvariantError, ResourceExhausted
from .formulas import RelFormula, gate_forced, gate_index, is_literal
from .semantics import Model, Record, model_to_json
from .terms import (_INTERNED, Cmpl, Comp, Inter, One, Union, Var, components,
                    render_term, require_fragment, simplify_ones, term_variables)

RULE_UNION = "union"
RULE_CMPL_UNION = "cmpl-union"
RULE_INTER = "inter"
RULE_CMPL_INTER = "cmpl-inter"
RULE_DOUBLE_CMPL = "double-cmpl"
RULE_CMPL_COMP = "cmpl-comp"  # x'-(B;S)y, S != 1: fresh z, both parts
RULE_CMPL_COMP_ONE = "cmpl-comp-one"  # x'-(B;1)y: fresh z, left part only
RULE_CMPL_COMP_UNIV = "cmpl-comp-univ"  # x-(1;S)y: fresh z, right part only
RULE_COMP_BOOL = "comp-bool"  # x'(B;S)y with z gated by forced literals
RULE_COMP_UNIV = "comp-univ"  # x(1;S)y with any branch variable

_BOOLEAN_RULES = (RULE_UNION, RULE_CMPL_UNION, RULE_INTER, RULE_CMPL_INTER,
                  RULE_DOUBLE_CMPL)
_NEGCOMP_RULES = (RULE_CMPL_COMP, RULE_CMPL_COMP_ONE, RULE_CMPL_COMP_UNIV)
_COMP_RULES = (RULE_COMP_BOOL, RULE_COMP_UNIV)
_PHASE = {**dict.fromkeys(_BOOLEAN_RULES, 0), **dict.fromkeys(_NEGCOMP_RULES, 1),
          RULE_COMP_BOOL: 2, RULE_COMP_UNIV: 3}  # the order of applications()

_new = tuple.__new__  # _new(RelFormula, (x, t, y)) builds a formula in C
X, Y, Z = 0, 1, 2  # a plan's endpoints: the premise's left and right, the instance

VAR_BOUND_FACTOR = 8  # generated variables per branch <= 8 * |components|**2
MAX_VARS = 10_000  # variables per branch before the search gives up


def rule_of(t):
    """The rule that decomposes a term: a rule tag, ``"inert"`` for
    ``-(1;1)`` (never decomposed), or None for literals; memoised on the term."""
    try:
        return t.rule
    except AttributeError:
        t.rule = _rule(t)
        return t.rule


def _rule(t):
    cls = type(t)
    if cls is Comp:
        return RULE_COMP_UNIV if type(t.left) is One else RULE_COMP_BOOL
    if cls is not Cmpl:
        return _RULES.get(cls)
    a = t.arg
    if type(a) is Comp:
        return _CMPL_COMP_RULES[type(a.left) is One, type(a.right) is One]
    return _CMPL_RULES.get(type(a))


_RULES = {Union: RULE_UNION, Inter: RULE_INTER}
_CMPL_RULES = {Cmpl: RULE_DOUBLE_CMPL, Union: RULE_CMPL_UNION, Inter: RULE_CMPL_INTER}
# by whether B and S are 1, the rule of -(B;S)
_CMPL_COMP_RULES = {(True, True): "inert", (True, False): RULE_CMPL_COMP_UNIV,
                    (False, True): RULE_CMPL_COMP_ONE, (False, False): RULE_CMPL_COMP}


def plan_of(t):
    """What the rule that decomposes ``t`` concludes, memoised on the term:
    one group per successor, each a tuple of ``(left, term, right)``
    whose endpoints are :data:`X`, :data:`Y` or :data:`Z`, the premise's
    left and right endpoint and the rule's instance or fresh witness."""
    try:
        return t.plan
    except AttributeError:
        t.plan = _plan(t)
        return t.plan


def _plan(t):
    """The plan of ``t``, the one definition of what each rule concludes.

    A composition concludes ``z S y`` and keeps its premise; any other
    rule's premise leaves the node.  A formula that occurs twice in a
    group, as in ``r | r``, is kept once.  The rule of every conclusion's
    term is memoised here, so that :meth:`Branch.enter` reads it off the
    term.
    """
    rule = rule_of(t)
    match t:
        case Comp(_, s):
            groups = [[(Z, s, Y)]]
        case Union(l, r):
            groups = [[(X, l, Y), (X, r, Y)]]
        case Inter(l, r):
            groups = [[(X, l, Y)], [(X, r, Y)]]
        case Cmpl(Cmpl(a)):
            groups = [[(X, a, Y)]]
        case Cmpl(Union(l, r)):
            groups = [[(X, Cmpl(l), Y)], [(X, Cmpl(r), Y)]]
        case Cmpl(Inter(l, r)):
            groups = [[(X, Cmpl(l), Y), (X, Cmpl(r), Y)]]
        case Cmpl(Comp(b, s)) if rule != "inert":
            groups = [[]]
            if rule != RULE_CMPL_COMP_UNIV:
                groups[0].append((X, Cmpl(b), Z))
            if rule != RULE_CMPL_COMP_ONE:
                groups[0].append((Z, Cmpl(s), Y))
        case _:
            groups = []  # a literal or -(1;1): no rule decomposes it
    plan = tuple(tuple(dict.fromkeys(group)) for group in groups)
    for group in plan:
        for _, c, _ in group:
            rule_of(c)
    return plan


def is_axiomatic(formulas, added=None):
    """Whether a formula set contains ``x' 1 y'`` or a complementary pair.

    With ``added``, the set is known to be open without those formulas,
    so only pairs that involve one of them are looked for.  A complement
    that is not a live term is in no formula, so none is built to look.
    """
    for x, t, y in formulas if added is None else added:
        if isinstance(t, One):
            return True
        if isinstance(t, Cmpl) and _new(RelFormula, (x, t.arg, y)) in formulas:
            return True
        ref = _INTERNED.get((Cmpl, t))  # terms.interned(Cmpl, t), inlined
        c = None if ref is None else ref()
        if c is not None and _new(RelFormula, (x, c, y)) in formulas:
            return True
    return False


class Branch:
    """State of one branch: the leaf's formulas plus everything the rules consult.

    ``node`` is the set of the leaf's formulas, whose order the tree and
    the agenda's groups keep; ``history`` holds every formula ever on the
    branch, as a dict's keys in admission order; ``vars`` lists object
    variables in introduction order, the two roots first, and ``order`` in
    branch order; ``right`` holds the right root and its descendants;
    ``decomposed`` maps each premise a Boolean or complemented-composition
    rule decomposed to its fresh witness, or to None for a Boolean rule;
    ``instances`` maps each composition premise to the variables of its
    instances, as a dict's keys in the order applied.

    ``agenda`` holds the node's formulas with work, each group a list in
    node order: the Boolean, complemented-composition and literal-gated
    composition premises under ``(left, phase)``, the ``(1;S)`` premises
    under ``(None, 3)``.  A decomposed premise that re-enters the node has
    no work and stays off the agenda.  Three indices list, in admission
    order, the formulas of the history that blocking reads: ``literals``
    the ``x -v z`` and ``obligations`` the ``x B;S y``, ``B`` not 1, by
    endpoint pair; ``twins`` the ``x -(B;S) y``, ``B`` not 1, and the
    formulas whose term is one of ``suppressors``, by term and right
    endpoint.  ``forced`` maps ``(B, x)``, for a gate ``B`` of ``gates``,
    to ``v_set(-B, x, history)`` as a dict in the order its variables were
    forced; a gate is plain, so only a literal ``x -v z`` that ``gates``
    lists can extend one, by ``z``.  A group of the agenda, of
    ``instances``, of an index or of ``forced`` stays once made, maybe empty.

    :meth:`enter` alone writes this state forward and logs the inverse
    of each write on ``trail``; :meth:`undo` only runs them back, last
    first.  Scans and model extraction only read it.  Every inverse is a
    bound method of a builtin container, or a ``functools.partial`` of
    one, so undoing runs no Python code.  The inverses that never change,
    ``decomposed.popitem``, ``vars.pop`` and ``history.popitem``, are
    bound once, in the ``pop_decomposed``, ``pop_var`` and ``pop_history``
    slots, each to a container, not to the branch.
    """

    __slots__ = ("node", "history", "vars", "order", "right", "decomposed",
                 "instances", "agenda", "gates", "suppressors", "forced",
                 "literals", "obligations", "twins", "trail", "pop_decomposed",
                 "pop_var", "pop_history")

    def __init__(self, formula, index):
        """The branch of the root node ``{formula}``; ``index`` is the
        :func:`gate_index` of the components of the formula's term."""
        x, y = formula.left, formula.right
        self.node, self.history, self.trail, self.forced = set(), {}, [], {}
        self.vars, self.order, self.right = [x, y], [x, y], {y}
        self.decomposed, self.instances, self.agenda = {}, defaultdict(dict), defaultdict(list)
        self.gates, self.suppressors = index
        self.literals, self.obligations, self.twins = (
            defaultdict(list), defaultdict(list), defaultdict(list))
        self.pop_decomposed, self.pop_var, self.pop_history = (
            self.decomposed.popitem, self.vars.pop, self.history.popitem)
        rule_of(formula.term)
        self.enter([formula], (), None)

    def mark(self):
        """A choice point for :meth:`undo`: the trail's length; marks nest."""
        return len(self.trail)

    def undo(self, mark):
        """Put the branch back as it was at ``mark``."""
        trail = self.trail
        undone = trail[mark:]
        del trail[mark:]
        for inverse in reversed(undone):
            inverse()

    def enter(self, added, removed, step):
        """Make the next leaf: take the formulas ``removed`` off the node
        and put ``added``, which are not on it, in; ``step`` is the
        ``(rule, premise, variable)`` of the rule application, None for
        the root.  Returns whether the new leaf is axiomatic.  The terms
        of ``added`` have their rules memoised, as the root's and every
        conclusion's of a :func:`plan_of` have.

        The branch order puts the left root first, then the generated
        variables that do not descend from the right root, then the right
        root, then its descendants, each group in introduction order.  A
        fresh witness descends from the right root when its premise's left
        endpoint does (or is that root) and its rule is not
        ``cmpl-comp-univ``.
        """
        node, trail, agenda, decomposed = (self.node, self.trail, self.agenda,
                                           self.decomposed)
        if step is not None:
            rule, f, z = step
            if rule in _COMP_RULES:
                done = self.instances[f]
                done[z] = None
                trail.append(done.popitem)
            else:
                decomposed[f] = z
                trail.append(self.pop_decomposed)
                if z is not None:
                    self.vars.append(z)
                    trail.append(self.pop_var)
                    at = len(self.order)
                    if f.left in self.right and rule != RULE_CMPL_COMP_UNIV:
                        self.right.add(z)
                        trail.append(partial(self.right.remove, z))
                    else:
                        at -= len(self.right)
                    self.order.insert(at, z)
                    trail.append(partial(self.order.pop, at))
        for f in removed:  # a Boolean or complemented-composition premise
            node.remove(f)
            trail.append(partial(node.add, f))
            group = agenda[f.left, _PHASE[f.term.rule]]
            at = group.index(f)
            del group[at]
            trail.append(partial(group.insert, at, f))
        if added:
            node.update(added)
            trail.append(partial(node.difference_update, added))
        history = self.history
        for f in added:
            if f not in history:
                self._admit(f)
            # the agenda key: (left, phase), or (None, 3) for a (1;S)
            phase = _PHASE.get(f.term.rule)
            if phase is not None and not (phase < 2 and f in decomposed):
                group = agenda[None if phase == 3 else f.left, phase]
                group.append(f)
                trail.append(group.pop)
        return is_axiomatic(node, added)

    def _admit(self, f):
        """Put ``f``, which is not in the history, into it, into the index
        of its kind and into every forced set it extends, logging each
        write's inverse on the trail; called by :meth:`enter` alone."""
        trail, history = self.trail, self.history
        history[f] = None
        trail.append(self.pop_history)
        x, t, z = f
        if isinstance(t, Comp):
            if not isinstance(t.left, One):
                group = self.obligations[x, z]
                group.append(f)
                trail.append(group.pop)
        elif isinstance(t, Cmpl):
            a = t.arg
            if isinstance(a, Var):
                group = self.literals[x, z]
                group.append(f)
                trail.append(group.pop)
                for gate in self.gates.get(t, ()):
                    forced = self.forced.get((gate, x), ())
                    if z not in forced and gate_forced(x, gate, z, history):
                        if not forced:
                            forced = self.forced.setdefault((gate, x), {})
                        forced[z] = None
                        trail.append(forced.popitem)
            if t in self.suppressors or isinstance(a, Comp) and not isinstance(a.left, One):
                group = self.twins[t, z]
                group.append(f)
                trail.append(group.pop)


def is_blocked(f, branch):
    """The first formula of the branch history blocking ``f``, or None.

    A twin with the same term and right endpoint blocks ``f`` when it was
    already decomposed with some witness ``w`` and every composition
    obligation of ``f``'s left variable that the renamed witness literals
    would trigger is mirrored on the twin's side.
    """
    y, history = f.right, branch.history
    for g in branch.twins.get((f.term, y), ()):
        w = branch.decomposed.get(g)
        if g == f or w is None:
            continue
        renamed = {RelFormula(f.left, h.term, w)
                   for h in branch.literals.get((g.left, w), ())}
        if all(RelFormula(g.left, h.term, y) in history
               for h in branch.obligations.get((f.left, y), ())
               if gate_forced(f.left, h.term.left, w, renamed)):
            return g
    return None


def is_suppressed(branch, f):
    """Side condition of the ``x -(1;S) y`` rule: it is not applied once some
    generated variable ``z'``, any but the two roots, carries ``z' -S y``."""
    twins = branch.twins.get((Cmpl(f.term.arg.right), f.right), ())
    roots = branch.vars[:2]
    return any(g.left not in roots for g in twins)


# ---------------------------------------------------------------------------
# Applicability and conclusions: ``applications`` alone decides what
# applies, ``conclusions`` says what each application concludes.


def applications(branch, z):
    """Every rule application open at variable ``z``, as ``(rule, premise,
    variable)`` in the order the engine tries them.

    First the Boolean rules, then the complemented-composition rules, for
    the formulas of the node whose left endpoint is ``z``, in node order;
    then the literal-gated composition rule, once per forced variable in
    branch order; then the universal composition rule instantiated with
    ``z``.  A complemented composition that a twin blocks comes in its
    place as ``("blocked", f, blocker)``, which is not an application.
    The formulas are read off the branch's agenda, not the node, and
    their rules off their terms, where :func:`rule_of` memoised them.
    """
    history, agenda, instances = branch.history, branch.agenda, branch.instances
    for f in agenda.get((z, 0), ()):
        yield f.term.rule, f, None
    for f in agenda.get((z, 1), ()):
        rule = f.term.rule
        if rule == RULE_CMPL_COMP_UNIV:
            if not is_suppressed(branch, f):
                yield rule, f, None
        else:
            blocker = is_blocked(f, branch)
            yield (rule, f, None) if blocker is None else ("blocked", f, blocker)
    for f in agenda.get((z, 2), ()):
        # forced sets only grow and only forced instances are applied, so
        # a premise with as many instances as forced variables has none left
        forced = branch.forced.get((f.term.left, z))
        done = instances.get(f, ())
        if forced and len(forced) > len(done):
            for w in branch.order:
                if w in forced and w not in done:
                    yield RULE_COMP_BOOL, f, w
    # an applied instance ``(f, z)`` put ``z S y`` into the history
    for f in agenda.get((None, 3), ()):
        if _new(RelFormula, (z, f.term.right, f.right)) not in history:
            yield RULE_COMP_UNIV, f, z


def conclusions(f, z):
    """The conclusions of the premise ``f`` of an application that
    :func:`applications` yielded, one list of formulas per successor (two
    for the branching rules), read off the term's :func:`plan_of`.  ``z``
    is the instance of a composition, the fresh witness of a complemented
    composition, None otherwise.  Nothing is checked here: the scan has
    already decided that the rule applies.
    """
    ends = (f.left, f.right, z)
    return [[_new(RelFormula, (ends[l], t, ends[r])) for l, t, r in group]
            for group in plan_of(f.term)]


def extract_model(branch):
    """Read the falsifying model off a saturated open branch.

    The universe is the branch's variable list; a pair belongs to the
    interpretation of a relational variable exactly when the branch
    carries the corresponding negated literal, or a blocked formula
    ``x -(B;S) y`` with blocker ``g`` and witness ``w`` would have put it
    there: each negated literal ``g.left -r w`` of the blocker counts
    as ``x -r w``.  One scan at every variable finds the blocked formulas
    and that no rule applies.  The valuation is the identity.
    """
    scan = [app for z in branch.vars for app in applications(branch, z)]
    if is_axiomatic(branch.node) or any(rule != "blocked" for rule, _, _ in scan):
        raise BranchNotSaturated(
            "model extraction needs a non-axiomatic branch with no applicable rule"
        )
    literals = [f for f in branch.history if is_literal(f)]
    for _, f, blocker in scan:
        w = branch.decomposed[blocker]
        literals.extend(RelFormula(f.left, h.term, w)
                        for h in branch.literals.get((blocker.left, w), ()))
    universe = tuple(branch.vars)
    # every term on the branch is a component of the root formula's term,
    # the history's first entry, so it has no variable the root term lacks
    names = term_variables(next(iter(branch.history)).term)
    interp = {name: set() for name in names}
    positive = set()
    for f in literals:
        match f.term:
            case One():
                raise EngineInvariantError("an open branch carries x' 1 y'")
            case Var(name):
                positive.add((name, f.left, f.right))
            case Cmpl(Var(name)):
                interp[name].add((f.left, f.right))
    for name, a, b in positive:
        if (a, b) in interp[name]:
            raise EngineInvariantError(
                f"contradictory literals for {name} on an open branch"
            )
    valuation = {w: w for w in universe}
    return Model(universe, interp), valuation


# ---------------------------------------------------------------------------
# Deduction tree and search driver


class Node:
    """A tree node: the formulas its step ``(rule, premise, variable)``
    added, in order; ``closed`` once it has entered the branch axiomatic."""

    __slots__ = ("id", "parent", "added", "rule", "premise", "variable",
                 "closed", "children")

    def __init__(self, id, parent, added, rule=None, premise=None, variable=None):
        self.id, self.parent, self.added = id, parent, added
        self.rule, self.premise, self.variable = rule, premise, variable
        self.closed, self.children = False, []


class DeductionTree(Record):
    __slots__ = ("nodes", "steps", "branch_count", "max_vars")

    def __init__(self):
        self.nodes, self.steps, self.branch_count, self.max_vars = [], 0, 1, 0

    def replay(self):
        """Each node's formulas in order, by id: its parent's, minus the
        premise unless the rule is a composition, plus what it added."""
        lists = []
        for n in self.nodes:
            formulas = [] if n.parent is None else lists[n.parent]
            if n.premise is not None and n.rule not in _COMP_RULES:
                formulas = formulas.copy()
                formulas.remove(n.premise)
            lists.append(formulas + n.added)
        return lists

    def to_json(self):
        memo = {}  # one for the whole tree: each distinct term is rendered once

        def triple(f):
            return [f.left, render_term(f.term, memo), f.right]

        return {
            "nodes": [
                {
                    "id": n.id,
                    "parent": n.parent,
                    "formulas": [triple(f) for f in formulas],
                    "rule": n.rule,
                    "premise": None if n.premise is None else triple(n.premise),
                    "variable": n.variable,
                    "closed": n.closed,
                    "children": list(n.children),
                }
                for n, formulas in zip(self.nodes, self.replay())
            ]
        }


Proof = namedtuple("Proof", "tree")
Countermodel = namedtuple("Countermodel", "tree branch model valuation")


Verdict = Proof | Countermodel


class ProofSearch:
    """One run of the decision procedure on a single input term."""

    def __init__(self, term, *, max_steps=1_000_000, trace=None):
        prepared = simplify_ones(term)
        require_fragment(prepared)
        self.max_steps = max_steps
        self.trace = trace
        self.cp = components(prepared)
        self.var_bound = VAR_BOUND_FACTOR * len(self.cp) ** 2
        self.tree = DeductionTree()
        self.root_formula = RelFormula("x", prepared, "y")
        self._stack = []
        self._witnesses = 0  # fresh witnesses are numbered across all branches

    def run(self):
        """The verdict, searched with the cyclic garbage collector paused;
        a caller that had the collector off finds it off afterwards."""
        paused = gc.isenabled()
        gc.disable()
        try:
            return self._search()
        finally:
            if paused:
                gc.enable()

    def _search(self):
        branch = Branch(self.root_formula, gate_index(self.cp))
        leaf = Node(0, None, [self.root_formula])
        self.tree.nodes.append(leaf)
        leaf.closed = is_axiomatic(branch.node)
        self.tree.max_vars = len(branch.vars)
        while self._expand(branch, leaf) == "closed":
            if not self._stack:
                return Proof(self.tree)
            mark, leaf = self._stack.pop()
            branch.undo(mark)
            self._enter(branch, leaf)
        model, valuation = extract_model(branch)
        return Countermodel(self.tree, branch, model, valuation)

    def _expand(self, branch, leaf):
        """Expand the branch in turns: the smallest variable with work
        takes rule applications until it has none left."""
        z = None
        while not leaf.closed:
            turn = self._next_application(branch, z)
            if turn is None:
                return "open"
            z, app = turn
            leaf = self._apply(branch, leaf, app)
        return "closed"

    def _next_application(self, branch, z):
        """The next application and the variable whose turn it is.

        ``z`` keeps the turn while it has an application open; then the
        turn passes to the first variable in branch order with one.  A
        blocked formula is passed over.  None means the branch is
        saturated.  Nothing is written: :func:`extract_model` reads the
        blocked formulas off the saturated branch.
        """
        if z is not None:
            for app in applications(branch, z):
                if app[0] != "blocked":
                    return z, app
        for v in branch.order:
            for app in applications(branch, v):
                if app[0] != "blocked":
                    return v, app
        return None

    def _apply(self, branch, leaf, app):
        rule, f, inst = app
        tree = self.tree
        tree.steps += 1
        if tree.steps > self.max_steps:
            raise ResourceExhausted(f"step cap of {self.max_steps} exceeded")
        if rule in _COMP_RULES:
            if inst in branch.instances.get(f, ()):
                raise EngineInvariantError("composition step without progress")
        elif rule in _NEGCOMP_RULES:
            count = len(branch.vars) + 1
            if count > MAX_VARS:
                raise ResourceExhausted(f"variable cap of {MAX_VARS} exceeded")
            if count > self.var_bound + 2:
                raise EngineInvariantError(
                    f"branch variables exceeded the bound {self.var_bound + 2}"
                )
            tree.max_vars = max(tree.max_vars, count)
            self._witnesses += 1
            inst = f"z{self._witnesses}"
        if self.trace is not None:
            self._emit(rule, f, inst)
        # each successor: the parent in order, minus the premise unless the
        # rule is a composition, plus its plan group's formulas not already
        # there; no conclusion is its premise, since the weight drops.  A
        # new formula must be a component of the input and, if
        # compositional, keep the right root; a step other than a
        # composition must add less weight than its premise, which leaves.
        # A check raises once its child is in the tree.
        ends, node, nodes = (f.left, f.right, inst), branch.node, tree.nodes
        cp, right, children = self.cp, self.root_formula.right, []
        for group in plan_of(f.term):
            added, weight, bad = [], 0, None
            for l, t, r in group:
                g = _new(RelFormula, (ends[l], t, ends[r]))
                if g not in node:
                    added.append(g)
                    weight += t.weight
                    if bad is None and (t not in cp or not t.boolean and g.right != right):
                        bad = g
            child = Node(len(nodes), leaf.id, added, rule, f, inst)
            nodes.append(child)
            leaf.children.append(child.id)
            children.append(child)
            if bad is not None:
                raise EngineInvariantError(
                    f"formula term escaped the component set: {bad!r}" if bad.term not in cp
                    else f"compositional formula with a generated right endpoint: {bad!r}")
            if rule not in _COMP_RULES and weight >= f.term.weight:
                raise EngineInvariantError(f"rule {rule} did not decrease the node weight")
        if len(children) == 2:
            # the second child enters once the first one's subtree closes
            tree.branch_count += 1
            self._stack.append((branch.mark(), children[1]))
        self._enter(branch, children[0])
        return children[0]

    def _enter(self, branch, child):
        """Make the tree node ``child`` the branch's leaf."""
        removed = () if child.rule in _COMP_RULES else (child.premise,)
        child.closed = branch.enter(child.added, removed,
                                    (child.rule, child.premise, child.variable))

    def _emit(self, rule, premise, variable):
        """Hand one step to the trace callback; called only when tracing."""
        self.trace({
            "rule": rule,
            "premise": repr(premise),
            "variable": variable,
        })


def run_procedure(term, *, max_steps=1_000_000, trace=None):
    """Decide validity of ``x term y``.

    The term is simplified and fragment-checked first; a
    :class:`FragmentViolation` is raised for terms outside the fragment.
    Returns :class:`Proof` when every branch closes, otherwise the first
    saturated open branch as a :class:`Countermodel`.  Identical inputs
    produce identical trees.
    """
    return ProofSearch(term, max_steps=max_steps, trace=trace).run()


def stats_of(verdict):
    tree = verdict.tree
    return {"steps": tree.steps, "branches": tree.branch_count,
            "variables": tree.max_vars}


def verdict_to_json(verdict):
    """Stable JSON form of a verdict: proof tree or countermodel plus stats."""
    valid = isinstance(verdict, Proof)
    return {
        "verdict": "valid" if valid else "invalid",
        "proof": verdict.tree.to_json() if valid else None,
        "countermodel": None if valid else model_to_json(verdict.model, verdict.valuation),
        "stats": stats_of(verdict),
    }
