"""Dual-tableau decision procedure with blocking.

Given a fragment term ``P``, the engine builds a deduction tree for the
formula ``x P y``.  Nodes carry disjunctive formula sets; a node is closed
when it contains ``x' 1 y'`` or a formula together with its complement.
Branches are explored depth first, left successor first.  On each open
branch the engine repeatedly picks the smallest variable (in the branch
order) that still has work and applies, in order: the Boolean rules, the
complemented-composition rules, the composition rule gated by forced
literals, and the universal-composition rule instantiated with that
variable.  :func:`applications` alone decides what applies at a variable,
reading only the branch's agenda: the node's formulas with work, grouped
by left variable and phase.  :func:`apply_rule` carries out each
application it yields, returning its conclusions, one group per
successor.  The search builds each successor from the parent and a
group, and passes what entered and left the node to
:meth:`Branch.enter`, which keeps the agenda, and to the history and
the progress check.  :meth:`Branch.introduce` places each fresh
witness in the branch order once.  Complemented compositions are
suppressed when an already decomposed twin *blocks* them; the literals
their decomposition would have produced are recorded instead and feed
the countermodel.

If every branch closes the tree is a proof.  Otherwise the first
saturated open branch yields a finite model and identity valuation that
falsify every formula ever on the branch, the input included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import BranchNotSaturated, EngineInvariantError, ResourceExhausted
from .formulas import (FormulaSet, History, RelFormula, has_nbool_construction,
                       is_literal)
from .semantics import Model
from .terms import (Cmpl, Comp, Inter, One, Union, Var, components, interned,
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

VAR_BOUND_FACTOR = 8  # generated variables per branch <= 8 * |components|**2


def weight(t, table=None):
    """Recursive weight of a fragment term; literals and constants weigh
    nothing.  ``table``, when given, memoises the weights of subterms."""
    if table is not None and t in table:
        return table[t]
    match t:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            w = 0
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            w = weight(l, table) + weight(r, table) + 1
        case Cmpl(Union(l, r)) | Cmpl(Inter(l, r)) | Cmpl(Comp(l, r)):
            w = weight(Cmpl(l), table) + weight(Cmpl(r), table) + 1
        case Cmpl(Cmpl(a)):
            w = weight(a, table) + 1
        case _:
            raise EngineInvariantError(
                f"weight of a non-fragment term: {render_term(t)}")
    if table is not None:
        table[t] = w
    return w


@lru_cache(maxsize=65536)
def rule_of(t):
    """The rule that decomposes a term: one of the rule tags, ``"inert"``
    for ``-(1;1)`` (never decomposed), or None for literals."""
    match t:
        case Union():
            return RULE_UNION
        case Inter():
            return RULE_INTER
        case Cmpl(Cmpl()):
            return RULE_DOUBLE_CMPL
        case Cmpl(Union()):
            return RULE_CMPL_UNION
        case Cmpl(Inter()):
            return RULE_CMPL_INTER
        case Cmpl(Comp(One(), One())):
            return "inert"
        case Cmpl(Comp(One(), _)):
            return RULE_CMPL_COMP_UNIV
        case Cmpl(Comp(_, One())):
            return RULE_CMPL_COMP_ONE
        case Cmpl(Comp()):
            return RULE_CMPL_COMP
        case Comp(One(), _):
            return RULE_COMP_UNIV
        case Comp():
            return RULE_COMP_BOOL
    return None


@lru_cache(maxsize=65536)
def gate_of(t):
    """The term ``-B`` whose forced variables instantiate ``B;S``."""
    return Cmpl(t.left)


def agenda_entry(f):
    """The rule that decomposes ``f`` and its group in a branch's agenda;
    the group is None for a formula with no work."""
    rule = rule_of(f.term)
    phase = _PHASE.get(rule)
    if phase is None:
        return rule, None
    return rule, (None if phase == 3 else f.left, phase)


def is_axiomatic(formulas, added=None):
    """Whether a formula set contains ``x' 1 y'`` or a complementary pair.

    With ``added``, the set is known to be open without those formulas,
    so only pairs that involve one of them are looked for.  A complement
    that is not a live term is in no formula, so none is built to look.
    """
    for f in formulas if added is None else added:
        t = f.term
        if isinstance(t, One):
            return True
        if isinstance(t, Cmpl) and RelFormula(f.left, t.arg, f.right) in formulas:
            return True
        c = interned(Cmpl, t)
        if c is not None and RelFormula(f.left, c, f.right) in formulas:
            return True
    return False


class Branch:
    """State of one branch: current leaf set plus everything the rules consult.

    ``history`` is the union of all formula sets ever on the branch, an
    indexed :class:`History`; ``vars`` lists object variables in
    introduction order and ``order`` in branch order; ``right`` holds the
    right root and its descendants; ``genealogy`` maps each generated
    variable to the premise that introduced it, and ``decomposed_with``
    each such premise back to its variable; ``lit_negcomp`` collects the
    renamed literals of blocked formulas; ``applied`` enforces the
    at-most-once-per-premise discipline.

    ``agenda`` holds the node's formulas with work, each group in node
    order: the Boolean, complemented-composition and literal-gated
    composition premises under ``(left, phase)``, the ``(1;S)`` premises
    under ``(None, 3)``.  Each formula maps to its rule, except in the
    literal-gated groups, where it maps to the number of its instances
    applied.  The node changes only through :meth:`enter`, which keeps
    the agenda in step with it.
    """

    __slots__ = ("node", "history", "vars", "order", "right", "root_right",
                 "genealogy", "lit_negcomp", "applied", "decomposed_with",
                 "_fresh", "node_axiomatic", "agenda")

    def __init__(self, node, history, vars, order, right, genealogy,
                 lit_negcomp, applied, decomposed_with, fresh, agenda):
        self.node = node
        self.history = history
        self.vars = vars
        self.order = order
        self.right = right
        self.root_right = vars[1]
        self.genealogy = genealogy
        self.lit_negcomp = lit_negcomp
        self.applied = applied
        self.decomposed_with = decomposed_with
        self._fresh = fresh
        self.node_axiomatic = False
        self.agenda = agenda

    @classmethod
    def initial(cls, formula):
        node = FormulaSet([formula])
        x, y = formula.left, formula.right
        branch = cls(None, History(node), [x, y], [x, y], {y}, {},
                     FormulaSet(), set(), {}, [0], {})
        branch.enter(node, node, ())
        return branch

    def fork(self, node):
        return Branch(node, self.history.copy(), list(self.vars),
                      list(self.order), set(self.right), dict(self.genealogy),
                      self.lit_negcomp.copy(), set(self.applied),
                      dict(self.decomposed_with), self._fresh,
                      {key: dict(group) for key, group in self.agenda.items()
                       if group})

    def enter(self, node, added, removed):
        """Make ``node`` the leaf: the old leaf with the formulas
        ``removed`` taken out and ``added`` put in at the end."""
        self.node = node
        self.node_axiomatic = is_axiomatic(node, added)
        agenda = self.agenda
        for f in removed:
            _, key = agenda_entry(f)
            if key is not None:
                del agenda[key][f]
        for f in added:
            rule, key = agenda_entry(f)
            if key is not None:
                agenda.setdefault(key, {})[f] = 0 if rule == RULE_COMP_BOOL else rule

    def introduce(self, premise):
        """Introduce the fresh witness of the complemented composition
        ``premise`` and return it.

        The branch order puts the left root first, then the generated
        variables that do not descend from the right root, then the right
        root, then its descendants, each group in introduction order.  A
        variable descends from the right root when its premise's left
        endpoint does (or is that root) and its rule is not
        ``cmpl-comp-univ``.
        """
        self._fresh[0] += 1
        z = f"z{self._fresh[0]}"
        self.vars.append(z)
        self.genealogy[z] = premise
        self.decomposed_with[premise] = z
        if premise.left in self.right and rule_of(premise.term) != RULE_CMPL_COMP_UNIV:
            self.right.add(z)
            self.order.append(z)
        else:
            self.order.insert(len(self.order) - len(self.right), z)
        return z


def blocker_literals(branch, blocker, w):
    """Literals produced on the branch by the Boolean decomposition of the
    blocker's left part with witness ``w``."""
    return [
        h for h in branch.history.by_left_right.get((blocker.left, w), ())
        if isinstance(h.term, Cmpl) and isinstance(h.term.arg, Var)
    ]


def is_blocked(f, branch):
    """The first formula of the branch history blocking ``f``, or None.

    A twin with the same term and right endpoint blocks ``f`` when it was
    already decomposed with some witness ``w`` and every composition
    obligation of ``f``'s left variable that the renamed witness literals
    would trigger is mirrored on the twin's side.
    """
    y, history = f.right, branch.history
    for g in history.by_term_right.get((f.term, y), ()):
        w = branch.decomposed_with.get(g)
        if g == f or w is None:
            continue
        renamed = FormulaSet(
            RelFormula(f.left, h.term, w) for h in blocker_literals(branch, g, w)
        )
        if all(RelFormula(g.left, h.term, y) in history
               for h in history.by_left_right.get((f.left, y), ())
               if rule_of(h.term) == RULE_COMP_BOOL
               and has_nbool_construction(RelFormula(f.left, Cmpl(h.term.left), w),
                                          renamed)):
            return g
    return None


def record_blocked_literals(branch, f, blocker):
    w = branch.decomposed_with[blocker]
    for h in blocker_literals(branch, blocker, w):
        branch.lit_negcomp.add(RelFormula(f.left, h.term, w))


def is_suppressed(branch, f):
    """Side condition of the ``x -(1;S) y`` rule: it is not applied once some
    generated variable ``z'`` carries ``z' -S y``."""
    twins = branch.history.by_term_right.get((Cmpl(f.term.arg.right), f.right), ())
    return any(g.left in branch.genealogy for g in twins)


# ---------------------------------------------------------------------------
# Applicability and state update: ``applications`` alone decides what
# applies, ``apply_rule`` carries out what it yields.


def applications(branch, z):
    """Every rule application open at variable ``z``, as ``(rule, premise,
    variable)`` in the order the engine tries them.

    First the Boolean rules, then the complemented-composition rules, for
    the formulas of the node whose left endpoint is ``z``, in node order;
    then the literal-gated composition rule, once per forced variable in
    branch order; then the universal composition rule instantiated with
    ``z``.  A complemented composition that a twin blocks comes in its
    place as ``("blocked", f, blocker)``, which is not an application.
    The formulas are read off the branch's agenda, not the node.
    """
    applied, history, agenda = branch.applied, branch.history, branch.agenda
    for f, rule in agenda.get((z, 0), {}).items():
        if (rule, f, None) not in applied:
            yield rule, f, None
    for f, rule in agenda.get((z, 1), {}).items():
        if (rule, f, None) in applied:
            continue
        if rule == RULE_CMPL_COMP_UNIV:
            if not is_suppressed(branch, f):
                yield rule, f, None
        else:
            blocker = is_blocked(f, branch)
            yield (rule, f, None) if blocker is None else ("blocked", f, blocker)
    for f, count in agenda.get((z, 2), {}).items():
        # forced sets only grow and only forced instances are applied, so
        # a premise with as many instances as forced variables has none left
        forced = history.forced(gate_of(f.term), z)
        for w in branch.order if count < len(forced) else ():
            if w in forced and (RULE_COMP_BOOL, f, w) not in applied:
                yield RULE_COMP_BOOL, f, w
    for f in agenda.get((None, 3), {}):
        if ((RULE_COMP_UNIV, f, z) not in applied
                and RelFormula(z, f.term.right, f.right) not in history):
            yield RULE_COMP_UNIV, f, z


def branch_saturated(branch):
    """True iff the branch is open and no rule application remains."""
    return not is_axiomatic(branch.node) and all(
        rule == "blocked" for z in branch.vars
        for rule, _, _ in applications(branch, z))


def apply_rule(branch, rule, f, z=None):
    """Carry out one application that :func:`applications` yielded.

    Returns the step's conclusions, one group of formulas per successor
    (two for the branching rules), and the variable of the step: the
    instance ``z`` of a composition, the fresh witness of a complemented
    composition, None otherwise.  A composition concludes ``z S y`` and
    keeps its premise; any other premise leaves the node and stays in the
    branch history.  Nothing is checked here: the scan has already decided
    that the rule applies.
    """
    branch.applied.add((rule, f, z))
    if rule == RULE_COMP_BOOL:
        branch.agenda[f.left, 2][f] += 1
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
            z = branch.introduce(f)
            group = []
            if rule != RULE_CMPL_COMP_UNIV:
                group.append(RelFormula(x, Cmpl(b), z))
            if rule != RULE_CMPL_COMP_ONE:
                group.append(RelFormula(z, Cmpl(s), y))
            groups = [group]
    return groups, z


def extract_model(branch):
    """Read the falsifying model off a saturated open branch.

    The universe is the branch's variable list; a pair belongs to the
    interpretation of a relational variable exactly when the branch (or
    the recorded literals of blocked formulas) carries the corresponding
    negated literal.  The valuation is the identity.
    """
    if not branch_saturated(branch):
        raise BranchNotSaturated(
            "model extraction needs a non-axiomatic branch with no applicable rule"
        )
    universe = tuple(branch.vars)
    literals = [f for f in branch.history if is_literal(f)]
    literals.extend(branch.lit_negcomp)
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
    __slots__ = ("id", "parent", "formulas", "rule", "premise", "variable",
                 "closed", "children")

    def __init__(self, id, parent, formulas, rule=None, premise=None, variable=None):
        self.id = id
        self.parent = parent
        self.formulas = formulas
        self.rule = rule
        self.premise = premise
        self.variable = variable
        self.closed = False
        self.children = []


@dataclass
class DeductionTree:
    nodes: list = field(default_factory=list)
    steps: int = 0
    branch_count: int = 1
    max_vars: int = 0

    @property
    def root(self):
        return self.nodes[0]

    def new_node(self, parent, formulas, rule=None, premise=None, variable=None):
        node = Node(len(self.nodes), parent.id if parent else None, formulas,
                    rule, premise, variable)
        self.nodes.append(node)
        if parent is not None:
            parent.children.append(node.id)
        return node

    def to_json(self):
        return {
            "nodes": [
                {
                    "id": n.id,
                    "parent": n.parent,
                    "formulas": [
                        [f.left, render_term(f.term), f.right] for f in n.formulas
                    ],
                    "rule": n.rule,
                    "premise": (
                        [n.premise.left, render_term(n.premise.term), n.premise.right]
                        if n.premise is not None else None
                    ),
                    "variable": n.variable,
                    "closed": n.closed,
                    "children": list(n.children),
                }
                for n in self.nodes
            ]
        }


@dataclass
class Proof:
    tree: DeductionTree


@dataclass
class Countermodel:
    tree: DeductionTree
    branch: Branch
    model: Model
    valuation: dict


Verdict = Proof | Countermodel


class ProofSearch:
    """One run of the decision procedure on a single input term."""

    def __init__(self, term, *, max_steps=1_000_000, max_vars=10_000,
                 trace=None):
        prepared = simplify_ones(term)
        require_fragment(prepared)
        self.term = prepared
        self.max_steps = max_steps
        self.max_vars = max_vars
        self.trace = trace
        self.cp = components(prepared)
        self.weights = {}
        for t in self.cp:
            weight(t, self.weights)
        self.var_bound = VAR_BOUND_FACTOR * len(self.cp) ** 2
        self.tree = DeductionTree()
        self.root_formula = RelFormula("x", prepared, "y")
        self._stack = []

    def run(self):
        branch = Branch.initial(self.root_formula)
        root = self.tree.new_node(None, branch.node)
        self.tree.max_vars = len(branch.vars)
        return self._drive(branch, root)

    def _drive(self, branch, leaf):
        self._stack.append((branch, leaf))
        while self._stack:
            branch, leaf = self._stack.pop()
            leaf, status = self._expand(branch, leaf)
            if status == "open":
                model, valuation = extract_model(branch)
                return Countermodel(self.tree, branch, model, valuation)
        return Proof(self.tree)

    def _expand(self, branch, leaf):
        """Expand the branch in turns: the smallest variable with work
        takes rule applications until it has none left."""
        while not branch.node_axiomatic:
            z = self._smallest_pending_var(branch)
            if z is None:
                return leaf, "open"
            while not branch.node_axiomatic:
                app = self._next_application(branch, z)
                if app is None:
                    break
                leaf = self._apply(branch, leaf, app)
        leaf.closed = True
        return leaf, "closed"

    def _smallest_pending_var(self, branch):
        """The first variable in branch order with an application open.

        None means the branch is saturated; the literals of the blocked
        formulas the scan passed are then recorded for the countermodel.
        """
        blocked = []
        for z in branch.order:
            for app in applications(branch, z):
                if app[0] != "blocked":
                    return z
                blocked.append(app)
        for _, f, blocker in blocked:
            record_blocked_literals(branch, f, blocker)
        return None

    def _next_application(self, branch, z):
        for app in applications(branch, z):
            if app[0] != "blocked":
                return app
            record_blocked_literals(branch, app[1], app[2])
        return None

    def _apply(self, branch, leaf, app):
        rule, f, inst = app
        self.tree.steps += 1
        if self.tree.steps > self.max_steps:
            raise ResourceExhausted(f"step cap of {self.max_steps} exceeded")
        parent, before = branch.node, len(branch.applied)
        groups, inst = apply_rule(branch, rule, f, inst)
        if len(branch.vars) > self.max_vars:
            raise ResourceExhausted(f"variable cap of {self.max_vars} exceeded")
        if len(branch.vars) > self.var_bound + 2:
            raise EngineInvariantError(
                f"branch variables exceeded the bound {self.var_bound + 2}"
            )
        self.tree.max_vars = max(self.tree.max_vars, len(branch.vars))
        # each successor: the parent in order, minus the premise unless the
        # rule is a composition, plus the group's formulas not already there
        removed = () if rule in _COMP_RULES else (f,)
        children = []
        for group in groups:
            succ = FormulaSet(parent)
            for g in removed:
                del succ[g]
            added = [g for g in group if succ.add(g)]
            children.append((self.tree.new_node(leaf, succ, rule, f, inst), added))
        self._emit(rule, f, inst)
        if len(children) == 2:
            self.tree.branch_count += 1
            child, added = children[1]
            fork = branch.fork(child.formulas)
            self._enter(fork, child.formulas, added, removed, rule, before)
            self._stack.append((fork, child))
        child, added = children[0]
        self._enter(branch, child.formulas, added, removed, rule, before)
        return child

    def _enter(self, branch, node, added, removed, rule, before):
        """Make ``node`` the branch's leaf: its parent, the old leaf, with
        the formulas ``removed`` taken out and ``added`` put in."""
        branch.enter(node, added, removed)
        self._admit(branch, added)
        self._check_progress(rule, branch, added, removed, before)

    def _admit(self, branch, formulas):
        """Record formulas in the branch history, checking the component
        and endpoint discipline every formula must respect."""
        for f in formulas:
            if f in branch.history:
                continue
            if f.term not in self.cp:
                raise EngineInvariantError(
                    f"formula term escaped the component set: {f!r}"
                )
            if not f.term.boolean and f.right != branch.root_right:
                raise EngineInvariantError(
                    f"compositional formula with a generated right endpoint: {f!r}"
                )
            branch.history.add(f)

    def _check_progress(self, rule, branch, added, removed, before):
        """A composition step must record a new instance; any other step
        must lower the node weight, taken from what entered and left the
        node."""
        if rule in _COMP_RULES:
            if len(branch.applied) <= before:
                raise EngineInvariantError("composition step without progress")
        else:
            w = self.weights
            delta = (sum(w[g.term] for g in added)
                     - sum(w[g.term] for g in removed))
            if delta >= 0:
                raise EngineInvariantError(
                    f"rule {rule} did not decrease the node weight"
                )

    def _emit(self, rule, premise, variable):
        if self.trace is not None:
            self.trace({
                "rule": rule,
                "premise": repr(premise),
                "variable": variable,
            })


def run_procedure(term, *, max_steps=1_000_000, max_vars=10_000, trace=None):
    """Decide validity of ``x term y``.

    The term is simplified and fragment-checked first; a
    :class:`FragmentViolation` is raised for terms outside the fragment.
    Returns :class:`Proof` when every branch closes, otherwise the first
    saturated open branch as a :class:`Countermodel`.  Identical inputs
    produce identical trees.
    """
    return ProofSearch(term, max_steps=max_steps, max_vars=max_vars,
                       trace=trace).run()


def stats_of(verdict):
    tree = verdict.tree
    return {"steps": tree.steps, "branches": tree.branch_count,
            "variables": tree.max_vars}


def verdict_to_json(verdict):
    """Stable JSON form of a verdict: proof tree or countermodel plus stats."""
    from .semantics import model_to_json

    valid = isinstance(verdict, Proof)
    return {
        "verdict": "valid" if valid else "invalid",
        "proof": verdict.tree.to_json() if valid else None,
        "countermodel": None if valid else model_to_json(verdict.model, verdict.valuation),
        "stats": stats_of(verdict),
    }
