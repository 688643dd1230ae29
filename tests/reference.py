"""Reference definitions that the tests check the program against, and
that no dualtab process runs.

The forcing relation of ``formulas.py``'s docstring, read off a formula
set directly: a formula is forced by a set ``N`` of literals when it can
be assembled from literals of ``N`` using only unions (both sides
forced) and intersections (one side forced, the other in complement
normal form).  The engine keeps the forced sets it needs up to date
instead (``engine.Branch``, ``formulas.gate_forced``).  And the
structural readings of a term that ``terms.py`` sets as attributes at
interning, as functions.  And the recursive-descent parsers that
``terms.NestingParser``'s operator-precedence loop replaced, one method
per grammar level, with entry points named as the library's
(``parse_term``, ``parse_modal``, ``parse_formula``).  They share the
library's tokenizers and node classes, and take about eight interpreter
frames per parenthesis.  And the argparse parser that ``cli``'s table of
commands replaced, which the command line is checked against.  And the
Kripke oracle's search one pointed model at a time, in the order that
``frontends.kripke.kripke_countermodel`` documents, which its broadcast
search is checked against.  And the recursive term walkers that the
library's explicit-stack loops replaced, one interpreter frame or more per
level, with the library's names; ``nf_cmpl`` memoises nothing on the
term.
"""

import argparse
import itertools
import warnings

from dualtab import terms
from dualtab.errors import NotBoolean, ParseError, UnknownVariableWarning
from dualtab.formulas import DEFAULT_LEFT, DEFAULT_RIGHT, RelFormula
from dualtab.frontends import modal
from dualtab.frontends.kripke import KripkeModel, eval_modal
from dualtab.frontends.modal import And, Box, Dia, Not, Or, Prop
from dualtab.terms import (MAX_DEPTH, MAX_NESTING, ONE, CMPL_ONE, Cmpl, Comp, Conv,
                           Inter, One, Union, Var, _found)


def is_nbool(f, n):
    """Whether ``f`` is directly forced by the literals of ``n``.

    Holds when ``f`` is a literal of ``n``; when its term is an
    intersection with one side forced and the other in complement normal
    form; or when its term is a union with both sides forced.  All
    subformulas keep the endpoints of ``f``.  Requires a Boolean term.
    """
    if not f.term.boolean:
        raise NotBoolean(f"not a Boolean term: {render_term(f.term)}")
    return _is_nbool(f.left, f.term, f.right, n)


def _is_nbool(x, t, y, n):
    match t:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            return RelFormula(x, t, y) in n
        case Inter(l, r):
            return (_is_nbool(x, l, y, n) and r.cnf) or (_is_nbool(x, r, y, n) and l.cnf)
        case Union(l, r):
            return _is_nbool(x, l, y, n) and _is_nbool(x, r, y, n)
        case _:
            return False


def has_nbool_construction(f, n):
    """Whether the complement normal form of ``f`` is forced by ``n``."""
    return _is_nbool(f.left, nf_cmpl(f.term), f.right, n)


def variables_of(n):
    """Object variables occurring in ``n``, in order of first occurrence."""
    seen = dict()
    for f in n:
        seen.setdefault(f.left, None)
        seen.setdefault(f.right, None)
    return list(seen)


def v_set(term, x, n):
    """The object variables ``z`` of ``n`` for which ``x term z`` is forced.

    Only variables textually present in ``n`` can carry a construction, so
    the search is restricted to them.  Requires ``term`` Boolean.
    """
    nf = nf_cmpl(term)
    return {z for z in variables_of(n) if _is_nbool(x, nf, z, n)}


def term_depth(t):
    """Number of nodes on the longest root-to-leaf path (atoms have depth 1)."""
    return t.depth


def is_cnf(t):
    """True iff every complement in ``t`` acts on a variable or constant."""
    return t.cnf


def is_plain_boolean(t):
    """True iff ``t`` is built from variables with union/intersection only."""
    return t.plain


class _Reads:
    """The token reads of the recursive-descent parsers, on the library's
    token streams."""

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok


class _Tokenizer(_Reads, terms._Tokenizer):
    pass


class _ModalTokenizer(_Reads, modal._ModalTokenizer):
    pass


class NestingParser:
    """A recursive-descent parser over a token stream ``tz`` that refuses
    nesting deeper than :data:`MAX_NESTING` and syntax trees deeper than
    :data:`MAX_DEPTH`.  A subclass names its top rule ``top``, the token
    kinds that may follow a complete input in ``FOLLOW`` and those that
    may start an operand in ``STARTS``."""

    def __init__(self, tz):
        self.tz = tz
        self.depth = 0

    def parse(self):
        """The whole input, which must end after the top rule."""
        t = self.top()
        tok = self.tz.peek()
        if tok[0] != "eof":
            raise self.tz.error(f"trailing input {tok[1]!r}", tok[2], self.FOLLOW)
        return t

    def chain(self, kind, cls, operand):
        """``operand (kind operand)*``, associated to the left by ``cls``."""
        t = operand()
        while self.tz.peek()[0] == kind:
            t = self.node(cls, self.tz.next(), t, operand())
        return t

    def group(self, what):
        """The parenthesised input at the next token; at any other token,
        a ``what`` was expected."""
        tok = self.tz.peek()
        if tok[0] != "(":
            raise self.tz.error(f"expected a {what}, found {_found(tok)}", tok[2], self.STARTS)
        self.nest(self.tz.next())
        t = self.top()
        self.tz.expect(")")
        self.depth -= 1
        return t

    def nest(self, tok):
        """Enter one more level of nesting at ``tok``; the caller lowers
        ``depth`` again on leaving it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.tz.error(f"nesting deeper than {MAX_NESTING} levels", tok[2])

    def node(self, cls, tok, *parts):
        """``cls(*parts)`` for the operator at ``tok``, unless deeper than
        :data:`MAX_DEPTH`."""
        if 1 + max(p.depth for p in parts) > MAX_DEPTH:
            raise self.tz.error(f"syntax tree deeper than {MAX_DEPTH} levels", tok[2])
        return cls(*parts)


class _Parser(NestingParser):
    FOLLOW = ("|", "&", ";", "^", "eof")
    STARTS = ("ident", "1", "(", "-")

    def top(self):
        return self.chain("|", Union, self.conj)

    def conj(self):
        return self.chain("&", Inter, self.comp)

    def comp(self):
        return self.chain(";", Comp, self.unary)

    def unary(self):
        tok = self.tz.peek()
        if tok[0] == "-":
            self.nest(self.tz.next())
            t = self.node(Cmpl, tok, self.unary())
            self.depth -= 1
            return t
        if tok[0] in ("one", "ident"):
            self.tz.next()
            t = ONE if tok[0] == "one" else Var(tok[1])
        else:
            t = self.group("term")
        levels = 0
        while (tok := self.tz.peek())[0] == "^":
            levels += 1
            self.nest(self.tz.next())
            t = self.node(Conv, tok, t)
        self.depth -= levels
        return t


class _ModalParser(NestingParser):
    FOLLOW = ("&", "|", "->", "<->", "eof")
    STARTS = ("ident", "~", "(", "[", "<")

    def top(self):
        f = self.imp()
        while (tok := self.tz.peek())[0] == "<->":
            self.tz.next()
            g = self.imp()
            f = self.node(And, tok, Or(Not(f), g), Or(Not(g), f))
        return f

    def imp(self):
        f = self.disj()
        if (tok := self.tz.peek())[0] == "->":
            self.nest(self.tz.next())
            g = self.imp()
            self.depth -= 1
            return self.node(Or, tok, Not(f), g)
        return f

    def disj(self):
        return self.chain("|", Or, self.conj)

    def conj(self):
        return self.chain("&", And, self.unary)

    def unary(self):
        tok = self.tz.peek()
        if tok[0] == "ident":
            self.tz.next()
            return Prop(tok[1])
        if tok[0] not in ("~", "box", "dia"):
            return self.group("formula")
        self.nest(self.tz.next())
        f = self.unary()
        self.depth -= 1
        if tok[0] == "~":
            return self.node(Not, tok, f)
        return self.node(Box if tok[0] == "box" else Dia, tok, tok[1], f)


def parse_formula(text):
    """Parse ``"IDENT TERM IDENT"`` or a bare term.

    A bare term gets the distinguished endpoints ``DEFAULT_LEFT`` and
    ``DEFAULT_RIGHT``; validity of ``x R y`` does not depend on how the
    endpoints are named.
    """
    tz = _Tokenizer(text)  # a tokenizing error is both readings' error
    try:
        return RelFormula(DEFAULT_LEFT, _Parser(tz).parse(), DEFAULT_RIGHT)
    except ParseError as bare_error:
        tz.pos = 0
        try:
            left = tz.expect("ident")[1]
            term = _Parser(tz).top()
            right = tz.expect("ident")[1]
            tz.expect("eof")
            return RelFormula(left, term, right)
        except ParseError as triple_error:
            raise (triple_error if triple_error.offset > bare_error.offset
                   else bare_error) from None


def parse_term(text):
    return _Parser(_Tokenizer(text)).parse()


def parse_modal(text):
    return _ModalParser(_ModalTokenizer(text)).parse()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dualtab",
        description="Dual-tableau validity prover with countermodel extraction.",
        epilog="Input starting with '-' needs the usual separator, e.g. "
               "dualtab prove --json -- '-(r ; 1)'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return value

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--trace", action="store_true",
                       help="stream rule applications to stderr")
        p.add_argument("--max-steps", type=positive, default=1_000_000, metavar="N")
        p.add_argument("--oracle-size", type=int, default=3, choices=(1, 2, 3, 4),
                       metavar="K", help="universe cap for --verify oracles")
        p.add_argument("--verify", action="store_true",
                       help="cross-check the verdict with the independent oracles")

    p = sub.add_parser("prove", help="decide validity of a term")
    p.add_argument("term")
    common(p)

    p = sub.add_parser("entail", help="decide a relational entailment")
    p.add_argument("--premise", action="append", required=True, metavar="TERM")
    p.add_argument("--conclusion", required=True, metavar="TERM")
    common(p)

    p = sub.add_parser("modal", help="decide a modal formula")
    p.add_argument("formula")
    common(p)

    p = sub.add_parser("check-model", help="evaluate a formula against a model file")
    p.add_argument("formula")
    p.add_argument("model_file")

    p = sub.add_parser("fragment", help="check fragment membership")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simplify", help="apply the 1-identities to a term")
    p.add_argument("term")
    p.add_argument("--json", action="store_true")

    return parser


def kripke_countermodel(f, max_worlds):
    """The first pointed model refuting ``f`` with at most ``max_worlds``
    worlds: universe sizes ascending; for each, the relations of the
    accessibility variables, sorted, each a bitmask whose bit ``v*n + u``
    is the pair ``(wv, wu)``, lexicographically with the first variable
    most significant; then the world masks of the propositions, sorted,
    likewise; then the worlds ascending.  Each model is built and read
    through ``eval_modal``; with no budget, so small sizes only."""
    subs = modal.subformulas(f)
    accs, props = modal.accessibility_of(subs), modal.propositions_of(subs)
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(n))
        pairs = [(v, u) for v in worlds for u in worlds]
        for frame in itertools.product(range(1 << n * n), repeat=len(accs)):
            relations = {name: {pair for b, pair in enumerate(pairs) if mask >> b & 1}
                         for name, mask in zip(accs, frame)}
            for masks in itertools.product(range(1 << n), repeat=len(props)):
                valuation = {name: {w for b, w in enumerate(worlds) if mask >> b & 1}
                             for name, mask in zip(props, masks)}
                model = KripkeModel(worlds, relations, valuation)
                for world in worlds:
                    if not eval_modal(f, model, world):
                        return model, world
    return None


def render_term(t, memo=None):
    if memo is None:
        memo = {}
    elif t in memo:
        return memo[t]
    match t:
        case One():
            out = "1"
        case Var(name):
            out = name
        case Cmpl(arg):
            out = "-" + _render_part(arg, (Cmpl, Conv), memo)
        case Union(l, r):
            out = f"({render_term(l, memo)} | {render_term(r, memo)})"
        case Inter(l, r):
            out = f"({render_term(l, memo)} & {render_term(r, memo)})"
        case Comp(l, r):
            out = f"({render_term(l, memo)} ; {render_term(r, memo)})"
        case Conv(arg):
            out = _render_part(arg, Cmpl, memo) + "^"
        case _:
            raise TypeError(f"not a relational term: {t!r}")
    memo[t] = out
    return out


def _render_part(t, bracketed, memo):
    text = render_term(t, memo)
    return f"({text})" if isinstance(t, bracketed) else text


def term_variables(t):
    out = set()
    _add_variables(t, out, set())
    return sorted(out)


def _add_variables(t, out, seen):
    if t in seen:
        return
    seen.add(t)
    match t:
        case Var(name):
            out.add(name)
        case Cmpl(a) | Conv(a):
            _add_variables(a, out, seen)
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            _add_variables(l, out, seen)
            _add_variables(r, out, seen)


def simplify_ones(t):
    return t if t.simple else _simplify(t, {})


def _simplify(t, memo):
    if t.simple:
        return t
    out = memo.get(t)
    if out is not None:
        return out
    match t:
        case Cmpl(a):
            a2 = _simplify(a, memo)
            out = ONE if a2 == CMPL_ONE else Cmpl(a2)
        case Union(l, r):
            l2, r2 = _simplify(l, memo), _simplify(r, memo)
            if l2 == ONE or r2 == ONE:
                out = ONE
            elif l2 == CMPL_ONE:
                out = r2
            elif r2 == CMPL_ONE:
                out = l2
            else:
                out = Union(l2, r2)
        case Inter(l, r):
            l2, r2 = _simplify(l, memo), _simplify(r, memo)
            if l2 == CMPL_ONE or r2 == CMPL_ONE:
                out = CMPL_ONE
            elif l2 == ONE:
                out = r2
            elif r2 == ONE:
                out = l2
            else:
                out = Inter(l2, r2)
        case Comp(l, r):
            out = Comp(_simplify(l, memo), _simplify(r, memo))
        case Conv(a):
            out = Conv(_simplify(a, memo))
    memo[t] = out
    return out


def nf_cmpl(t):
    if t.boolean and t.cnf:
        return t
    match t:
        case Union(l, r):
            return Union(nf_cmpl(l), nf_cmpl(r))
        case Inter(l, r):
            return Inter(nf_cmpl(l), nf_cmpl(r))
        case Cmpl(Cmpl(b)):
            return nf_cmpl(b)
        case Cmpl(Inter(l, r)):
            return Union(nf_cmpl(Cmpl(l)), nf_cmpl(Cmpl(r)))
        case Cmpl(Union(l, r)):
            return Inter(nf_cmpl(Cmpl(l)), nf_cmpl(Cmpl(r)))
        case Cmpl(a) | a:
            raise NotBoolean(f"term contains a non-Boolean operator: {render_term(a)}")


def components(t):
    out = set()
    _add_components(t, out)
    return out


def _add_components(t, out):
    if t in out:
        return
    out.add(t)
    match t:
        case One() | Var() | Cmpl(One()) | Cmpl(Var()):
            pass
        case Cmpl(Cmpl(b)):
            _add_components(b, out)
        case Cmpl(Conv(b)):
            _add_components(Cmpl(b), out)
        case Cmpl(Union(l, r)) | Cmpl(Inter(l, r)) | Cmpl(Comp(l, r)):
            _add_components(Cmpl(l), out)
            _add_components(Cmpl(r), out)
        case Conv(b):
            _add_components(b, out)
        case Union(l, r) | Inter(l, r) | Comp(l, r):
            _add_components(l, out)
            _add_components(r, out)


def gate_forced(x, b, z, n):
    if isinstance(b, Var):
        return RelFormula(x, Cmpl(b), z) in n
    holds = any if isinstance(b, Union) else all
    return holds(gate_forced(x, part, z, n) for part in (b.left, b.right))


def eval_term(model, t, memo=None):
    if memo is None:
        memo = {}
    elif t in memo:
        return memo[t]
    match t:
        case One():
            out = model.all_pairs()
        case Var(name):
            if name not in model.interp:
                warnings.warn(
                    f"variable {name!r} has no interpretation; treating as empty",
                    UnknownVariableWarning,
                    stacklevel=2,
                )
                out = set()
            else:
                out = set(model.interp[name])
        case Cmpl(a):
            out = eval_term(model, ONE, memo) - eval_term(model, a, memo)
        case Union(l, r):
            out = eval_term(model, l, memo) | eval_term(model, r, memo)
        case Inter(l, r):
            out = eval_term(model, l, memo) & eval_term(model, r, memo)
        case Comp(l, r):
            lv, rv = eval_term(model, l, memo), eval_term(model, r, memo)
            by_mid = {}
            for c, b in rv:
                by_mid.setdefault(c, set()).add(b)
            out = {(a, b) for a, c in lv for b in by_mid.get(c, ())}
        case Conv(a):
            out = {(b, a2) for a2, b in eval_term(model, a, memo)}
    memo[t] = out
    return out


def translate(f, memo):
    """The relational image of ``f`` before ``translate_modal``'s depth
    bounds, simplification and fragment check."""
    term = memo.get(f)
    if term is None:
        match f:
            case Prop(name):
                term = Comp(Var(name), ONE)
            case Not(a):
                term = Cmpl(translate(a, memo))
            case And(l, r):
                term = Inter(translate(l, memo), translate(r, memo))
            case Or(l, r):
                term = Union(translate(l, memo), translate(r, memo))
            case Dia(prog, a):
                term = Comp(prog, translate(a, memo))
            case Box(prog, a):
                term = Cmpl(Comp(prog, Cmpl(translate(a, memo))))
        memo[f] = term
    return term


def render_modal(f, memo=None):
    if memo is None:
        memo = {}
    elif f in memo:
        return memo[f]
    match f:
        case Prop(name):
            out = name
        case Not(a):
            out = "~" + render_modal(a, memo)
        case And(l, r):
            out = f"({render_modal(l, memo)} & {render_modal(r, memo)})"
        case Or(l, r):
            out = f"({render_modal(l, memo)} | {render_modal(r, memo)})"
        case Box(prog, a):
            out = f"[{render_term(prog)}]{render_modal(a, memo)}"
        case Dia(prog, a):
            out = f"<{render_term(prog)}>{render_modal(a, memo)}"
    memo[f] = out
    return out
