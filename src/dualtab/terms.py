"""Relational terms: syntax tree, text grammar, and structural analyses.

Terms are immutable trees over relational variables and the universal
constant ``1``, built with complement ``-``, union ``|``, intersection
``&``, composition ``;`` and converse ``^``.  Terms are interned (hash-
consed): each constructor returns the one shared instance of its
structure, so two terms are equal exactly when they are the same object,
and ``==`` on terms is identity.

Grammar accepted by :func:`parse_term` (ASCII, with unicode aliases
``∪`` ``∩`` ``−`` ``⌣`` for ``|`` ``&`` ``-`` ``^``)::

    term  := disj
    disj  := conj ('|' conj)*
    conj  := comp ('&' comp)*
    comp  := unary (';' unary)*
    unary := '-' unary | atom '^'*
    atom  := '1' | IDENT | '(' term ')'

``-`` binds tighter than ``;``, which binds tighter than ``&``, which
binds tighter than ``|``; same-operator chains associate to the left.
Identifiers match ``[a-z][a-z0-9_]*``.  Parentheses, complements and
converses may nest at most :data:`MAX_NESTING` deep.  A term may be at
most :data:`MAX_DEPTH` levels deep, flat chains included; the parser
raises :class:`ParseError` before it builds a deeper node.  Every walker
over terms is one loop over an explicit stack, so no limit depends on the
caller's stack.

:class:`TokenStream` and :class:`NestingParser` are the tokenizer and
parser core of this grammar and of the modal one, each grammar a table
of its operators.  Tokens hold character indices into the text; a
:class:`ParseError` reports a byte offset into its UTF-8 encoding,
computed from the index only when the error is made.

Each term carries attributes set once at interning from its children's:

- ``depth`` and ``size`` (:func:`term_size`);
- ``boolean``, the reading of :func:`is_boolean`; ``cnf``, every
  complement acts on a variable or the constant; ``plain``, the term is
  built from variables with union and intersection only;
- ``simple``: the term is its own :func:`simplify_ones`;
- ``fragment`` and ``fragment_inside``: :func:`fragment_check` accepts the
  term at top level, and inside a composition's right operand;
- ``weight`` and ``cweight``: the engine's weight of the term and of its
  complement, None under a converse, where it is undefined.

Two more are the engine's memos, filled when first asked for and dropped
with the term: ``rule``, the rule that decomposes it, and ``plan``, what
that rule concludes.  Since terms are interned, a memo on the term is
exact.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from collections import namedtuple
from operator import attrgetter

from .errors import FragmentViolation, NotBoolean, ParseError

# Every constructor interns: it returns the one live instance with the
# given structure, so terms keep object identity as their equality and
# hash.  The table maps each structure to a weak reference that carries
# it as its key; a reference's death callback removes its key only while
# the key still maps to a dead reference, as WeakValueDictionary does, so
# the table shrinks with its terms and a live entry is never dropped.  Its
# keys hold the children themselves, not their ids, so a key can never
# match a reused address.  Modal formulas are interned here too.
_INTERNED = {}


class _Ref(weakref.ref):
    """A weak reference with its table key; made in C, as it defines no
    ``__init__``."""

    __slots__ = ("key",)


def _drop(ref, table=_INTERNED, remove=_remove_dead_weakref):
    remove(table, ref.key)


def _interned(cls, *fields):
    key = (cls, *fields)
    ref = _INTERNED.get(key)
    t = None if ref is None else ref()
    if t is None:
        t = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):
            setattr(t, name, value)
        (t.depth, t.size, t.boolean, t.cnf, t.plain, t.simple, t.fragment,
         t.fragment_inside, t.weight, t.cweight) = _ATTRIBUTES[cls](*fields)
        _INTERNED[key] = ref = _Ref(t, _drop)
        ref.key = key
    return t


def interned(cls, *fields):
    """The live term ``cls(*fields)``, or None; creates nothing."""
    ref = _INTERNED.get((cls, *fields))
    return None if ref is None else ref()


class _Term:
    # ``rule`` and ``plan`` (unset until either is asked) memoise the
    # engine's rule_of(t) and plan_of(t), both from one _decompose(t)
    __slots__ = ("depth", "size", "boolean", "cnf", "plain", "simple", "fragment",
                 "fragment_inside", "weight", "cweight", "rule", "plan",
                 "__weakref__")

    def __reduce__(self):  # copies and unpickled terms are interned too
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self):
        return render_term(self)


class One(_Term):
    """The universal relation constant."""

    __slots__ = __match_args__ = ()

    def __new__(cls):
        return _interned(cls)


class Var(_Term):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name):
        return _interned(cls, name)


class _Unary(_Term):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg):
        return _interned(cls, arg)


class _Binary(_Term):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        return _interned(cls, left, right)


class Cmpl(_Unary):
    __slots__ = ()


class Conv(_Unary):
    __slots__ = ()


class Union(_Binary):
    __slots__ = ()


class Inter(_Binary):
    __slots__ = ()


class Comp(_Binary):
    __slots__ = ()


RelTerm = One | Var | Cmpl | Union | Inter | Comp | Conv

# The parts of a node, by its class; the modal formulas add theirs.
PARTS = {One: lambda t: (), Var: lambda t: (), Cmpl: lambda t: (t.arg,),
         Conv: lambda t: (t.arg,), **dict.fromkeys((Union, Inter, Comp), attrgetter("left", "right"))}


def post_order(t, done):
    """``t`` and each node under it that ``done`` lacks, once each and
    after its :data:`PARTS`, left first.  The caller puts each node into
    ``done`` before it asks for the next.  One loop over an explicit
    stack, so a walk takes the same few interpreter frames at any depth."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in done:
            parts = PARTS.get(type(u), PARTS[One])(u)  # a stranger has none
            if all(map(done.__contains__, parts)):
                yield u
            else:
                stack.append(u)
                stack += reversed(parts)


# (depth, size, boolean, cnf, plain, simple, fragment, fragment_inside,
# weight, cweight) of a new term from its fields.  A union or intersection
# with a part 1 or -1 is not simple; 1 or a term that is fragment inside a
# right operand may be the right operand of a fragment composition.
_ATTRIBUTES = {
    One: lambda: (1, 1, True, True, False, True, True, False, 0, 0),
    Var: lambda name: (1, 1, True, True, True, True, True, True, 0, 0),
    Cmpl: lambda a: (a.depth + 1, a.size + 1, a.boolean, isinstance(a, (One, Var)), False,
                     a.simple and not (type(a) is Cmpl and a.arg is ONE), a.fragment,
                     a.fragment_inside, a.cweight, _weigh(a.weight, 0)),
    Conv: lambda a: (a.depth + 1, a.size + 1, False, a.cnf, False,
                     a.simple, False, False, None, None),
    Union: lambda l, r: (max(l.depth, r.depth) + 1, l.size + r.size + 1,
                         l.boolean and r.boolean, l.cnf and r.cnf, l.plain and r.plain,
                         l.simple and r.simple and l is not ONE and r is not ONE
                         and l is not CMPL_ONE and r is not CMPL_ONE,
                         l.fragment and r.fragment, l.fragment_inside and r.fragment_inside,
                         _weigh(l.weight, r.weight), _weigh(l.cweight, r.cweight)),
    Comp: lambda l, r: (max(l.depth, r.depth) + 1, l.size + r.size + 1,
                        False, l.cnf and r.cnf, False, l.simple and r.simple,
                        (l is ONE or l.plain) and (r is ONE or r.fragment_inside),
                        l.plain and (r is ONE or r.fragment_inside),
                        _weigh(l.weight, r.weight), _weigh(l.cweight, r.cweight)),
}
_ATTRIBUTES[Inter] = _ATTRIBUTES[Union]


def _weigh(a, b):
    """Weight of a binary node whose parts weigh ``a`` and ``b``; None
    (undefined) if either is."""
    return None if a is None or b is None else a + b + 1

ONE = One()
CMPL_ONE = Cmpl(ONE)

MAX_NESTING = 100

# Syntax-tree levels a term from outside input may have.  A flat chain
# adds no nesting but one level per operator.
MAX_DEPTH = 500

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")

_ALIASES = {"∪": "|", "∩": "&", "−": "-", "⌣": "^"}


class TokenStream:
    """The tokens of ``text``, which a :class:`NestingParser` reads front
    to back from ``pos``.  A subclass reads one with ``token(text, i)``,
    the ``(kind, value, end)`` of the token at character ``i``;
    whitespace is skipped here.  Tokens are ``(kind, value, index)``
    triples holding character indices, the last ``("eof", "",
    len(text))``.  Offsets are bytes: :meth:`error` computes one from an
    index only when a parse fails.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = []
        self.pos = 0
        i, n = 0, len(text)
        while i < n:
            if text[i].isspace():
                i += 1
                continue
            kind, value, end = self.token(text, i)
            self.tokens.append((kind, value, i))
            i = end
        self.tokens.append(("eof", "", n))

    def error(self, message, index, expected=()):
        """The :class:`ParseError` at character ``index`` of the text."""
        return ParseError(message, len(self.text[:index].encode("utf-8")), expected)

    def expect(self, kind):
        """The next token, which must be of ``kind``."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {_found(tok)}", tok[2], (kind,))
        self.pos += 1
        return tok


def _found(tok):
    return "end of input" if tok[0] == "eof" else repr(tok[1])


class _Tokenizer(TokenStream):
    """Tokens of a relational term."""

    def token(self, text, i):
        c = _ALIASES.get(text[i], text[i])
        if c in "|&;-^()":
            return c, c, i + 1
        if c == "1":
            return "one", "1", i + 1
        m = _IDENT_RE.match(text, i)
        if not m:
            raise self.error(f"unexpected character {text[i]!r}", i, _Parser.STARTS)
        return "ident", m.group(), m.end()


class NestingParser:
    """An operator-precedence parser over a token stream ``tz``: one loop
    over an explicit stack of pending operators (Dijkstra's shunting
    yard), so that it takes the same few interpreter frames whatever the
    input.  A subclass is a grammar, given as tables from token kinds:

    - ``ATOMS``: the operand, from the token's value;
    - ``PREFIX``: the node, from the operator's value and the operand;
    - ``POSTFIX``: the node, from the operand;
    - ``INFIX``: ``(precedence, right, build)``, ``right`` true for a
      right-associative operator, ``build`` the node from both operands;
      a postfix operator binds tighter than a prefix one, and a prefix
      one tighter than any infix one;
    - ``STARTS``, the kinds that may start an operand, and ``WHAT``, the
      name of an operand.

    ``(`` and ``)`` group.  A nesting level is an open parenthesis, a
    pending prefix or right-associative operator, or one postfix operator
    of a run; siblings do not add up.  More than :data:`MAX_NESTING`
    levels, or a node deeper than :data:`MAX_DEPTH`, is a
    :class:`ParseError`, raised before the node is built when an operand
    is that deep already, after it when a build adds more than one level
    (``->``) or has a deep value (a program).
    """

    POSTFIX = {}

    def __init__(self, tz):
        self.tz = tz

    def parse(self):
        """The whole input, which must end after one expression."""
        t = self.expression()
        kind, value, at = self.tz.tokens[self.tz.pos]
        if kind != "eof":
            raise self.tz.error(f"trailing input {value!r}", at,
                                (*self.INFIX, *self.POSTFIX, "eof"))
        return t

    def expression(self):
        """The expression at the current token, which ends before the first
        token that cannot continue it."""
        tz, tokens, pos = self.tz, self.tz.tokens, self.tz.pos
        atoms, prefix, postfix, infix = self.ATOMS, self.PREFIX, self.POSTFIX, self.INFIX
        # the pending operators, innermost last, as (precedence, nesting
        # levels, build, first operand, its depth, token index); an open
        # "(" has precedence 0, the bottom entry -1
        stack = [(-1, 0, None, None, 0, 0)]
        nesting = 0
        while True:
            kind, value, at = tok = tokens[pos]
            pos += 1
            if kind not in atoms:
                if kind in prefix:
                    stack.append((_PREFIX, 1, prefix[kind], value, 0, at))
                elif kind == "(":
                    stack.append((0, 1, None, None, 0, at))
                else:
                    raise tz.error(f"expected a {self.WHAT}, found {_found(tok)}", at,
                                   self.STARTS)
                nesting += 1
                if nesting > MAX_NESTING:
                    raise tz.error(_TOO_NESTED, at)
                continue
            t = atoms[kind](value)
            while True:  # after the operand ``t``
                run = nesting
                while (tok := tokens[pos])[0] in postfix:
                    pos += 1
                    run += 1
                    if run > MAX_NESTING:
                        raise tz.error(_TOO_NESTED, tok[2])
                    if t.depth >= MAX_DEPTH:
                        raise tz.error(_TOO_DEEP, tok[2])
                    t = postfix[tok[0]](t)
                kind, value, at = tok
                precedence, right, build = infix.get(kind, _END)
                while (top := stack[-1])[0] > precedence or top[0] == precedence and not right:
                    _, levels, make, first, first_depth, made_at = stack.pop()
                    if (max(first_depth, t.depth) >= MAX_DEPTH
                            or (t := make(first, t)).depth > MAX_DEPTH):
                        raise tz.error(_TOO_DEEP, made_at)
                    nesting -= levels
                if build is not None:
                    stack.append((precedence, right, build, t, t.depth, at))
                    nesting += right
                    if nesting > MAX_NESTING:
                        raise tz.error(_TOO_NESTED, at)
                    pos += 1
                    break
                if top[0] < 0:
                    tz.pos = pos
                    return t
                if kind != ")":
                    raise tz.error(f"expected ')', found {_found(tok)}", at, (")",))
                stack.pop()
                nesting -= 1
                pos += 1


_PREFIX = float("inf")  # the precedence of a pending prefix operator
_END = (0, True, None)  # the entry of a token that is no infix operator
_TOO_NESTED = f"nesting deeper than {MAX_NESTING} levels"
_TOO_DEEP = f"syntax tree deeper than {MAX_DEPTH} levels"


def _bound_depth(depth, what):
    """Raise :class:`ParseError` when ``depth`` exceeds :data:`MAX_DEPTH`."""
    if depth > MAX_DEPTH:
        raise ParseError(f"{what} deeper than {MAX_DEPTH} levels")


class _Parser(NestingParser):
    ATOMS = {"one": lambda _: ONE, "ident": Var}
    PREFIX = {"-": lambda _, t: Cmpl(t)}
    POSTFIX = {"^": Conv}
    INFIX = {"|": (1, False, Union), "&": (2, False, Inter), ";": (3, False, Comp)}
    STARTS = ("ident", "1", "(", "-")
    WHAT = "term"


def parse_term(text):
    """Parse ``text`` into a :class:`RelTerm`.

    Raises :class:`ParseError` with the byte offset of the failure and the
    token kinds that would have been accepted there.
    """
    return _Parser(_Tokenizer(text)).parse()


def render_term(t, memo=None):
    """Canonical fully-parenthesized text for ``t``, inverse of parse_term.  Each
    distinct subterm is rendered once per call, or once over a given ``memo``.
    A unary operand is in parentheses where it must be, as in "-(-1)",
    "-(r^)" and "(-r)^"."""
    if memo is None:
        memo = {}
    for u in post_order(t, memo):
        cls = type(u)
        if cls in _INFIX:
            memo[u] = f"({memo[u.left]}{_INFIX[cls]}{memo[u.right]})"
        elif cls in _BRACKETED:
            text = memo[u.arg]
            if type(u.arg) in _BRACKETED[cls]:
                text = f"({text})"
            memo[u] = "-" + text if cls is Cmpl else text + "^"
        elif cls is One or cls is Var:
            memo[u] = "1" if cls is One else u.name
        else:
            raise TypeError(f"not a relational term: {u!r}")
    return memo[t]


_INFIX = {Union: " | ", Inter: " & ", Comp: " ; "}
_BRACKETED = {Cmpl: (Cmpl, Conv), Conv: (Cmpl,)}  # a unary term's bracketed operands


def term_size(t):
    """Number of nodes in the syntax tree."""
    return t.size


def term_variables(t):
    """Names of the relational variables occurring in ``t``, sorted.  Each
    distinct subterm is visited once."""
    names, seen, stack = set(), set(), [t]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            cls = type(t)
            if cls is Var:
                names.add(t.name)
            elif cls in _INFIX:
                stack += t.right, t.left
            elif cls is not One:
                stack.append(t.arg)
    return sorted(names)


def simplify_ones(t):
    """Eliminate redundant occurrences of the constant ``1`` from ``t``.

    Applies, inside-out and to fixpoint, the identities

        (1|P) = (P|1) = 1       (-1|P) = (P|-1) = P
        (1&P) = (P&1) = P       (-1&P) = (P&-1) = -1
        -(-1) = 1

    The result is semantically equivalent to ``t`` and every Boolean
    subterm of it is 1, -1, or free of 1.  A term that is its own result
    (its ``simple`` attribute) is returned at once; otherwise each
    distinct subterm is simplified once.
    """
    if t.simple:
        return t
    memo, stack = {}, [t]
    while stack:
        u = stack.pop()
        if u.simple or u in memo:
            continue
        cls = type(u)
        if cls in _INFIX:
            l, r = u.left, u.right
            l2 = l if l.simple else memo.get(l)
            r2 = r if r.simple else memo.get(r)
            if l2 is None or r2 is None:
                stack += u, r, l
                continue
            if cls is Union:
                out = (ONE if l2 is ONE or r2 is ONE else r2 if l2 is CMPL_ONE
                       else l2 if r2 is CMPL_ONE else Union(l2, r2))
            elif cls is Inter:
                out = (CMPL_ONE if l2 is CMPL_ONE or r2 is CMPL_ONE else r2 if l2 is ONE
                       else l2 if r2 is ONE else Inter(l2, r2))
            else:
                out = Comp(l2, r2)
        else:
            a = u.arg
            a2 = a if a.simple else memo.get(a)
            if a2 is None:
                stack += u, a
                continue
            out = ONE if a2 is CMPL_ONE and cls is Cmpl else cls(a2)
        memo[u] = out
    return memo[t]


def is_boolean(t):
    """True iff ``t`` uses only complement, union and intersection."""
    return t.boolean


def nf_cmpl(t):
    """Complement normal form of a Boolean term.

    Pushes complements inward through the De Morgan laws and cancels
    double complements, so that every complement in the result wraps a
    variable or the constant.  Semantically equivalent to ``t``.
    Raises :class:`NotBoolean` if ``t`` contains composition or converse.
    """
    memo, stack = {}, [(t, True)]  # (u, False) stands for -u
    while stack:
        key = stack.pop()
        u, positive = key
        if key in memo:
            continue
        cls = type(u)
        if positive and u.boolean and u.cnf:
            memo[key] = u
        elif cls is Cmpl:
            inner = (u.arg, not positive)
            if inner in memo:
                memo[key] = memo[inner]
            else:
                stack += key, inner
        elif cls is Var or cls is One:
            memo[key] = Cmpl(u)
        elif cls is Union or cls is Inter:
            l, r = (u.left, positive), (u.right, positive)
            if l in memo and r in memo:
                memo[key] = (cls if positive else _DUAL[cls])(memo[l], memo[r])
            else:
                stack += key, r, l
        else:
            raise NotBoolean(f"term contains a non-Boolean operator: {render_term(u)}")
    return memo[t, True]


_DUAL = {Union: Inter, Inter: Union}


def components(t):
    """The set of components of ``t``: every term a decomposition of ``t``
    can mention.  Always finite and contains ``t`` itself."""
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if t in out:
            continue
        out.add(t)
        cls = type(t)
        if cls is Cmpl:
            a = t.arg
            cls = type(a)
            if cls in _INFIX:
                stack += Cmpl(a.right), Cmpl(a.left)
            elif cls is Cmpl:
                stack.append(a.arg)
            elif cls is Conv:
                stack.append(Cmpl(a.arg))
        elif cls in _INFIX:
            stack += t.right, t.left
        elif cls is Conv:
            stack.append(t.arg)
    return out


class FragmentVerdict(namedtuple("FragmentVerdict", "accepted offender clause",
                                 defaults=(None, None))):
    __slots__ = ()

    def __bool__(self):
        return self.accepted


_ACCEPT = FragmentVerdict(True)


def fragment_check(t):
    """Decide membership of ``t`` in the decidable fragment.

    The fragment is closed under complement, union and intersection, and
    admits a composition ``(L ; S)`` only when ``L`` is the constant 1 or
    a complement- and 1-free Boolean term, and ``S`` is either 1 or a term
    in which 1 occurs only as the right operand of such compositions.
    Converse is never allowed.  ``t`` is expected to have been passed
    through :func:`simplify_ones` first.

    Returns a :class:`FragmentVerdict`; rejections carry the offending
    subterm and the violated clause.  The answer is the term's
    ``fragment`` attribute; only a rejection walks the term, down the
    first rejected part at each node, to name the offender.
    """
    if t.fragment:
        return _ACCEPT
    inside = False  # inside a composition's right operand
    while True:
        match t:
            case One():
                return FragmentVerdict(
                    False, t,
                    "inside a composition's right operand, 1 may occur only as "
                    "the right operand of a composition with a Boolean left operand",
                )
            case Conv():
                return FragmentVerdict(False, t, "converse is not allowed in the fragment")
            case Cmpl(a):
                t = a
            case Union(l, r) | Inter(l, r):
                t = r if (l.fragment_inside if inside else l.fragment) else l
            case Comp(l, r):
                if inside and not l.plain:
                    return FragmentVerdict(
                        False, l,
                        "inside a composition's right operand, every composition "
                        "must have a complement- and 1-free Boolean left operand",
                    )
                if not (isinstance(l, One) or l.plain):
                    return FragmentVerdict(
                        False, l,
                        "left operand of ';' must be 1 or a complement- and 1-free Boolean term",
                    )
                t, inside = r, True


def require_fragment(t):
    """Raise :class:`FragmentViolation` unless ``t`` passes fragment_check."""
    verdict = fragment_check(t)
    if not verdict:
        raise FragmentViolation(
            f"{verdict.clause}: {render_term(verdict.offender)}", verdict.offender
        )
    return t
