"""Multi-modal propositional language with compound accessibility programs,
and its translation into the relational fragment.

Modalities are indexed by *programs*: complement- and 1-free Boolean
terms over accessibility variables, interpreted as the union or
intersection of the component relations.  Propositions become right-ideal
relations ``(p ; 1)``, diamonds become compositions, boxes their duals;
the image of every well-formed formula lands inside the fragment the
prover decides.

Text grammar::

    formula := iff
    iff     := imp ('<->' imp)*
    imp     := disj ('->' imp)?
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '~' unary | '[' PROGRAM ']' unary | '<' PROGRAM '>' unary | atom
    atom    := IDENT | '(' formula ')'

``->`` and ``<->`` are desugared at parse time (``a -> b`` as ``~a | b``,
``a <-> b`` as ``(a -> b) & (b -> a)``).  Negations, modalities,
parentheses and right-nested implications together may nest at most
:data:`~dualtab.terms.MAX_NESTING` deep.  A formula (programs included)
and its translation may be at most :data:`~dualtab.terms.MAX_DEPTH`
levels deep, flat chains included.  Deeper input is a :class:`ParseError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError
from ..terms import (_IDENT_RE, Cmpl, Comp, ONE, NestingParser, RelTerm,
                     TokenStream, Union as TUnion, Inter as TInter, Var,
                     _bound_depth, _byte_offset, parse_term, render_term,
                     require_fragment, simplify_ones, term_variables)


class _Formula:
    """Base of the modal syntax classes: ``depth``, the levels of the
    syntax tree, is set from the parts as each node is built."""

    __slots__ = ("depth",)

    def __post_init__(self):
        parts = (getattr(self, name) for name in self.__match_args__)
        object.__setattr__(self, "depth", 1 + max(getattr(p, "depth", 0) for p in parts))

    def __repr__(self):
        return render_modal(self)


@dataclass(frozen=True, slots=True, repr=False)
class Prop(_Formula):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Not(_Formula):
    arg: "ModalFormula"


@dataclass(frozen=True, slots=True, repr=False)
class And(_Formula):
    left: "ModalFormula"
    right: "ModalFormula"


@dataclass(frozen=True, slots=True, repr=False)
class Or(_Formula):
    left: "ModalFormula"
    right: "ModalFormula"


@dataclass(frozen=True, slots=True, repr=False)
class Box(_Formula):
    program: RelTerm
    arg: "ModalFormula"


@dataclass(frozen=True, slots=True, repr=False)
class Dia(_Formula):
    program: RelTerm
    arg: "ModalFormula"


ModalFormula = Prop | Not | And | Or | Box | Dia


def render_modal(f):
    match f:
        case Prop(name):
            return name
        case Not(a):
            return "~" + render_modal(a)
        case And(l, r):
            return f"({render_modal(l)} & {render_modal(r)})"
        case Or(l, r):
            return f"({render_modal(l)} | {render_modal(r)})"
        case Box(prog, a):
            return f"[{render_term(prog)}]{render_modal(a)}"
        case Dia(prog, a):
            return f"<{render_term(prog)}>{render_modal(a)}"


def subformulas(f):
    """The distinct subformula objects of ``f``, by id, each with how many
    distinct objects of ``f`` hold it (``f`` itself: none).  ``<->`` shares
    its operands, so a formula can hold far fewer objects than its syntax
    tree has nodes."""
    found, stack = {id(f): [f, 0]}, [f]
    while stack:
        match stack.pop():
            case Not(a) | Box(_, a) | Dia(_, a):
                parts = (a,)
            case And(l, r) | Or(l, r):
                parts = (l, r)
            case _:
                parts = ()
        for p in parts:  # ``f`` keeps ``p`` alive, so its id is its own
            entry = found.setdefault(id(p), [p, 0])
            entry[1] += 1
            if entry[1] == 1:
                stack.append(p)
    return found


def propositions_of(subs):
    """Proposition names in the :func:`subformulas` table ``subs``, sorted."""
    return sorted({g.name for g, _ in subs.values() if isinstance(g, Prop)})


def accessibility_of(subs):
    """Accessibility variable names in the programs of the
    :func:`subformulas` table ``subs``, sorted."""
    return sorted({name for g, _ in subs.values() if isinstance(g, (Box, Dia))
                   for name in term_variables(g.program)})


class _ModalTokenizer(TokenStream):
    def __init__(self, text):
        super().__init__()
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            off = _byte_offset(text, i)
            if text.startswith("<->", i):
                self.tokens.append(("<->", "<->", off))
                i += 3
            elif text.startswith("->", i):
                self.tokens.append(("->", "->", off))
                i += 2
            elif c in "~&|()":
                self.tokens.append((c, c, off))
                i += 1
            elif c == "[":
                i = self._program(text, i, "]", "box", off)
            elif c == "<":
                i = self._program(text, i, ">", "dia", off)
            else:
                m = _IDENT_RE.match(text, i)
                if not m:
                    raise ParseError(
                        f"unexpected character {text[i]!r}", off,
                        expected=("ident", "~", "(", "[", "<"),
                    )
                self.tokens.append(("ident", m.group(), off))
                i = m.end()
        self.tokens.append(("eof", "", _byte_offset(text, n)))

    def _program(self, text, i, closer, kind, off):
        end = text.find(closer, i + 1)
        if end < 0:
            raise ParseError(f"missing {closer!r} for modality", off, expected=(closer,))
        body = text[i + 1:end]
        try:
            program = parse_term(body)
        except ParseError as exc:
            raise ParseError(
                f"bad program term: {exc.args[0]}",
                _byte_offset(text, i + 1) + exc.offset,
                expected=exc.expected,
            ) from None
        if not program.plain:
            raise ParseError(
                "modality programs must be complement- and 1-free Boolean terms",
                off,
                expected=("plain Boolean program",),
            )
        self.tokens.append((kind, program, off))
        return end + 1


class _ModalParser(NestingParser):
    def parse(self):
        f = self.iff()
        tok = self.tz.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2],
                             expected=("&", "|", "->", "<->", "eof"))
        return f

    def iff(self):
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
        f = self.conj()
        while self.tz.peek()[0] == "|":
            f = self.node(Or, self.tz.next(), f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.tz.peek()[0] == "&":
            f = self.node(And, self.tz.next(), f, self.unary())
        return f

    def unary(self):
        tok = self.tz.peek()
        if tok[0] not in ("~", "box", "dia"):
            return self.atom()
        self.nest(self.tz.next())
        f = self.unary()
        self.depth -= 1
        if tok[0] == "~":
            return self.node(Not, tok, f)
        return self.node(Box if tok[0] == "box" else Dia, tok, tok[1], f)

    def atom(self):
        tok = self.tz.peek()
        if tok[0] == "ident":
            self.tz.next()
            return Prop(tok[1])
        if tok[0] == "(":
            self.nest(self.tz.next())
            f = self.iff()
            self.tz.expect(")", expected=(")",))
            self.depth -= 1
            return f
        raise ParseError(
            f"expected a formula, found {tok[1]!r}" if tok[0] != "eof"
            else "expected a formula, found end of input",
            tok[2], expected=("ident", "~", "(", "[", "<"),
        )


def parse_modal(text):
    """Parse modal input text; implication and biconditional are desugared."""
    return _ModalParser(_ModalTokenizer(text)).parse()


def translate_modal(f):
    """Relational image of ``f``: propositions as right-ideal relations,
    diamonds as compositions, boxes as their complemented duals.

    The result always lies in the prover's fragment; this is asserted.
    ``f`` or an image deeper than ``MAX_DEPTH`` is a :class:`ParseError`.
    Each distinct subformula object is translated once.
    """
    _bound_depth(f.depth, "modal formula")
    term = _translate(f, {})
    _bound_depth(term.depth, "translated term")
    return require_fragment(simplify_ones(term))


def _translate(f, memo):
    # ``memo`` maps id(g) to the image of each subformula ``g`` translated
    # so far; the formula keeps ``g`` alive.  Keys are ids because a
    # formula hashes its whole tree, and ``<->`` shares its operands.
    term = memo.get(id(f))
    if term is None:
        match f:
            case Prop(name):
                term = Comp(Var(name), ONE)
            case Not(a):
                term = Cmpl(_translate(a, memo))
            case And(l, r):
                term = TInter(_translate(l, memo), _translate(r, memo))
            case Or(l, r):
                term = TUnion(_translate(l, memo), _translate(r, memo))
            case Dia(prog, a):
                term = Comp(prog, _translate(a, memo))
            case Box(prog, a):
                term = Cmpl(Comp(prog, Cmpl(_translate(a, memo))))
        memo[id(f)] = term
    return term
