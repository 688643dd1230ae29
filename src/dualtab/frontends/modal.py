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
``a <-> b`` as ``(a -> b) & (b -> a)``) by their entries in the
parser's operator table.  Negations, modalities, parentheses and
right-nested implications together may nest at most
:data:`~dualtab.terms.MAX_NESTING` deep.  A formula (programs included)
and its translation may be at most :data:`~dualtab.terms.MAX_DEPTH`
levels deep, flat chains included.  Deeper input is a :class:`ParseError`.
"""

from __future__ import annotations

from ..errors import ParseError
from ..terms import (_IDENT_RE, _INTERNED, PARTS, Cmpl, Comp, ONE, NestingParser,
                     TokenStream, Union as TUnion, Inter as TInter, Var, _Ref,
                     _bound_depth, _drop, parse_term, render_term,
                     post_order, require_fragment, simplify_ones, term_variables)


class _Formula:
    """Base of the modal syntax classes, interned as terms are and in the
    terms' table: ``==`` and hashing are identity, and ``depth``, the
    levels of the syntax tree, is set from the parts once, at interning."""

    __slots__ = ("depth", "__weakref__")

    def __new__(cls, *parts):
        key = (cls, *parts)
        ref = _INTERNED.get(key)
        f = None if ref is None else ref()
        if f is None:
            if len(parts) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes the parts {cls.__match_args__}")
            f = object.__new__(cls)
            for name, value in zip(cls.__match_args__, parts):
                setattr(f, name, value)
            f.depth = 1 + max(getattr(p, "depth", 0) for p in parts)
            _INTERNED[key] = ref = _Ref(f, _drop)
            ref.key = key
        return f

    def __reduce__(self):  # copies and unpickled formulas are interned too
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self):
        return render_modal(self)


class Prop(_Formula):
    __slots__ = __match_args__ = ("name",)


class Not(_Formula):
    __slots__ = __match_args__ = ("arg",)


class And(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Or(_Formula):
    __slots__ = __match_args__ = ("left", "right")


class Box(_Formula):
    __slots__ = __match_args__ = ("program", "arg")


class Dia(_Formula):
    __slots__ = __match_args__ = ("program", "arg")


ModalFormula = Prop | Not | And | Or | Box | Dia
PARTS.update({Prop: PARTS[Var], Not: PARTS[Cmpl], And: PARTS[TUnion], Or: PARTS[TUnion],
              Box: PARTS[Cmpl], Dia: PARTS[Cmpl]})


def render_modal(f, memo=None):
    """Text of ``f`` that :func:`parse_modal` reads back as ``f``.  Each distinct
    subformula is rendered once per call, or once over a given ``memo``."""
    if memo is None:
        memo = {}
    for g in post_order(f, memo):
        cls = type(g)
        if cls is Prop:
            memo[g] = g.name
        elif cls is And or cls is Or:
            memo[g] = f"({memo[g.left]}{' & ' if cls is And else ' | '}{memo[g.right]})"
        elif cls is Not:
            memo[g] = "~" + memo[g.arg]
        else:
            modality = "[{}]" if cls is Box else "<{}>"
            memo[g] = modality.format(render_term(g.program)) + memo[g.arg]
    return memo[f]


def subformulas(f):
    """Each distinct subformula of ``f`` with how often the distinct
    subformulas hold it as a part (``f`` itself: never).  ``<->`` shares its
    operands, so there can be far fewer of them than syntax-tree nodes."""
    found, stack = {f: 0}, [f]
    while stack:
        g = stack.pop()
        for p in PARTS[type(g)](g):
            found[p] = found.get(p, 0) + 1
            if found[p] == 1:
                stack.append(p)
    return found


def propositions_of(subs):
    """Proposition names in the :func:`subformulas` table ``subs``, sorted."""
    return sorted({g.name for g in subs if isinstance(g, Prop)})


def accessibility_of(subs):
    """Accessibility variable names in the programs of the
    :func:`subformulas` table ``subs``, sorted."""
    return sorted({name for g in subs if isinstance(g, (Box, Dia))
                   for name in term_variables(g.program)})


class _ModalTokenizer(TokenStream):
    def __init__(self, text):
        self.programs = {}  # each program text that passed both checks: its term
        super().__init__(text)

    def token(self, text, i):
        c = text[i]
        if c in "~&|()":
            return c, c, i + 1
        for op in ("<->", "->"):
            if text.startswith(op, i):
                return op, op, i + len(op)
        if c in "[<":
            return self._program(text, i)
        m = _IDENT_RE.match(text, i)
        if not m:
            raise self.error(f"unexpected character {c!r}", i, _ModalParser.STARTS)
        return "ident", m.group(), m.end()

    def _program(self, text, i):
        """The box or diamond token whose program starts at ``i``.  A
        program text that passed is not parsed again in the same input."""
        closer, kind = ("]", "box") if text[i] == "[" else (">", "dia")
        end = text.find(closer, i + 1)
        if end < 0:
            raise self.error(f"missing {closer!r} for modality", i, (closer,))
        body = text[i + 1:end]
        program = self.programs.get(body)
        if program is not None:
            return kind, program, end + 1
        try:
            program = parse_term(body)
        except ParseError as exc:
            # a POSIX argv decodes an undecodable byte to a lone surrogate
            at = i + 1 + len(body.encode("utf-8", "surrogatepass")[:exc.offset]
                             .decode("utf-8", "surrogatepass"))
            raise self.error(f"bad program term: {exc.message}", at, exc.expected) from None
        if not program.plain:
            raise self.error("modality programs must be complement- and 1-free Boolean terms",
                             i, ("plain Boolean program",))
        self.programs[body] = program
        return kind, program, end + 1


class _ModalParser(NestingParser):
    ATOMS = {"ident": Prop}
    PREFIX = {"~": lambda _, f: Not(f), "box": Box, "dia": Dia}
    INFIX = {"<->": (1, False, lambda f, g: And(Or(Not(f), g), Or(Not(g), f))),
             "->": (2, True, lambda f, g: Or(Not(f), g)),
             "|": (3, False, Or), "&": (4, False, And)}
    STARTS = ("ident", "~", "(", "[", "<")
    WHAT = "formula"


def parse_modal(text):
    """Parse modal input text; implication and biconditional are desugared."""
    return _ModalParser(_ModalTokenizer(text)).parse()


def translate_modal(f):
    """Relational image of ``f``: propositions as right-ideal relations,
    diamonds as compositions, boxes as their complemented duals.

    The result always lies in the prover's fragment; this is asserted.
    ``f`` or an image deeper than ``MAX_DEPTH`` is a :class:`ParseError`.
    Each distinct subformula is translated once.
    """
    _bound_depth(f.depth, "modal formula")
    term = _translate(f, {})
    _bound_depth(term.depth, "translated term")
    return require_fragment(simplify_ones(term))


def _translate(f, memo):
    """The relational image of ``f``, each subformula's put in ``memo``
    after its parts'."""
    for g in post_order(f, memo):
        cls = type(g)
        if cls is Prop:
            memo[g] = Comp(Var(g.name), ONE)
        elif cls is And or cls is Or:
            memo[g] = (TInter if cls is And else TUnion)(memo[g.left], memo[g.right])
        elif cls is Not:
            memo[g] = Cmpl(memo[g.arg])
        elif cls is Dia:
            memo[g] = Comp(g.program, memo[g.arg])
        else:
            memo[g] = Cmpl(Comp(g.program, Cmpl(memo[g.arg])))
    return memo[f]
