"""Modal formulas with instantial box operators: AST, parser, printer.

Core connectives are atoms, truth, negation, conjunction and the two box
operators carrying a finite set of side formulas.  Disjunction, implication
and falsity are derived forms and normalize away at construction time, so
``[A](;true)`` and ``[A]true`` denote one and the same tree.

Concrete syntax::

    phi ::= IDENT | "true" | "false" | "!" phi | phi "&" phi
          | phi "|" phi | phi "->" phi
          | "[" ("A"|"B") "]" ( "(" [phi ("," phi)*] ";" phi ")" | phi )

``!`` and boxes bind tightest, then ``&``, then ``|``, then ``->`` which
associates to the right; parentheses group.  The precedence-climbing engine
behind parse_formula also parses the game algebra's terms.
"""

from __future__ import annotations

import re
from random import Random
from typing import Iterable

from .games import Player, Record


class Formula(Record):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Top(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        object.__setattr__(self, "sub", sub)


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


TOP = Top()
FALSUM = Not(TOP)


class Box(Formula):
    __slots__ = ("player", "instants", "scope")

    def __init__(self, player: Player, instants=frozenset(), scope: Formula = TOP):
        object.__setattr__(self, "player", player)
        object.__setattr__(self, "instants", instants)
        object.__setattr__(self, "scope", scope)


def lor(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def atoms(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, Top):
        return frozenset()
    if isinstance(f, Not):
        return atoms(f.sub)
    if isinstance(f, And):
        return atoms(f.left) | atoms(f.right)
    if isinstance(f, Box):
        out = atoms(f.scope)
        for g in f.instants:
            out |= atoms(g)
        return out
    raise TypeError(f"not a formula: {f!r}")


# -- printing -----------------------------------------------------------------

_LV_IMP, _LV_OR, _LV_AND, _LV_UNARY, _LV_ATOM = 1, 2, 3, 4, 5


def _level(f: Formula) -> int:
    if isinstance(f, (Atom, Top)):
        return _LV_ATOM
    if isinstance(f, Not):
        return _LV_ATOM if f == FALSUM else _LV_UNARY
    if isinstance(f, And):
        return _LV_AND
    return _LV_UNARY  # Box


def _fmt(f: Formula, at_least: int) -> str:
    text = _fmt_node(f)
    if _level(f) < at_least:
        return f"({text})"
    return text


def _fmt_node(f: Formula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Not):
        if f == FALSUM:
            return "false"
        return "!" + _fmt(f.sub, _LV_UNARY)
    if isinstance(f, And):
        # conjunction chains parse left-associated
        return f"{_fmt(f.left, _LV_AND)} & {_fmt(f.right, _LV_UNARY)}"
    if isinstance(f, Box):
        head = f"[{f.player.value}]"
        if not f.instants:
            return head + _fmt(f.scope, _LV_UNARY)
        side = ", ".join(sorted(_fmt(g, _LV_IMP) for g in f.instants))
        return f"{head}({side}; {_fmt(f.scope, _LV_IMP)})"
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    return _fmt(f, _LV_IMP)


# -- parsing ------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected: Iterable[str] = ()):
        self.pos = pos
        self.expected = tuple(sorted(expected))
        hint = f"; expected one of {', '.join(self.expected)}" if self.expected else ""
        super().__init__(f"{message} at position {pos}{hint}")


# the printer and the evaluator recurse once or twice per level, so deeper
# trees would exhaust the interpreter's stack after parsing
MAX_NESTING = 200


def _nesting(tree: Record) -> int:
    """Levels on the longest path from the root to a leaf; each field holding
    a record, or a frozenset of records, leads one level down."""
    deepest = 0
    stack = [(tree, 0)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for name in node.__slots__:
            value = getattr(node, name)
            for child in value if isinstance(value, frozenset) else (value,):
                if isinstance(child, Record):
                    stack.append((child, level + 1))
    return deepest


_IDENT = "[A-Za-z_][A-Za-z0-9_]*"


class _Parser:
    """Precedence climbing over one grammar's operator tables.

    A grammar sets BINARY, symbol -> (build, strength, right associative)
    with 1 the loosest strength; PREFIX, symbol -> (build, strength);
    PUNCTUATION, its symbols besides operators and parentheses; STARTS, what
    its own atom() takes besides identifiers, "(" and prefixes, as errors
    name it; leaf, which builds an identifier's tree; Error, its ParseError
    class; and NOUN, what it parses.  An identifier that spells a symbol is
    that symbol.
    """

    PUNCTUATION = STARTS = ()

    def __init_subclass__(cls):
        cls.SYMBOLS = {*cls.BINARY, *cls.PREFIX, *cls.PUNCTUATION, "(", ")"}
        marks = sorted(
            (s for s in cls.SYMBOLS if not re.fullmatch(_IDENT, s)), key=len, reverse=True
        )
        cls.TOKEN = re.compile(
            rf"\s*(?:(?P<ident>{_IDENT})|(?P<sym>{'|'.join(map(re.escape, marks))}))"
        )

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self.TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped)
                raise self.Error(f"unexpected character {text[bad_at]!r}", bad_at)
            val = m.group(m.lastgroup)
            kind = "sym" if val in self.SYMBOLS else "ident"
            self.tokens.append((kind, val, m.start(m.lastgroup)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    @classmethod
    def parse(cls, text: str):
        """The tree of text; one nested deeper than MAX_NESTING is an error."""
        try:
            parser = cls(text)
            tree = parser.expression()
            kind, val, pos = parser.peek()
            if kind != "end":
                raise cls.Error(f"trailing input {val!r}", pos, ["end of input"])
            too_deep = _nesting(tree) > MAX_NESTING
        except RecursionError:
            too_deep = True
        if too_deep:
            raise cls.Error(f"{cls.NOUN} nested more than {MAX_NESTING} levels deep", 0)
        return tree

    def peek(self):
        return self.tokens[self.i]

    def unexpected(self, expected: Iterable[str]) -> ParseError:
        kind, val, pos = self.peek()
        what = "unexpected end of input" if kind == "end" else f"unexpected {val!r}"
        return self.Error(what, pos, expected)

    def expect(self, value: str):
        if self.peek()[1] != value:
            raise self.unexpected([repr(value)])
        self.i += 1

    def expression(self, at_least: int = 1):
        """The longest expression whose binary operators bind at least this tightly."""
        tree = self.unary()
        while True:
            op = self.BINARY.get(self.peek()[1])
            if op is None or op[1] < at_least:
                return tree
            build, strength, right = op
            self.i += 1
            tree = build(tree, self.expression(strength if right else strength + 1))

    def unary(self):
        op = self.PREFIX.get(self.peek()[1])
        if op is None:
            return self.atom()
        self.i += 1
        build, strength = op
        return build(self.expression(strength))

    def atom(self):
        kind, val, _pos = self.peek()
        if val == "(":
            self.i += 1
            tree = self.expression()
            self.expect(")")
            return tree
        if kind == "ident":
            self.i += 1
            return self.leaf(val)
        raise self.unexpected(["identifier", "'('", *map(repr, self.PREFIX), *self.STARTS])


class _FormulaParser(_Parser):
    BINARY = {
        "->": (implies, _LV_IMP, True),
        "|": (lor, _LV_OR, False),
        "&": (And, _LV_AND, False),
    }
    PREFIX = {"!": (Not, _LV_UNARY)}
    PUNCTUATION = ("[", "]", ",", ";")
    STARTS = ("'['", "'true'", "'false'")
    Error = ParseError
    NOUN = "formula"

    @staticmethod
    def leaf(name: str) -> Formula:
        return TOP if name == "true" else FALSUM if name == "false" else Atom(name)

    def atom(self) -> Formula:
        if self.peek()[1] == "[":
            return self.box()
        return super().atom()

    def box(self) -> Formula:
        self.i += 1
        player = self.peek()[1]
        if player not in ("A", "B"):
            raise self.unexpected(["'A'", "'B'"])
        self.i += 1
        self.expect("]")
        if self.peek()[1] == "(" and self._group_is_instantial():
            self.i += 1
            insts = []
            if self.peek()[1] != ";":
                insts.append(self.expression())
                while self.peek()[1] == ",":
                    self.i += 1
                    insts.append(self.expression())
            self.expect(";")
            scope = self.expression()
            self.expect(")")
            return Box(Player(player), frozenset(insts), scope)
        return Box(Player(player), frozenset(), self.expression(_LV_UNARY))

    def _group_is_instantial(self) -> bool:
        # from the upcoming "(", look for a ";" or "," at nesting depth 1
        depth_ = 0
        for kind, val, _pos in self.tokens[self.i:]:
            if val == "(":
                depth_ += 1
            elif val == ")":
                depth_ -= 1
                if depth_ == 0:
                    return False
            elif val in (";", ",") and depth_ == 1:
                return True
            elif kind == "end":
                return False
        return False


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax; reject formulas nested deeper than MAX_NESTING.

    Nesting is counted on the normalized tree, where ``|``, ``->`` and
    ``false`` stand for their expansions into ``!`` and ``&``.
    """
    return _FormulaParser.parse(text)


# -- random generation ---------------------------------------------------------


def random_formula(
    rng: Random,
    max_depth: int,
    atom_names: tuple[str, ...] = ("p", "q", "r"),
    instantial: bool = True,
) -> Formula:
    """Seeded formula sampler; boxes carry up to two side formulas."""
    if max_depth <= 0:
        roll = rng.random()
        if roll < 0.85:
            return Atom(rng.choice(atom_names))
        return TOP if roll < 0.95 else FALSUM
    kind = rng.choice(["atom", "not", "and", "or", "imp", "box", "box"])
    if kind == "atom":
        return Atom(rng.choice(atom_names))
    if kind == "not":
        return Not(random_formula(rng, max_depth - 1, atom_names, instantial))
    if kind in ("and", "or", "imp"):
        a = random_formula(rng, max_depth - 1, atom_names, instantial)
        b = random_formula(rng, max_depth - 1, atom_names, instantial)
        return {"and": And, "or": lor, "imp": implies}[kind](a, b)
    player = rng.choice([Player.A, Player.B])
    n_inst = rng.choice([0, 1, 2]) if instantial else 0
    insts = frozenset(
        random_formula(rng, max_depth - 1, atom_names, instantial)
        for _ in range(n_inst)
    )
    scope = random_formula(rng, max_depth - 1, atom_names, instantial)
    return Box(player, insts, scope)
