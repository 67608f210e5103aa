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
behind parse_formula and format_formula also parses and prints the game
algebra's terms.
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


class Top(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)


class And(Formula):
    __slots__ = ("left", "right")


TOP = Top()
FALSUM = Not(TOP)


class Box(Formula, instants=frozenset(), scope=TOP):
    __slots__ = ("player", "instants", "scope")


def lor(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def atoms(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g, _ in _walk(f) if isinstance(g, Atom))


# -- parsing and printing -------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, expected: Iterable[str] = ()):
        self.pos = pos
        self.expected = tuple(sorted(expected))
        hint = f"; expected one of {', '.join(self.expected)}" if self.expected else ""
        super().__init__(f"{message} at position {pos}{hint}")


# the printer and the evaluator recurse once or twice per level, so deeper
# trees would exhaust the interpreter's stack after parsing
MAX_NESTING = 200


def _walk(tree: Record):
    """Every record in tree with its level, the root at 0; each field holding
    a record, or a frozenset of records, leads one level down."""
    stack = [(tree, 0)]
    while stack:
        node, level = stack.pop()
        yield node, level
        for name in node.__slots__:
            value = getattr(node, name)
            for child in value if isinstance(value, frozenset) else (value,):
                if isinstance(child, Record):
                    stack.append((child, level + 1))


def _nesting(tree: Record) -> int:
    """Levels on the longest path from the root to a leaf."""
    return max(level for _, level in _walk(tree))


_IDENT = "[A-Za-z_][A-Za-z0-9_]*"
_LEAF = float("inf")  # a leaf never needs parentheses


class _Parser:
    """Precedence climbing over one grammar's operator tables, and printing.

    A grammar sets BINARY, symbol -> (build, strength, right associative)
    with 1 the loosest strength; PREFIX, symbol -> (build, strength);
    PUNCTUATION, its other symbols; OPENS, symbol -> the method reading the
    atom it opens; STARTS, the words that start an atom, as errors name them;
    leaf, which builds an identifier's tree; Error, its ParseError class; and
    NOUN, what it parses.  An identifier that spells a symbol is that symbol.
    A build that is a class prints with its symbol; any other tree that
    printed() does not take is a leaf, printed as its name.
    """

    PUNCTUATION = STARTS = ()
    OPENS: dict = {}

    def __init_subclass__(cls):
        cls.SYMBOLS = {*cls.BINARY, *cls.PREFIX, *cls.PUNCTUATION, "(", ")"}
        cls.TIGHTEST = max(lv for _, lv, _ in cls.BINARY.values())
        cls.PRINTS = {build: (s, lv, right) for s, (build, lv, right) in cls.BINARY.items()}
        cls.PRINTS.update((build, (s, lv, None)) for s, (build, lv) in cls.PREFIX.items())
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

    def expression(self, at_least: int = 1, tree=None):
        """The longest expression whose binary operators bind at least this
        tightly, continuing from its first operand when that is given."""
        tree = self.unary() if tree is None else tree
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
        # an operand binding tighter than every binary operator is a unary; reading
        # it so saves a frame a level, keeping MAX_NESTING chains inside the stack
        return build(self.unary() if strength > self.TIGHTEST else self.expression(strength))

    def atom(self):
        kind, val, _pos = self.peek()
        if val in self.OPENS:
            return self.OPENS[val](self)
        if val == "(":
            # a run of parentheses adds no level, so it takes no frame a pair:
            # each closed group is the first operand of the group around it
            first = self.i
            while self.peek()[1] == "(":
                self.i += 1
            tree = None
            for _ in range(self.i - first):
                tree = self.expression(1, tree)
                self.expect(")")
            return tree
        if kind == "ident":
            self.i += 1
            return self.leaf(val)
        starts = [*map(repr, [*self.PREFIX, *self.OPENS]), *self.STARTS]
        raise self.unexpected(["identifier", "'('", *starts])

    @classmethod
    def format(cls, tree, at_least: int = 1) -> str:
        """tree's text, in parentheses unless it binds at least this tightly."""
        text, strength = cls.printed(tree)
        return f"({text})" if strength < at_least else text

    @classmethod
    def printed(cls, tree):
        """tree's text and the strength of its outermost operator."""
        op = cls.PRINTS.get(type(tree))
        if op is None:
            return tree.name, _LEAF
        sym, strength, right = op
        if right is None:
            return sym + cls.format(tree.sub, strength), strength
        # the operand on the side the operator associates to may be its own
        at_left, at_right = (strength + 1, strength) if right else (strength, strength + 1)
        text = f"{cls.format(tree.left, at_left)} {sym} {cls.format(tree.right, at_right)}"
        return text, strength


_LV_IMP, _LV_OR, _LV_AND, _LV_UNARY = 1, 2, 3, 4


class _FormulaParser(_Parser):
    BINARY = {
        "->": (implies, _LV_IMP, True),
        "|": (lor, _LV_OR, False),
        "&": (And, _LV_AND, False),
    }
    PREFIX = {"!": (Not, _LV_UNARY)}
    PUNCTUATION = ("[", "]", ",", ";")
    STARTS = ("'true'", "'false'")
    Error = ParseError
    NOUN = "formula"

    @staticmethod
    def leaf(name: str) -> Formula:
        return TOP if name == "true" else FALSUM if name == "false" else Atom(name)

    def box(self) -> Formula:
        self.i += 1
        player = self.peek()[1]
        if player not in ("A", "B"):
            raise self.unexpected(["'A'", "'B'"])
        player = Player(player)
        self.i += 1
        self.expect("]")
        if self.peek()[1] != "(":
            return Box(player, frozenset(), self.unary())
        # a scope in parentheses or the side formulas: ";" opens the side
        # formulas, else the token after the first formula decides
        self.i += 1
        insts = []
        if self.peek()[1] != ";":
            insts.append(self.expression())
            after = self.peek()[1]
            if after == ")":
                self.i += 1
                return Box(player, frozenset(), insts[0])
            if after not in (",", ";"):
                raise self.unexpected(["')'", "','", "';'"])
            while self.peek()[1] == ",":
                self.i += 1
                insts.append(self.expression())
        self.expect(";")
        scope = self.expression()
        self.expect(")")
        return Box(player, frozenset(insts), scope)

    OPENS = {"[": box}

    @classmethod
    def printed(cls, f: Formula):
        if isinstance(f, Top):
            return "true", _LEAF
        if isinstance(f, Not) and isinstance(f.sub, Top):
            return "false", _LEAF
        if isinstance(f, Box):
            head = f"[{f.player.value}]"
            if not f.instants:
                return head + cls.format(f.scope, _LV_UNARY), _LV_UNARY
            side = ", ".join(sorted(map(cls.format, f.instants)))
            return f"{head}({side}; {cls.format(f.scope)})", _LV_UNARY
        return super().printed(f)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax; reject formulas nested deeper than MAX_NESTING.

    Nesting is counted on the normalized tree, where ``|``, ``->`` and
    ``false`` stand for their expansions into ``!`` and ``&``.
    """
    return _FormulaParser.parse(text)


def format_formula(f: Formula) -> str:
    try:
        return _FormulaParser.format(f)
    except RecursionError:
        raise ValueError(f"formula nested more than {MAX_NESTING} levels deep") from None


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
