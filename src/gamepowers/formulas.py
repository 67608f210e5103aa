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
associates to the right; parentheses group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random
from typing import Iterable

from .games import Player


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    player: Player
    instants: frozenset[Formula] = field(default_factory=frozenset)
    scope: Formula = field(default_factory=Top)


TOP = Top()
FALSUM = Not(TOP)


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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[()\[\],;&|!]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if val != value:
            raise ParseError(
                f"unexpected {val!r}" if kind != "end" else "unexpected end of input",
                pos,
                [repr(value)],
            )
        return self.advance()

    def parse(self) -> Formula:
        f = self.implication()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos, ["end of input"])
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[1] == "->":
            self.advance()
            return implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[1] == "|":
            self.advance()
            f = lor(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "!":
            self.advance()
            sub = self.unary()
            return Not(sub)
        if val == "[":
            return self.box()
        return self.primary()

    def box(self) -> Formula:
        self.expect("[")
        kind, val, pos = self.peek()
        if val not in ("A", "B"):
            raise ParseError(
                f"unexpected {val!r}" if kind != "end" else "unexpected end of input",
                pos,
                ["'A'", "'B'"],
            )
        player = Player(self.advance()[1])
        self.expect("]")
        if self.peek()[1] == "(" and self._group_is_instantial():
            self.expect("(")
            insts = []
            if self.peek()[1] != ";":
                insts.append(self.implication())
                while self.peek()[1] == ",":
                    self.advance()
                    insts.append(self.implication())
            self.expect(";")
            scope = self.implication()
            self.expect(")")
            return Box(player, frozenset(insts), scope)
        return Box(player, frozenset(), self.unary())

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

    def primary(self) -> Formula:
        kind, val, pos = self.peek()
        if val == "(":
            self.advance()
            f = self.implication()
            self.expect(")")
            return f
        if kind == "ident":
            self.advance()
            if val == "true":
                return TOP
            if val == "false":
                return FALSUM
            return Atom(val)
        raise ParseError(
            f"unexpected {val!r}" if kind != "end" else "unexpected end of input",
            pos,
            ["identifier", "'true'", "'false'", "'('", "'!'", "'['"],
        )


# the printer and the evaluator recurse once or twice per level, so deeper
# formulas would exhaust the interpreter's stack after parsing
MAX_NESTING = 200


def _nesting(f: Formula) -> int:
    """Connectives on the longest path from the root to an atom or truth."""
    deepest = 0
    stack = [(f, 0)]
    while stack:
        g, level = stack.pop()
        deepest = max(deepest, level)
        if isinstance(g, Not):
            stack.append((g.sub, level + 1))
        elif isinstance(g, And):
            stack += [(g.left, level + 1), (g.right, level + 1)]
        elif isinstance(g, Box):
            stack += [(h, level + 1) for h in (g.scope, *g.instants)]
    return deepest


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax; reject formulas nested deeper than MAX_NESTING.

    Nesting is counted on the normalized tree, where ``|``, ``->`` and
    ``false`` stand for their expansions into ``!`` and ``&``.
    """
    try:
        f = _Parser(text).parse()
        too_deep = _nesting(f) > MAX_NESTING
    except RecursionError:
        too_deep = True
    if too_deep:
        raise ParseError(f"formula nested more than {MAX_NESTING} levels deep", 0)
    return f


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
