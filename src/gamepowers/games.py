"""Finite two-player games: extensive game trees, strategies, strategic form.

Node addresses are tuples of child indices, the root being the empty tuple.
A tree is any finite, prefix-closed and sibling-downward-closed set of
addresses.  Turn and information-cell data live on internal nodes only;
outcome labels live on leaves.
"""

from __future__ import annotations

import json
from enum import Enum
from itertools import chain, combinations, product
from math import isfinite
from operator import attrgetter
from random import Random
from typing import Any, Callable, Iterable, Mapping

Address = tuple[int, ...]

ROOT: Address = ()


class Record:
    """An immutable value made of the fields its class names in ``__slots__``.

    As frozen dataclasses do, records are equal only within one class, hash
    as the tuple of their fields and print as ``Name(field=value, ...)``.
    Fields are given by position or keyword, defaults by class keyword, as
    in ``class Violation(Record, detail="")``, or a class sets them in its
    own ``__init__`` through ``object.__setattr__``, as it does a lazy cache.
    A class whose identity is not its field tuple defines ``_key(self)``,
    which both equality and hashing read.  Copies and pickles call the class
    on its fields, unless it defines its own ``__reduce__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        names = cls.__slots__
        if len(names) > 1:
            values = attrgetter(*names)
        elif names:
            values = lambda self, get=attrgetter(*names): (get(self),)
        else:
            values = lambda self: ()
        key = vars(cls).get("_key", values)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(key(self))
        if "__reduce__" not in vars(cls):
            cls.__reduce__ = lambda self: (cls, values(self))
        setters = [vars(cls)[name].__set__ for name in names]  # skip our __setattr__

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                given = {**dict(zip(names, args)), **kwargs}  # one entry per argument
                bound = {**defaults, **given}
                if len(given) < len(args) + len(kwargs) or bound.keys() != set(names):
                    raise TypeError(f"{cls.__name__}() takes the fields {names}")
                args = [bound[name] for name in names]
            for set_field, value in zip(setters, args):
                set_field(self, value)

        if "__init__" not in vars(cls):
            cls.__init__ = __init__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Player(Enum):
    A = "A"
    B = "B"

    __hash__ = object.__hash__  # members are singletons, equal only to themselves

    @property
    def dual(self) -> "Player":
        return Player.B if self is Player.A else Player.A

    def __repr__(self):
        return f"Player.{self.value}"


def _as_player(value) -> Player:
    if isinstance(value, Player):
        return value
    return Player(value)


class InputError(ValueError):
    """An unusable argument or input; the command line exits 2 on it."""


def _lookup(table: Mapping, key, what: str):
    # a key read from JSON may be a list or an object, which no table can hold
    try:
        return table[key]
    except (KeyError, TypeError):
        raise InputError(f"unknown {what} {key!r}") from None


def _bounded(name: str, value: int, low: int, high: int | None = None) -> None:
    if value < low or high is not None and value > high:
        span = f"at least {low}" if high is None else f"between {low} and {high}"
        raise InputError(f"{name} must be {span}, got {value}")


def _seeded(seed) -> Random:
    return seed if isinstance(seed, Random) else Random(seed)


class GameFormatError(InputError):
    """Raised when serialized game data cannot be decoded."""


def _is_label(value) -> bool:
    # JSON lists and objects are unhashable, so they cannot name anything, and
    # true and false would stand for 1 and 0 in every set and dict
    return not isinstance(value, (list, dict, bool))


def _is_label_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_label, value))


def _is_sortable_label_list(value) -> bool:
    # power families sort their members' labels, and JSON strings and numbers
    # do not compare; every other label must name an outcome or a world
    if not _is_label_list(value):
        return False
    try:
        sorted(value)
    except TypeError:
        return False
    return True


class ExtensiveGame(Record):
    """Immutable extensive game.

    The constructor stores canonical parts as given: ``outcomes`` a tuple,
    ``nodes`` a frozenset of address tuples, ``turn`` mapping internal nodes
    to `Player`, ``outcome`` mapping leaves to labels, and ``cells`` a tuple
    of sorted address tuples ordered by their first node.  It neither
    normalizes nor validates; :func:`game` puts a nested tree spec into this
    form and validates it, and :func:`validate_game` reports what is wrong
    with a game built here directly.  The children map, ``internal_nodes``
    and ``leaves`` are derived from ``nodes`` the first time one is read.
    """

    __slots__ = ("outcomes", "nodes", "turn", "outcome", "cells", "_tree")

    def __init__(
        self,
        outcomes: tuple[str, ...],
        nodes: frozenset[Address],
        turn: Mapping[Address, Player],
        outcome: Mapping[Address, str],
        cells: tuple[tuple[Address, ...], ...],
    ):
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "turn", turn)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "cells", cells)

    def _key(self):
        return (self.outcomes, self.nodes, frozenset(self.turn.items()),
                frozenset(self.outcome.items()), self.cells)

    def __reduce__(self):
        return ExtensiveGame, (
            self.outcomes, self.nodes, self.turn, self.outcome, self.cells)

    def _views(self) -> tuple[dict, tuple, tuple]:
        try:
            return self._tree
        except AttributeError:
            nodes = self.nodes
            kids: dict[Address, list[Address]] = {}
            for n in nodes:
                if n and n[:-1] in nodes:
                    kids.setdefault(n[:-1], []).append(n)
            children = {w: tuple(sorted(v)) for w, v in kids.items()}
            leaves = tuple(sorted(n for n in nodes if n not in children))
            views = (children, tuple(sorted(children)), leaves)
            object.__setattr__(self, "_tree", views)
            return views

    @property
    def internal_nodes(self) -> tuple[Address, ...]:
        return self._views()[1]

    @property
    def leaves(self) -> tuple[Address, ...]:
        return self._views()[2]

    def children(self, w: Address) -> tuple[Address, ...]:
        return self._views()[0].get(w, ())

    def num_children(self, w: Address) -> int:
        return len(self._views()[0].get(w, ()))

    def is_leaf(self, w: Address) -> bool:
        return w not in self._views()[0]

    def player_cells(self, p: Player) -> tuple[tuple[Address, ...], ...]:
        """Information cells owned by p, in canonical order."""
        p = _as_player(p)
        return tuple(c for c in self.cells if self.turn.get(c[0]) is p)

    def __repr__(self):
        return (
            f"ExtensiveGame({len(self.nodes)} nodes, "
            f"outcomes={list(self.outcomes)})"
        )


# -- tree-spec helpers --------------------------------------------------------
#
# Nested dicts double as the construction DSL and the serialized form:
#   {"outcome": label}                                   leaf
#   {"player": "A"|"B", "children": [...], "info": id}   internal node
# A missing "info" key means the node sits in a singleton cell.


def leaf(outcome: str) -> dict:
    return {"outcome": outcome}


def node(player, children: list, info=None) -> dict:
    spec: dict[str, Any] = {
        "player": _as_player(player).value,
        "children": list(children),
    }
    if info is not None:
        spec["info"] = info
    return spec


def game(outcomes: Iterable[str], tree: Mapping) -> ExtensiveGame:
    """Build an ExtensiveGame from a nested tree spec.

    The parts are put into the canonical form the constructor stores, and
    the game is validated: a spec that does not describe a valid game over
    ``outcomes`` raises GameFormatError listing every violation.
    """
    nodes = []
    turn = {}
    outcome = {}
    cells_by_id: dict[Any, list[Address]] = {}
    singletons = []

    def walk(spec, addr: Address):
        if not isinstance(spec, Mapping):
            raise GameFormatError(f"node at {addr}: expected object, got {spec!r}")
        nodes.append(addr)
        if "outcome" in spec:
            if "children" in spec or "player" in spec:
                raise GameFormatError(
                    f"node at {addr}: leaf cannot carry player or children"
                )
            if not _is_label(spec["outcome"]):
                raise GameFormatError(f"node at {addr}: 'outcome' must be a label")
            outcome[addr] = spec["outcome"]
            return
        try:
            turn[addr] = _as_player(spec["player"])
        except (KeyError, ValueError) as exc:
            raise GameFormatError(f"node at {addr}: bad or missing player") from exc
        if "info" in spec:
            if not _is_label(spec["info"]):
                raise GameFormatError(f"node at {addr}: 'info' must be a label")
            cells_by_id.setdefault(spec["info"], []).append(addr)
        else:
            singletons.append([addr])
        kids = spec.get("children")
        if not isinstance(kids, list) or not kids:
            raise GameFormatError(f"node at {addr}: internal node needs children")
        for i, child in enumerate(kids):
            walk(child, addr + (i,))

    walk(tree, ROOT)
    cells = sorted(tuple(sorted(c)) for c in (*cells_by_id.values(), *singletons))
    g = ExtensiveGame(
        tuple(outcomes), frozenset(nodes), turn, outcome, tuple(cells)
    )
    report = validate_game(g)
    if report:
        raise GameFormatError("; ".join(str(v) for v in report))
    return g


def game_to_spec(g: ExtensiveGame) -> dict:
    """Render the tree back into the nested-dict form, canonical cell ids."""
    shared = [c for c in g.cells if len(c) > 1]
    cell_id = {}
    for i, cell in enumerate(shared):
        for n in cell:
            cell_id[n] = f"c{i}"

    def build(addr: Address) -> dict:
        if g.is_leaf(addr):
            return {"outcome": g.outcome[addr]}
        spec: dict[str, Any] = {"player": g.turn[addr].value}
        if addr in cell_id:
            spec["info"] = cell_id[addr]
        spec["children"] = [build(c) for c in g.children(addr)]
        return spec

    return build(ROOT)


def game_to_json(g: ExtensiveGame) -> dict:
    return {"outcomes": list(g.outcomes), "tree": game_to_spec(g)}


def game_from_json(obj: Mapping) -> ExtensiveGame:
    try:
        outcomes = obj["outcomes"]
        tree = obj["tree"]
    except (KeyError, TypeError) as exc:
        raise GameFormatError("game object needs 'outcomes' and 'tree'") from exc
    if not _is_sortable_label_list(outcomes):
        raise GameFormatError(
            "'outcomes' must be a list of labels, all strings or all numbers"
        )
    return game(outcomes, tree)


# -- validation ----------------------------------------------------------------


class Violation(Record, detail=""):
    __slots__ = ("rule", "nodes", "detail")

    def __str__(self):
        where = ", ".join("·".join(map(str, n)) or "ε" for n in self.nodes)
        msg = f"{self.rule} at {where}" if self.nodes else self.rule
        return f"{msg} ({self.detail})" if self.detail else msg


def validate_game(g: ExtensiveGame) -> list[Violation]:
    """Check every structural invariant; empty report iff the game is valid."""
    out = []
    if ROOT not in g.nodes:
        out.append(Violation("missing-root", ()))
    for n in sorted(g.nodes):
        if n and n[:-1] not in g.nodes:
            out.append(Violation("prefix-closure", (n,)))
        if n and n[-1] > 0 and n[:-1] + (n[-1] - 1,) not in g.nodes:
            out.append(Violation("sibling-downward-closure", (n,)))
    if len(set(g.outcomes)) != len(g.outcomes):
        out.append(Violation("duplicate-outcome-labels", ()))
    internal = set(g.internal_nodes)
    leaves = set(g.leaves)
    for n in sorted(internal - set(g.turn)):
        out.append(Violation("turn-missing", (n,)))
    for n in sorted(set(g.turn) - internal):
        out.append(Violation("turn-on-leaf", (n,)))
    for n in sorted(leaves - set(g.outcome)):
        out.append(Violation("outcome-missing", (n,)))
    for n in sorted(set(g.outcome) - leaves):
        out.append(Violation("outcome-on-internal", (n,)))
    for n, o in sorted(g.outcome.items()):
        if o not in g.outcomes:
            out.append(Violation("unknown-outcome-label", (n,), str(o)))
    covered: list[Address] = []
    for cell in g.cells:
        covered.extend(cell)
        owners = {g.turn.get(n) for n in cell}
        if len(owners) > 1:
            out.append(Violation("cell-mixed-turn", cell))
        sizes = {g.num_children(n) for n in cell}
        if len(sizes) > 1:
            out.append(Violation("cell-mixed-child-count", cell))
    if sorted(covered) != sorted(internal) or len(covered) != len(set(covered)):
        out.append(Violation("cells-not-a-partition", tuple(sorted(internal))))
    return out


# -- strategies ----------------------------------------------------------------


class FunctionalStrategy(Record):
    __slots__ = ("owner", "choice")  # choice maps each of owner's nodes to a move

    def moves_at(self, w: Address) -> tuple[int, ...]:
        return (self.choice[w],)


class RelationalStrategy(Record):
    __slots__ = ("owner", "choice")  # choice maps each of owner's nodes to moves

    def moves_at(self, w: Address) -> tuple[int, ...]:
        return self.choice[w]


Strategy = FunctionalStrategy | RelationalStrategy


def _nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    # lexicographic: (0,), (0,1), ..., (1,), ...
    return sorted(
        chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))
    )


def enumerate_strategies(
    g: ExtensiveGame, p: Player, relational: bool = False
) -> list[Strategy]:
    """All strategies of p, in a fixed order.

    Cells are taken in canonical address order; per-cell options run through
    child indices (functional) or nonempty index sets (relational) in
    lexicographic order.  A player with no nodes has exactly one strategy.
    """
    p = _as_player(p)
    cells = g.player_cells(p)
    options = []
    for cell in cells:
        c = g.num_children(cell[0])
        options.append(_nonempty_subsets(c) if relational else list(range(c)))
    out: list[Strategy] = []
    for assignment in product(*options):
        choice: dict[Address, Any] = {}
        for cell, picked in zip(cells, assignment):
            for n in cell:
                choice[n] = picked
        if relational:
            out.append(RelationalStrategy(p, choice))
        else:
            out.append(FunctionalStrategy(p, choice))
    return out


def guided_matches(g: ExtensiveGame, s: Strategy) -> tuple[Address, ...]:
    """Leaves of the maximal branches compatible with s.

    At nodes owned by s the branch must continue with one of the strategy's
    moves; the opponent's nodes are unconstrained.
    """
    found = []
    stack = [ROOT]
    while stack:
        w = stack.pop()
        kids = g.children(w)
        if not kids:
            found.append(w)
            continue
        if g.turn[w] is s.owner:
            stack.extend(kids[i] for i in s.moves_at(w))
        else:
            stack.extend(kids)
    return tuple(sorted(found))


def outcome_set(g: ExtensiveGame, s: Strategy) -> frozenset[str]:
    return frozenset(g.outcome[m] for m in guided_matches(g, s))


def joint_match(
    g: ExtensiveGame, sa: FunctionalStrategy, sb: FunctionalStrategy
) -> Address:
    """The unique maximal branch guided by a functional strategy profile."""
    w = ROOT
    while not g.is_leaf(w):
        s = sa if g.turn[w] is sa.owner else sb
        w = g.children(w)[s.choice[w]]
    return w


# -- strategic form -------------------------------------------------------------


class StrategicGame(Record):
    """Finite two-player strategic game; rows belong to A, columns to B."""

    __slots__ = ("outcomes", "rows", "cols", "matrix")

    def __init__(self, outcomes, rows, cols, matrix):
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "matrix", tuple(tuple(r) for r in matrix))

    def row_set(self, i: int) -> frozenset[str]:
        return frozenset(self.matrix[i])

    def col_set(self, j: int) -> frozenset[str]:
        return frozenset(row[j] for row in self.matrix)

    def __repr__(self):
        return f"StrategicGame({len(self.rows)}x{len(self.cols)})"


def validate_strategic(sg: StrategicGame) -> list[Violation]:
    out = []
    if not sg.rows or not sg.cols:
        out.append(Violation("empty-strategy-set", ()))
    if len(set(sg.rows)) != len(sg.rows) or len(set(sg.cols)) != len(sg.cols):
        out.append(Violation("duplicate-strategy-labels", ()))
    if len(set(sg.outcomes)) != len(sg.outcomes):
        out.append(Violation("duplicate-outcome-labels", ()))
    if len(sg.matrix) != len(sg.rows) or any(
        len(r) != len(sg.cols) for r in sg.matrix
    ):
        out.append(Violation("matrix-shape", ()))
    else:
        for i, row in enumerate(sg.matrix):
            for j, o in enumerate(row):
                if o not in sg.outcomes:
                    out.append(Violation("unknown-outcome-label", ((i, j),), str(o)))
    return out


def strategic_to_json(sg: StrategicGame) -> dict:
    return {
        "outcomes": list(sg.outcomes),
        "rows": list(sg.rows),
        "cols": list(sg.cols),
        "matrix": [list(r) for r in sg.matrix],
    }


def strategic_from_json(obj: Mapping) -> StrategicGame:
    try:
        outcomes, rows, cols, matrix = (
            obj[key] for key in ("outcomes", "rows", "cols", "matrix")
        )
    except (KeyError, TypeError) as exc:
        raise GameFormatError(
            "strategic game needs 'outcomes', 'rows', 'cols', 'matrix'"
        ) from exc
    if not _is_sortable_label_list(outcomes):
        raise GameFormatError(
            "'outcomes' must be a list of labels, all strings or all numbers"
        )
    for key, labels in (("rows", rows), ("cols", cols)):
        if not _is_label_list(labels):
            raise GameFormatError(f"'{key}' must be a list of labels")
    if not isinstance(matrix, list) or not all(map(_is_label_list, matrix)):
        raise GameFormatError("'matrix' must be a list of lists of outcome labels")
    sg = StrategicGame(outcomes, rows, cols, matrix)
    report = validate_strategic(sg)
    if report:
        raise GameFormatError("; ".join(str(v) for v in report))
    return sg


def to_strategic_form(g: ExtensiveGame) -> StrategicGame:
    """Tabulate all functional strategy profiles of g.

    Rows and columns follow the canonical enumeration order, labelled
    a0, a1, ... and b0, b1, ...
    """
    sas = enumerate_strategies(g, Player.A)
    sbs = enumerate_strategies(g, Player.B)
    matrix = [
        [g.outcome[joint_match(g, sa, sb)] for sb in sbs] for sa in sas
    ]
    rows = [f"a{i}" for i in range(len(sas))]
    cols = [f"b{j}" for j in range(len(sbs))]
    return StrategicGame(g.outcomes, rows, cols, matrix)


# -- file IO --------------------------------------------------------------------


def _read_json(path: str, error: type[InputError], decode: Callable):
    """The JSON value in a file, passed through decode; bytes not in UTF-8,
    bad JSON, a number that is not finite (NaN, Infinity, 1e400) or too long
    to convert, JSON nested deeper than the decoder or decode can follow, or
    a ValueError that decode raises, raises ``error`` prefixed with the path."""

    def finite(literal):
        if not isfinite(number := float(literal)):
            raise error(f"{literal} is not a finite number")
        return number

    with open(path, "r", encoding="utf-8") as fh:
        try:
            # up to 3.12 json.load gives out first; on 3.13 its C scanner
            # has its own limit, and decode's recursive walk may give out
            return decode(json.load(fh, parse_float=finite, parse_constant=finite))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
            raise error(f"{path}: {exc}") from exc
        except RecursionError:
            raise error(f"{path}: JSON nested too deeply") from None


def _game_from_any_json(obj) -> ExtensiveGame | StrategicGame:
    # an extensive game has a tree, a strategic one a matrix
    if not isinstance(obj, dict):
        raise GameFormatError("top-level JSON object expected")
    if "tree" not in obj and "matrix" not in obj:
        raise GameFormatError("neither 'tree' nor 'matrix' present")
    return (game_from_json if "tree" in obj else strategic_from_json)(obj)


def load_game(path: str) -> ExtensiveGame | StrategicGame:
    """Read a game file, sniffing extensive vs strategic layout."""
    return _read_json(path, GameFormatError, _game_from_any_json)
