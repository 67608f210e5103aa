"""Game operations and a seeded checker for their algebraic laws.

Binary + and x add a fresh root owned by A respectively B over embedded
copies of the operands; unary - switches the mover everywhere.  Dynamic
games assign a game over the state set to each state, which gives sequential
composition a home: compose by grafting a fresh copy of the continuation at
every leaf.  check_equation and check_congruence probe laws on deterministic
pools first and seeded random games after, and only ever report a
counterexample that re-verifies.  Both fold their terms (for a congruence, a
pair and its one-hole contexts) over the bound games' power families; they
build trees only for strong with o, whose basic powers lose multiplicity,
and for a counterexample they report.
"""

from __future__ import annotations

import itertools
import re
from functools import cache, partial
from operator import and_, itemgetter, or_
from random import Random
from typing import Mapping, Union

from .equivalence import EQUIVALENCES, POWER, SEMI, STRONG, _pair_split
from .games import (
    ROOT,
    Address,
    ExtensiveGame,
    GameFormatError,
    Player,
    Record,
    game,
    game_from_json,
    game_to_json,
    leaf,
    node,
)
from .powers import (
    POWER_KINDS,
    PowerFamily,
    _joins,
    _nonempty_joins,
    relational_basic_powers,
    union_closure,
)


def _prefixed(g: ExtensiveGame, prefix: Address):
    # prefixing keeps every cell sorted and the cells in first-node order
    nodes = {prefix + n for n in g.nodes}
    turn = {prefix + n: p for n, p in g.turn.items()}
    outcome = {prefix + n: o for n, o in g.outcome.items()}
    cells = [tuple(prefix + n for n in cell) for cell in g.cells]
    return nodes, turn, outcome, cells


def _rooted_choice(owner: Player, g1: ExtensiveGame, g2: ExtensiveGame):
    if set(g1.outcomes) != set(g2.outcomes):
        raise ValueError("games must share an outcome set")
    n1, t1, o1, c1 = _prefixed(g1, (0,))
    n2, t2, o2, c2 = _prefixed(g2, (1,))
    nodes = frozenset({ROOT} | n1 | n2)
    turn = {ROOT: owner, **t1, **t2}
    cells = ((ROOT,), *c1, *c2)
    return ExtensiveGame(g1.outcomes, nodes, turn, {**o1, **o2}, cells)


def op_plus(g1: ExtensiveGame, g2: ExtensiveGame) -> ExtensiveGame:
    """A chooses at a fresh root between embedded copies of g1 and g2."""
    return _rooted_choice(Player.A, g1, g2)


def op_times(g1: ExtensiveGame, g2: ExtensiveGame) -> ExtensiveGame:
    """B chooses at a fresh root between embedded copies of g1 and g2."""
    return _rooted_choice(Player.B, g1, g2)


def op_dual(g: ExtensiveGame) -> ExtensiveGame:
    """The same tree with the mover switched at every node."""
    flipped = {n: p.dual for n, p in g.turn.items()}
    return ExtensiveGame(g.outcomes, g.nodes, flipped, g.outcome, g.cells)


# -- dynamic games -----------------------------------------------------------------


class DynamicGame:
    """A total assignment of games over the state set to each state."""

    __slots__ = ("states", "games")

    def __init__(self, states, games: Mapping[str, ExtensiveGame]):
        states = tuple(states)
        if not states or len(set(states)) != len(states):
            raise ValueError("states must be nonempty and distinct")
        unknown = set(games) - set(states)
        if unknown:
            raise ValueError(f"games assigned to unknown states {sorted(unknown)}")
        fixed = {}
        for u in states:
            if u not in games:
                raise ValueError(f"no game assigned to state {u!r}")
            g = games[u]
            if not set(g.outcomes) <= set(states):
                raise ValueError(
                    f"game at state {u!r} uses outcomes outside the state set"
                )
            # redeclare over the full state tuple so statewise ops type-check
            if g.outcomes != states:
                g = ExtensiveGame(states, g.nodes, g.turn, g.outcome, g.cells)
            fixed[u] = g
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "games", fixed)

    def __setattr__(self, name, value):
        raise AttributeError("DynamicGame is immutable")

    def __eq__(self, other):
        if not isinstance(other, DynamicGame):
            return NotImplemented
        return set(self.states) == set(other.states) and all(
            self.games[u] == other.games[u] for u in self.states
        )

    def __hash__(self):
        return hash(frozenset(self.games.items()))

    def __repr__(self):
        return f"DynamicGame(states={list(self.states)})"

    def to_json(self) -> dict:
        return {
            "states": sorted(self.states),
            "games": {u: game_to_json(self.games[u]) for u in sorted(self.states)},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DynamicGame":
        if not isinstance(obj, Mapping) or "states" not in obj or "games" not in obj:
            raise GameFormatError("dynamic game needs states and games")
        games = {u: game_from_json(spec) for u, spec in obj["games"].items()}
        return cls(obj["states"], games)


def identity_dynamic(states) -> DynamicGame:
    """Every state maps to the single-leaf game returning that state."""
    states = tuple(states)
    return DynamicGame(states, {u: game(states, leaf(u)) for u in states})


def seq_compose(d1: DynamicGame, d2: DynamicGame) -> DynamicGame:
    """Graft a fresh copy of d2's continuation at every leaf of every d1 game.

    Grafted copies keep their information cells to themselves, so cells never
    span two copies of the continuation.
    """
    return _statewise(lambda g1, _: _graft(g1, d2), d1, d2)


def _graft(g1: ExtensiveGame, d2: DynamicGame) -> ExtensiveGame:
    nodes: set[Address] = set()
    turn: dict[Address, Player] = {}
    outcome: dict[Address, str] = {}
    cells = list(g1.cells)
    for n in g1.internal_nodes:
        nodes.add(n)
        turn[n] = g1.turn[n]
    for l in g1.leaves:
        g2 = d2.games[g1.outcome[l]]
        n2, t2, o2, c2 = _prefixed(g2, l)
        nodes |= n2
        turn.update(t2)
        outcome.update(o2)
        cells.extend(c2)
    return ExtensiveGame(
        d2.states, frozenset(nodes), turn, outcome, tuple(sorted(cells))
    )


def relational_power_map(d: DynamicGame, p: Player) -> dict[str, PowerFamily]:
    """Statewise relational basic powers of a dynamic game."""
    return {u: relational_basic_powers(d.games[u], p) for u in d.states}


def composed_power_relation(r1: Mapping, r2: Mapping, u) -> PowerFamily:
    """Powers at u of a composition, computed from the factors' power maps.

    Z is included exactly when some nonempty Y with (u, Y) in r1 exists such
    that Z joins, over every y in Y, a nonempty union of r2 powers of y.
    """
    if set(r1) != set(r2):
        raise ValueError("power maps must share a state set")
    if u not in r1:
        raise ValueError(f"unknown state {u!r}")
    closed = {y: union_closure(f)._index for y, f in r2.items()}
    return PowerFamily(tuple(sorted(r1)), _composed(r1[u]._index, _Joined(closed, _joins)))


class _Joined(dict):
    # Y -> the joins, over y in Y, of a member of closed[y], each Y joined once,
    # on first read; closed maps each state to a union-closed member set
    def __init__(self, closed: Mapping, join):
        self.closed, self.join = closed, join

    def __missing__(self, ys):
        zs = self[ys] = self.join([self.closed[y] for y in ys]) if ys else ()
        return zs


def _composed(y_sets, joined: _Joined) -> set:
    # every Z in joined[Y] for some Y in y_sets
    return set().union(*map(joined.__getitem__, y_sets))


# -- terms -------------------------------------------------------------------------


class Var(Record):
    __slots__ = ("name",)


class Plus(Record):
    __slots__ = ("left", "right")


class Times(Record):
    __slots__ = ("left", "right")


class Comp(Record):
    __slots__ = ("left", "right")


class Dual(Record):
    __slots__ = ("sub",)


GameTerm = Union[Var, Plus, Times, Comp, Dual]


class TermParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_TERM_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*()]))")


def _tokenize_term(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TERM_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise TermParseError(f"unexpected {text[pos:].lstrip()[0]!r}", pos)
            break
        if m.group("ident") == "o":
            tokens.append(("o", m.start("ident")))
        elif m.group("ident"):
            tokens.append(("var", m.start("ident"), m.group("ident")))
        else:
            tokens.append((m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", len(text)))
    return tokens


class _TermParser:
    # precedence, loosest first: +  then  *  then  o  then unary -
    def __init__(self, text: str):
        self.tokens = _tokenize_term(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        return self.tokens[self.i][1]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> GameTerm:
        term = self.sum()
        if self.peek() != "end":
            raise TermParseError(f"unexpected {self.peek()!r}", self.pos())
        return term

    def sum(self) -> GameTerm:
        term = self.product()
        while self.peek() == "+":
            self.take()
            term = Plus(term, self.product())
        return term

    def product(self) -> GameTerm:
        term = self.composition()
        while self.peek() == "*":
            self.take()
            term = Times(term, self.composition())
        return term

    def composition(self) -> GameTerm:
        term = self.unary()
        while self.peek() == "o":
            self.take()
            term = Comp(term, self.unary())
        return term

    def unary(self) -> GameTerm:
        if self.peek() == "-":
            self.take()
            return Dual(self.unary())
        return self.atom()

    def atom(self) -> GameTerm:
        kind = self.peek()
        if kind == "var":
            return Var(self.take()[2])
        if kind == "(":
            self.take()
            term = self.sum()
            if self.peek() != ")":
                raise TermParseError("expected ')'", self.pos())
            self.take()
            return term
        raise TermParseError(f"expected a term, found {kind!r}", self.pos())


def parse_term(text: str) -> GameTerm:
    """Parse a game term over variables, +, *, unary - and infix o."""
    try:
        return _TermParser(text).parse()
    except RecursionError:
        raise TermParseError("term nested too deeply", 0) from None


def format_term(term: GameTerm) -> str:
    def fmt(t, level):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Dual):
            return "-" + fmt(t.sub, 4)
        sym, mine = {"Plus": ("+", 1), "Times": ("*", 2), "Comp": ("o", 3)}[
            type(t).__name__
        ]
        text = f"{fmt(t.left, mine)} {sym} {fmt(t.right, mine + 1)}"
        return f"({text})" if mine < level else text

    return fmt(term, 1)


def term_variables(term: GameTerm) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Dual):
        return term_variables(term.sub)
    return term_variables(term.left) | term_variables(term.right)


def term_uses_composition(term: GameTerm) -> bool:
    if isinstance(term, Comp):
        return True
    if isinstance(term, Var):
        return False
    if isinstance(term, Dual):
        return term_uses_composition(term.sub)
    return term_uses_composition(term.left) or term_uses_composition(term.right)


def evaluate(term: GameTerm, env: Mapping):
    """Evaluate a term over an environment of games or of dynamic games."""
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise ValueError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Dual):
        return _statewise(op_dual, evaluate(term.sub, env))
    left = evaluate(term.left, env)
    right = evaluate(term.right, env)
    if isinstance(term, Comp):
        if not isinstance(left, DynamicGame):
            raise ValueError("sequential composition needs dynamic games")
        return seq_compose(left, right)
    return _statewise(op_plus if isinstance(term, Plus) else op_times, left, right)


def _value_powers(fn, value):
    """The member sets of a game's (A, B) families, per state for a dynamic game."""
    if isinstance(value, DynamicGame):
        return {u: _value_powers(fn, g) for u, g in value.games.items()}
    return fn(value, Player.A)._index, fn(value, Player.B)._index


def _statewise(op, *values):
    # op on games, state by state on dynamic games (which must share a state
    # set and cannot mix with games)
    first = values[0]
    dynamic = [isinstance(v, DynamicGame) for v in values]
    if not any(dynamic):
        return op(*values)
    if not all(dynamic):
        raise ValueError("cannot combine a game with a dynamic game")
    if any(set(v.states) != set(first.states) for v in values):
        raise ValueError("dynamic games must share a state set")
    return DynamicGame(
        first.states, {u: op(*(v.games[u] for v in values)) for u in first.states}
    )


def _term_fold(term: GameTerm, kind: str, dynamic: bool):
    """Compile a term into env -> the member sets of its (A, B) families.

    env maps each variable to its value's pair, or to a dict of pairs per
    state when ``dynamic``.  At + or * the mover gets the union of the
    families (for relational powers their nonempty joins) and the other
    player their joins, for upward-closed plain powers their intersection;
    - swaps the players.  o composes union-closed families statewise.
    """
    if isinstance(term, Var):
        return itemgetter(term.name)
    if isinstance(term, Dual):
        sub = _term_fold(term.sub, kind, dynamic)
        if dynamic:
            return lambda env: {u: (b, a) for u, (a, b) in sub(env).items()}
        return lambda env: sub(env)[::-1]
    left, right = (_term_fold(t, kind, dynamic) for t in (term.left, term.right))
    # upward-closed families join to their intersection: a | b is in each, S is S | S
    plain = kind == "plain"
    if isinstance(term, Comp):
        join = (lambda fams: fams[0].intersection(*fams[1:])) if plain else _joins
        def composed(env):
            cont = right(env)
            ja, jb = (_Joined({y: p[i] for y, p in cont.items()}, join) for i in (0, 1))
            return {u: (_composed(a, ja), _composed(b, jb)) for u, (a, b) in left(env).items()}
        return composed
    mover = (lambda f, g: _nonempty_joins((f, g))) if kind == "relational" else or_
    other = and_ if plain else lambda f, g: _joins((f, g))
    fa, fb = (mover, other) if isinstance(term, Plus) else (other, mover)
    if dynamic:
        def statewise(env):
            rhs = right(env)
            return {u: (fa(a, rhs[u][0]), fb(b, rhs[u][1])) for u, (a, b) in left(env).items()}
        return statewise

    def pair(env):
        (a1, b1), (a2, b2) = left(env), right(env)
        return fa(a1, a2), fb(b1, b2)
    return pair


# -- seeded generation -------------------------------------------------------------


def _rng(seed) -> Random:
    return seed if isinstance(seed, Random) else Random(seed)


def _random_tree(rng: Random, depth_left: int, max_branch: int, outcomes):
    if depth_left <= 1 or rng.random() < 0.35:
        return leaf(rng.choice(outcomes))
    width = rng.randint(min(2, max_branch), max_branch)
    kids = [
        _random_tree(rng, depth_left - 1, max_branch, outcomes)
        for _ in range(width)
    ]
    return node(rng.choice((Player.A, Player.B)), kids)


def _merge_cells(rng: Random, g: ExtensiveGame) -> ExtensiveGame:
    # merging is legal only for same-mover, same-arity nodes whose mover
    # reached them through the same own cells and choices; a player who
    # forgot their own moves gets coupled choice sets, and unions of
    # realizable outcome sets stop being realizable
    cells: list[list[Address]] = []
    cell_key: dict[int, tuple] = {}
    cell_of: dict[Address, int] = {}

    def own_history(n: Address) -> tuple:
        mover = g.turn[n]
        return tuple(
            (cell_of[n[:d]], n[d])
            for d in range(len(n))
            if g.turn[n[:d]] is mover
        )

    for n in sorted(g.internal_nodes, key=lambda a: (len(a), a)):
        key = (g.turn[n].value, g.num_children(n), own_history(n))
        open_cells = [i for i, k in cell_key.items() if k == key]
        if open_cells and rng.random() < 0.8:
            i = rng.choice(open_cells)
        else:
            i = len(cells)
            cells.append([])
            cell_key[i] = key
        cells[i].append(n)
        cell_of[n] = i
    merged = tuple(sorted(tuple(sorted(c)) for c in cells))
    return ExtensiveGame(g.outcomes, g.nodes, g.turn, g.outcome, merged)


def _enumeration_cost(g: ExtensiveGame) -> int:
    total = 0
    for p in (Player.A, Player.B):
        product = 1
        for cell in g.player_cells(p):
            product *= 2 ** g.num_children(cell[0]) - 1
        total += product
    return total


_MAX_PROPOSALS = 1000
# a proposal is built whole before its cost can reject it, and its size grows
# exponentially with depth: on a 2-core machine check_equation with 200
# samples takes 0.4 s at depth 12 and 2 s at depth 16, and had not finished
# at depth 40 after 30 s
_MAX_DEPTH = 12


def _check_depth(max_depth: int) -> None:
    if not 1 <= max_depth <= _MAX_DEPTH:
        raise ValueError(
            f"max_depth must be between 1 and {_MAX_DEPTH}, got {max_depth}"
        )


def random_game(
    seed,
    max_depth: int = 3,
    max_branch: int = 2,
    outcomes=("0", "1"),
    perfect_info: bool = False,
    max_cost: int = 4096,
) -> ExtensiveGame:
    """Seeded random game, rejecting shapes too large to enumerate.

    Raises ValueError when none of 1,000 proposals fits within ``max_cost``,
    or when ``max_depth`` is outside 1 to 12.
    """
    _check_depth(max_depth)
    if max_branch < 1:
        raise ValueError("max_branch must be at least 1")
    rng = _rng(seed)
    outcomes = tuple(outcomes)
    for _ in range(_MAX_PROPOSALS):
        g = game(outcomes, _random_tree(rng, max_depth, max_branch, outcomes))
        if not perfect_info:
            g = _merge_cells(rng, g)
        if _enumeration_cost(g) <= max_cost:
            return g
    raise ValueError(
        f"no random game within max_cost={max_cost} in {_MAX_PROPOSALS} proposals"
    )


def random_dynamic_game(
    seed,
    states,
    max_depth: int = 2,
    max_branch: int = 2,
    perfect_info: bool = False,
) -> DynamicGame:
    rng = _rng(seed)
    states = tuple(states)
    return DynamicGame(
        states,
        {
            u: random_game(rng, max_depth, max_branch, states, perfect_info)
            for u in states
        },
    )


# -- law checking ------------------------------------------------------------------

# the law checkers probe the three power equivalences only, each on its kind
_LAW_KINDS = {POWER: "plain", STRONG: "basic", SEMI: "relational"}


def _values_equivalent(split, v1, v2):
    # split two games or two power pairs, statewise for dynamic values
    if isinstance(v1, DynamicGame):
        v1, v2 = v1.games, v2.games
    if isinstance(v1, dict):
        for u in v1:
            verdict = split(v1[u], v2[u])
            if not verdict:
                return False, {"state": u, **(verdict.witness or {})}
        return True, None
    verdict = split(v1, v2)
    return bool(verdict), verdict.witness


def _binding_decision(equiv: str, dynamic: bool):
    # drawn(value) -> (value, entry) pairs a game with its entry in the env
    # that decide(lhs, rhs) -> env -> (ok, witness, trees) folds both terms
    # over, each compiled once: its power pairs, or for strong with o the game
    # itself (then trees), as basic powers of a composition lose multiplicity
    kind = _LAW_KINDS[equiv]
    trees = dynamic and equiv == STRONG
    split = EQUIVALENCES[equiv] if trees else partial(_pair_split, equiv)
    fold = cache(lambda t: partial(evaluate, t) if trees else _term_fold(t, kind, dynamic))

    def drawn(v):
        return v, v if trees else _value_powers(POWER_KINDS[kind], v)

    def decide(lhs, rhs):
        f1, f2 = fold(lhs), fold(rhs)
        def on(env):
            v1, v2 = f1(env), f2(env)
            return (*_values_equivalent(split, v1, v2), (v1, v2) if trees else None)
        return on

    return drawn, decide


def _value_json(value) -> dict:
    return value.to_json() if isinstance(value, DynamicGame) else game_to_json(value)


class EquationReport(Record, counterexample=None):
    # verdict is "holds-on-sample" or "counterexample"
    __slots__ = ("lhs", "rhs", "equiv", "seed", "samples", "verdict", "counterexample")

    def __bool__(self):
        return self.verdict == "holds-on-sample"

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _plain_pool(outcomes) -> list[ExtensiveGame]:
    outcomes = tuple(outcomes)
    pool = [game(outcomes, leaf(o)) for o in outcomes]
    first, second = outcomes[0], outcomes[min(1, len(outcomes) - 1)]
    for owner in (Player.A, Player.B):
        pool.append(game(outcomes, node(owner, [leaf(first), leaf(second)])))
    return pool


def _dynamic_pool(states) -> list[DynamicGame]:
    states = tuple(states)
    first, second = states[0], states[min(1, len(states) - 1)]
    pool = [identity_dynamic(states)]
    pool.append(
        DynamicGame(states, {u: game(states, leaf(first)) for u in states})
    )
    for owner in (Player.A, Player.B):
        choice = node(owner, [leaf(first), leaf(second)])
        pool.append(DynamicGame(states, {u: game(states, choice) for u in states}))
    return pool


def check_equation(
    lhs,
    rhs,
    equiv: str = "strong",
    seed: int = 0,
    samples: int = 200,
    outcomes=("0", "1", "2"),
    max_depth: int = 3,
    max_branch: int = 2,
) -> EquationReport:
    """Probe lhs = rhs under the chosen equivalence on seeded bindings.

    A deterministic pool of small games (or dynamic games, when either side
    composes) is exhausted first, then `samples` further random bindings are
    drawn.  The reported sample count includes both phases.  A hold verdict
    is evidence, not proof.  Each binding is decided on the bound games'
    power families of the equivalence's kind; only strong equivalence with o
    evaluates the terms as trees.  A counterexample reports its games.
    """
    lhs_t = parse_term(lhs) if isinstance(lhs, str) else lhs
    rhs_t = parse_term(rhs) if isinstance(rhs, str) else rhs
    if equiv not in _LAW_KINDS:
        raise ValueError(f"unknown equivalence {equiv!r}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    _check_depth(max_depth)
    names = sorted(term_variables(lhs_t) | term_variables(rhs_t))
    dynamic = term_uses_composition(lhs_t) or term_uses_composition(rhs_t)
    outcomes = tuple(outcomes)
    drawn, decide = _binding_decision(equiv, dynamic)
    decision = decide(lhs_t, rhs_t)
    rng = Random(seed)
    if dynamic:
        # dynamic bindings stay shallow so composed trees remain enumerable
        pool = _dynamic_pool(outcomes)
        draw = partial(random_dynamic_game, rng, outcomes, min(max_depth, 2), max_branch)
    else:
        pool = _plain_pool(outcomes)
        draw = partial(random_game, rng, max_depth, max_branch, outcomes)
    tried = 0

    def outcome_of(values, phase):
        # each value comes with its entry in the environment that fold reads
        nonlocal tried
        tried += 1
        env = {name: entry for name, (_, entry) in zip(names, values)}
        ok, witness, _ = decision(env)
        if ok:
            return None
        return {
            "phase": phase,
            "witness": witness,
            "binding": {name: _value_json(v) for name, (v, _) in zip(names, values)},
        }

    counter = None
    assignments = itertools.product(map(drawn, pool), repeat=len(names))
    for values in itertools.islice(assignments, 2048):
        counter = outcome_of(values, "pool")
        if counter:
            break
    if counter is None:
        for _ in range(samples):
            counter = outcome_of([drawn(draw()) for _ in names], "random")
            if counter:
                break
    return EquationReport(
        lhs=format_term(lhs_t),
        rhs=format_term(rhs_t),
        equiv=equiv,
        seed=seed,
        samples=tried,
        verdict="counterexample" if counter else "holds-on-sample",
        counterexample=counter,
    )


class CongruenceReport(Record, counterexample=None):
    # verdict is "congruent-on-sample" or "counterexample"
    __slots__ = ("op", "equiv", "samples", "verdict", "counterexample")

    def __bool__(self):
        return self.verdict == "congruent-on-sample"

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _at_first_state(states, tree) -> DynamicGame:
    # the identity, except that the first state plays the given tree
    games = {u: game(states, leaf(u)) for u in states}
    games[states[0]] = game(states, tree)
    return DynamicGame(states, games)


def check_congruence(
    op: str,
    equiv: str = "strong",
    seed: int = 0,
    samples: int = 40,
    outcomes=("x", "y"),
    max_depth: int = 3,
    max_branch: int = 2,
) -> CongruenceReport:
    """Probe whether the equivalence survives the operation in context.

    Candidate pairs are terms over a and b, re-verified to be equivalent
    before any context is applied, so a counterexample always exhibits a
    genuine pair that the operation tears apart.  Pairs and contexts are
    decided as check_equation decides bindings; only a reported
    counterexample evaluates its pair and contexts as games.  For
    composition the candidate list includes the pair of factors whose
    one-move difference a branching continuation amplifies.
    """
    if op not in ("+", "*", "-", "o"):
        raise ValueError(f"unknown operation {op!r}")
    if equiv not in _LAW_KINDS:
        raise ValueError(f"unknown equivalence {equiv!r}")
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    _check_depth(max_depth)
    outcomes = tuple(outcomes)
    rng = Random(seed)
    dynamic = op == "o"
    drawn, decide = _binding_decision(equiv, dynamic)
    if dynamic:
        # shallow dynamic draws keep composed trees enumerable
        draw = partial(random_dynamic_game, rng, outcomes, min(max_depth, 2), max_branch)
    else:
        draw = partial(random_game, rng, max_depth, max_branch, outcomes)
    first, second = outcomes[0], outcomes[min(1, len(outcomes) - 1)]
    choice = node(Player.B, [leaf(first), leaf(second)])
    a, b, h = Var("a"), Var("b"), Var("h")
    combine = {"+": Plus, "*": Times, "o": Comp}.get(op)
    holes = (("left", lambda t: combine(t, h)), ("right", lambda t: combine(h, t)))
    tried = 0

    def candidate_pairs():
        # (lhs, rhs, binding of a and b); draws happen as the pairs are read
        if dynamic:
            # one forced move or two at the first state, then back there
            one, two = (node(Player.A, [leaf(first)] * k) for k in (1, 2))
            yield a, b, {"a": drawn(_at_first_state(outcomes, one)),
                         "b": drawn(_at_first_state(outcomes, two))}
        g = drawn(draw())
        yield a, b, {"a": g, "b": g}
        binding = {"a": drawn(draw()), "b": drawn(draw())}
        yield Plus(a, b), Plus(b, a), binding
        yield Times(a, b), Times(b, a), binding
        yield Dual(Dual(a)), a, binding
        if not dynamic:
            single, double = (
                game(outcomes, node(Player.A, [choice] * k)) for k in (1, 2))
            yield a, b, {"a": drawn(single), "b": drawn(double)}

    def contexts():
        # (side, hole filler, partner bound to h), drawn for each accepted pair
        if op == "-":
            return [("dual", Dual, None)]
        tagged = {"": drawn(draw())}
        if dynamic:
            named = drawn(_at_first_state(outcomes, choice))
            tagged = {"-of-branching": named, "-of-random": tagged[""]}
        return [(side + tag, fill, p) for tag, p in tagged.items() for side, fill in holes]

    def entries(binding):
        return {name: entry for name, (_, entry) in binding.items()}

    def first_counterexample():
        nonlocal tried
        for _ in range(samples):
            for lhs, rhs, binding in candidate_pairs():
                if not decide(lhs, rhs)(entries(binding))[0]:
                    continue
                for side, fill, partner in contexts():
                    values = {**binding, "h": partner} if partner else binding
                    tried += 1
                    ok, witness, trees = decide(fill(lhs), fill(rhs))(entries(values))
                    if not ok:
                        games = {name: v for name, (v, _) in values.items()}
                        composed = trees or [evaluate(fill(t), games) for t in (lhs, rhs)]
                        return {
                            "pair": [_value_json(evaluate(t, games)) for t in (lhs, rhs)],
                            "context": side,
                            "composed": list(map(_value_json, composed)),
                            "witness": witness,
                        }
        return None

    counter = first_counterexample()
    return CongruenceReport(
        op=op,
        equiv=equiv,
        samples=tried,
        verdict="counterexample" if counter else "congruent-on-sample",
        counterexample=counter,
    )
