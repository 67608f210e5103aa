"""Game operations and a seeded checker for their algebraic laws.

Binary + and x add a fresh root owned by A respectively B over embedded
copies of the operands; unary - switches the mover everywhere.  Dynamic
games assign a game over the state set to each state, which gives sequential
composition a home: compose by grafting a fresh copy of the continuation at
every leaf.  check_equation and check_congruence probe laws on deterministic
pools first and seeded random games after, and only ever report a
counterexample that re-verifies.  Both fold their terms (for a congruence, a
pair and its one-hole contexts) over the bound games' power families, a
composition as its left operand followed by its right at every leaf; they
build trees only for a counterexample they report.
"""

from __future__ import annotations

import itertools
from functools import cache, partial, reduce
from math import prod
from random import Random
from typing import Mapping, Union

from .equivalence import POWER_EQUIVALENCES, _pair_difference
from .formulas import MAX_NESTING, ParseError, _nesting, _Parser, _walk
from .games import (
    ROOT,
    Address,
    ExtensiveGame,
    GameFormatError,
    InputError,
    Player,
    Record,
    _bounded,
    _fields,
    _is_sortable_label_list,
    _lookup,
    _outcome_labels,
    _seeded,
    game,
    game_from_json,
    game_to_json,
    leaf,
    node,
)
from .powers import (
    COMBINE,
    POWER_KINDS,
    PowerFamily,
    _tree_powers,
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
        raise InputError("games must share an outcome set")
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


class DynamicGame(Record):
    """A total assignment of games over the state set to each state."""

    __slots__ = ("states", "games")

    def __init__(self, states, games: Mapping[str, ExtensiveGame]):
        states = tuple(states)
        if not states or len(set(states)) != len(states):
            raise InputError("states must be nonempty and distinct")
        unknown = set(games) - set(states)
        if unknown:
            raise InputError(f"games assigned to unknown states {sorted(unknown)}")
        fixed = {}
        for u in states:
            if u not in games:
                raise InputError(f"no game assigned to state {u!r}")
            g = games[u]
            if not set(g.outcomes) <= set(states):
                raise InputError(
                    f"game at state {u!r} uses outcomes outside the state set"
                )
            # redeclare over the full state tuple so statewise ops type-check
            if g.outcomes != states:
                g = ExtensiveGame(states, g.nodes, g.turn, g.outcome, g.cells)
            fixed[u] = g
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "games", fixed)

    def _key(self):
        return frozenset(self.games.items())

    def __repr__(self):
        return f"DynamicGame(states={list(self.states)})"

    def to_json(self) -> dict:
        return {
            "states": sorted(self.states),
            "games": {u: game_to_json(self.games[u]) for u in sorted(self.states)},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DynamicGame":
        states, specs = _fields(
            obj, ("states", "games"), GameFormatError, "dynamic game needs states and games"
        )
        if not _is_sortable_label_list(states) or not isinstance(specs, Mapping):
            raise GameFormatError(
                "dynamic game needs a list of state labels and an object of games"
            )
        games = {u: game_from_json(spec) for u, spec in specs.items()}
        try:
            return cls(states, games)
        except InputError as exc:
            raise GameFormatError(str(exc)) from exc


def identity_dynamic(states) -> DynamicGame:
    """Every state maps to the single-leaf game returning that state."""
    states = tuple(states)
    return DynamicGame(states, {u: game(states, leaf(u)) for u in states})


def seq_compose(d1: DynamicGame, d2: DynamicGame) -> DynamicGame:
    """Graft a fresh copy of d2's continuation at every leaf of every d1 game.

    Grafted copies keep their information cells to themselves, so cells never
    span two copies of the continuation.  A composed game of more than 2^14
    nodes is an InputError.
    """
    return _statewise(lambda g1, _: _graft(g1, d2), d1, d2)


# o with a branching game doubles the tree: on a 2-core machine 16,383 nodes
# (13 such games) take 0.35 s to build, 131,071 nodes (16 games) 4.1 s
_MAX_COMPOSED_NODES = 2 ** 14


def _graft(g1: ExtensiveGame, d2: DynamicGame) -> ExtensiveGame:
    grafted = [d2.games[g1.outcome[l]] for l in g1.leaves]
    size = len(g1.internal_nodes) + sum(len(g2.nodes) for g2 in grafted)
    if size > _MAX_COMPOSED_NODES:
        raise InputError(
            f"a composed game would have {size} nodes, more than {_MAX_COMPOSED_NODES}"
        )
    nodes: set[Address] = set()
    turn: dict[Address, Player] = {}
    outcome: dict[Address, str] = {}
    cells = list(g1.cells)
    for n in g1.internal_nodes:
        nodes.add(n)
        turn[n] = g1.turn[n]
    for l, g2 in zip(g1.leaves, grafted):
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
        raise InputError("power maps must share a state set")
    at_u = _lookup(r1, u, "state")
    closed = {y: union_closure(f)._index for y, f in r2.items()}
    joined = _Joined(closed, COMBINE["relational"][1])
    return PowerFamily(tuple(sorted(r1)), _composed(at_u._index, joined))


class _Joined(dict):
    # Y -> closed[y] over y in Y, folded by the binary join, each Y joined once,
    # on first read; closed maps each state to a union-closed member set
    def __init__(self, closed: Mapping, join):
        self.closed, self.join = closed, join

    def __missing__(self, ys):
        zs = self[ys] = reduce(self.join, map(self.closed.__getitem__, ys)) if ys else ()
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

# each operation's symbol, term and binding strength, 1 the loosest
OPERATIONS = {"+": (Plus, 1), "*": (Times, 2), "-": (Dual, 4), "o": (Comp, 3)}


class TermParseError(ParseError):
    """Raised when a string is not a game term."""


class _TermParser(_Parser):
    # OPERATIONS decides each symbol, the term it builds and how tightly it
    # binds; binary operations associate to the left, as format_term prints
    BINARY = {s: (t, lv, False) for s, (t, lv) in OPERATIONS.items() if len(t.__slots__) == 2}
    PREFIX = {s: (t, lv) for s, (t, lv) in OPERATIONS.items() if len(t.__slots__) == 1}
    leaf = Var
    Error = TermParseError
    NOUN = "term"


def parse_term(text: str) -> GameTerm:
    """Parse a game term over variables, +, *, unary - and infix o.

    A term nested deeper than MAX_NESTING is a parse error.
    """
    return _TermParser.parse(text)


format_term = _TermParser.format


def term_variables(term: GameTerm) -> frozenset[str]:
    return frozenset(t.name for t, _ in _walk(term) if isinstance(t, Var))


def term_uses_composition(term: GameTerm) -> bool:
    return any(isinstance(t, Comp) for t, _ in _walk(term))


def _as_term(term) -> GameTerm:
    # a string parses; a term object must be as shallow as a parsed one
    if isinstance(term, str):
        return parse_term(term)
    if _nesting(term) > MAX_NESTING:
        raise InputError(f"term nested more than {MAX_NESTING} levels deep")
    return term


def evaluate(term: GameTerm, env: Mapping):
    """Evaluate a term over an environment of games or of dynamic games; a
    term nested deeper than MAX_NESTING is an InputError."""
    return _evaluate(_as_term(term), env)


def _evaluate(term: GameTerm, env: Mapping):
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise InputError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Dual):
        return _statewise(op_dual, _evaluate(term.sub, env))
    left = _evaluate(term.left, env)
    right = _evaluate(term.right, env)
    if isinstance(term, Comp):
        if not isinstance(left, DynamicGame):
            raise InputError("sequential composition needs dynamic games")
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
        raise InputError("cannot combine a game with a dynamic game")
    if any(set(v.states) != set(first.states) for v in values):
        raise InputError("dynamic games must share a state set")
    return DynamicGame(
        first.states, {u: op(*(v.games[u] for v in values)) for u in first.states}
    )


def _term_fold(term: GameTerm, kind: str, dynamic: bool):
    """Compile a term into (env, then) -> the member sets of its (A, B) families.

    env maps each variable to its value and the value's pair, a dict of
    pairs per state when ``dynamic``; ``then`` is None or the pairs by state
    of a continuation played at every leaf.  + and * fold their operands'
    families by the kind's ``COMBINE`` rules, the mover's for the player who
    owns the new root (A at +, B at *) and the other player's for the other;
    - swaps the players.  Each acts state by state on dynamic values and
    hands ``then`` on, - swapped.  o hands its right operand's pairs to its
    left, and a variable meets them by the kind's ``_FOLLOWED`` rule.
    """
    mover, other = COMBINE[kind]
    if isinstance(term, Var):
        name, follow = term.name, _FOLLOWED[kind]
        return lambda env, then: env[name][1] if then is None else follow(other, *env[name], then)
    parts = (term.sub,) if isinstance(term, Dual) else (term.left, term.right)
    folds = [_term_fold(t, kind, dynamic) for t in parts]
    if isinstance(term, Comp):
        return lambda env, then: folds[0](env, folds[1](env, then))
    if isinstance(term, Dual):
        op = lambda p: (p[1], p[0])
        sub, = folds
        folds = [lambda env, then: sub(env, then and {u: op(p) for u, p in then.items()})]
    else:
        fa, fb = (mover, other) if isinstance(term, Plus) else (other, mover)
        op = lambda p, q: (fa(p[0], q[0]), fb(p[1], q[1]))
    if not dynamic:
        return lambda env, then: op(*[f(env, then) for f in folds])

    def statewise(env, then):
        first, *rest = [f(env, then) for f in folds]
        return {u: op(pair, *[v[u] for v in rest]) for u, pair in first.items()}
    return statewise


def _joined_after(other, value, pairs, then):
    ja, jb = (_Joined({y: p[i] for y, p in then.items()}, other) for i in (0, 1))
    return {u: (_composed(a, ja), _composed(b, jb)) for u, (a, b) in pairs.items()}


def _refolded(other, value, pairs, then):
    leaves = [{y: p[i] for y, p in then.items()} for i in (0, 1)]
    return {u: tuple(_tree_powers(g, p, False, at)._index for p, at in zip(Player, leaves))
            for u, g in value.games.items()}


# How a variable meets a continuation.  Plain and relational families absorb
# a second pick (being upward and union closed), so each continuation set is
# joined once by the other player's rule.  Basic powers forget how often a
# state is reached, yet each leaf reaching it picks a continuation of its own,
# so the variable's games are folded again with those families at the leaves.
_FOLLOWED = {"plain": _joined_after, "basic": _refolded, "relational": _joined_after}


# -- seeded generation -------------------------------------------------------------


def _random_tree(rng: Random, depth_left: int, max_branch: int, outcomes, at: Address, parts):
    # draws the subtree at ``at`` into parts (outcome, turn, arity); arity lists every node
    outcome, turn, arity = parts
    if depth_left <= 1 or rng.random() < 0.35:
        arity[at] = 0
        outcome[at] = rng.choice(outcomes)
        return
    arity[at] = width = rng.randint(min(2, max_branch), max_branch)
    for i in range(width):
        _random_tree(rng, depth_left - 1, max_branch, outcomes, at + (i,), parts)
    turn[at] = rng.choice((Player.A, Player.B))


def _merge_cells(rng: Random, turn: dict, arity: dict) -> tuple:
    # merging is legal only for same-mover, same-arity nodes whose mover
    # reached them through the same own cells and choices; a player who
    # forgot their own moves gets coupled choice sets, and unions of
    # realizable outcome sets stop being realizable
    cells: list[list[Address]] = []
    cell_key: dict[int, tuple] = {}
    cell_of: dict[Address, int] = {}
    for n in sorted(turn, key=lambda a: (len(a), a)):
        mover = turn[n]
        own_history = tuple((cell_of[n[:d]], n[d]) for d in range(len(n)) if turn[n[:d]] is mover)
        key = (mover.value, arity[n], own_history)
        open_cells = [i for i, k in cell_key.items() if k == key]
        if open_cells and rng.random() < 0.8:
            i = rng.choice(open_cells)
        else:
            i = len(cells)
            cells.append([])
            cell_key[i] = key
        cells[i].append(n)
        cell_of[n] = i
    return tuple(sorted(tuple(sorted(c)) for c in cells))


def _enumeration_cost(turn: dict, arity: dict, cells: tuple) -> int:
    # both players' relational strategies
    return sum(prod(2 ** arity[c[0]] - 1 for c in cells if turn[c[0]] is p) for p in Player)


_MAX_PROPOSALS = 1000
# a proposal's parts are drawn whole before its cost can reject it, and their
# size grows exponentially with depth: on a 2-core machine check_equation with
# 200 samples takes 0.4 s at depth 12 and 2 s at depth 16, and had not
# finished at depth 40 after 30 s
_MAX_DEPTH = 12
# a binding's families grow exponentially with the outcomes: under power on a
# 2-core machine x + y = y + x takes 0.1 s on 6, 1 s on 10 and 20 s on 13, and
# (x + y) o z = (x o z) + (y o z) 1.3 s on 6 states and 24 s on 8
_MAX_OUTCOMES = 6


def random_game(
    seed,
    max_depth: int = 3,
    max_branch: int = 2,
    outcomes=("0", "1"),
    perfect_info: bool = False,
    max_cost: int = 4096,
) -> ExtensiveGame:
    """Seeded random game, rejecting shapes too large to analyse.

    ``max_cost`` bounds the sum of both players' relational strategy counts,
    a count being the product of 2^k - 1 over the player's cells of k moves.
    That bounds the strategies ``to_strategic_form`` tabulates and the
    shared-cell assignments basic and relational powers each make a pass for.
    Only a kept proposal is built, in canonical form and without validation:
    draws are valid by construction, which a differential test against a
    sampler that builds through `game` checks.  Raises InputError when none
    of 1,000 proposals fits within ``max_cost``, when ``max_depth`` is
    outside 1 to 12, or when ``outcomes`` is empty or not distinct labels.
    """
    _bounded("max_depth", max_depth, 1, _MAX_DEPTH)
    _bounded("max_branch", max_branch, 1)
    rng = _seeded(seed)
    outcomes = _outcome_labels(outcomes)
    for _ in range(_MAX_PROPOSALS):
        outcome, turn, arity = parts = {}, {}, {}
        _random_tree(rng, max_depth, max_branch, outcomes, ROOT, parts)
        cells = (tuple((n,) for n in sorted(turn)) if perfect_info
                 else _merge_cells(rng, turn, arity))
        if _enumeration_cost(turn, arity, cells) <= max_cost:
            return ExtensiveGame(outcomes, frozenset(arity), turn, outcome, cells)
    raise InputError(f"no random game within max_cost={max_cost} in {_MAX_PROPOSALS} proposals")


def random_dynamic_game(
    seed,
    states,
    max_depth: int = 2,
    max_branch: int = 2,
    perfect_info: bool = False,
) -> DynamicGame:
    rng = _seeded(seed)
    states = tuple(states)
    return DynamicGame(
        states,
        {
            u: random_game(rng, max_depth, max_branch, states, perfect_info)
            for u in states
        },
    )


# -- law checking ------------------------------------------------------------------

def _difference(v1, v2):
    # where two power pairs differ (the first such state of dynamic values), or None
    if not isinstance(v1, dict):
        return _pair_difference(v1, v2)
    for u in v1:
        if witness := _pair_difference(v1[u], v2[u]):
            return {"state": u, **witness}
    return None


def _law_kind(equiv, samples) -> str:
    # the power kind a law check under equiv reads, once its settings pass
    kind = _lookup(POWER_EQUIVALENCES, equiv, "equivalence")
    _bounded("samples", samples, 0)
    return kind


def _binding_decision(kind, dynamic, seed, outcomes, max_depth):
    # draw() -> a seeded random game, or dynamic game when the terms compose;
    # drawn(value) -> the env entry (value, its power pairs) that
    # decide(lhs, rhs) -> env -> their difference, or None, folds both over
    rng = Random(seed)
    # dynamic draws stay at depth 2 or less only so that seeded draws stay the same
    draw = (partial(random_dynamic_game, rng, outcomes, min(max_depth, 2)) if dynamic
            else partial(random_game, rng, max_depth, outcomes=outcomes))
    drawn = lambda v: (v, _value_powers(POWER_KINDS[kind], v))
    fold = cache(lambda t: _term_fold(t, kind, dynamic))

    def decide(lhs, rhs):
        f1, f2 = fold(lhs), fold(rhs)
        return lambda env: _difference(f1(env, None), f2(env, None))

    return draw, drawn, decide


def _value_json(value) -> dict:
    return value.to_json() if isinstance(value, DynamicGame) else game_to_json(value)


class EquationReport(Record, counterexample=None):
    # verdict is "holds-on-sample" or "counterexample"
    __slots__ = ("lhs", "rhs", "equiv", "seed", "samples", "verdict", "counterexample")

    def __bool__(self):
        return self.verdict == "holds-on-sample"

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _choice(owner: Player, outcomes: tuple):
    # owner picks the first or the second outcome (the first again if alone)
    return node(owner, [leaf(outcomes[0]), leaf(outcomes[min(1, len(outcomes) - 1)])])


def _pool(outcomes, dynamic: bool) -> list:
    # the bindings a law check tries first: each outcome's leaf, or for dynamic
    # games the identity and then the first outcome's leaf at every state;
    # then each player's choice, at every state when dynamic
    choices = [_choice(owner, outcomes) for owner in Player]
    if not dynamic:
        return [game(outcomes, t) for t in [*map(leaf, outcomes), *choices]]
    everywhere = [leaf(outcomes[0]), *choices]
    return [identity_dynamic(outcomes),
            *(DynamicGame(outcomes, {u: game(outcomes, t) for u in outcomes}) for t in everywhere)]


def check_equation(
    lhs,
    rhs,
    equiv: str = "strong",
    seed: int = 0,
    samples: int = 200,
    outcomes=("0", "1", "2"),
    max_depth: int = 3,
) -> EquationReport:
    """Probe lhs = rhs under the chosen equivalence on seeded bindings.

    A deterministic pool of small games (or dynamic games, when either side
    composes) on 1 to 6 outcomes is exhausted first, then `samples` further
    random bindings are drawn.  The reported sample count includes both
    phases.  A hold verdict is evidence, not proof.  Each binding is decided
    on the bound games' power families of the equivalence's kind, and no
    term is evaluated as a tree.  A counterexample reports its games.
    """
    lhs_t, rhs_t = _as_term(lhs), _as_term(rhs)
    kind = _law_kind(equiv, samples)
    _bounded("max_depth", max_depth, 1, _MAX_DEPTH)
    names = sorted(term_variables(lhs_t) | term_variables(rhs_t))
    dynamic = term_uses_composition(lhs_t) or term_uses_composition(rhs_t)
    outcomes = _outcome_labels(outcomes)
    _bounded("outcomes", len(outcomes), 1, _MAX_OUTCOMES)
    draw, drawn, decide = _binding_decision(kind, dynamic, seed, outcomes, max_depth)
    decision = decide(lhs_t, rhs_t)
    pool = itertools.product(map(drawn, _pool(outcomes, dynamic)), repeat=len(names))
    bindings = itertools.chain(
        (("pool", values) for values in itertools.islice(pool, 2048)),
        (("random", [drawn(draw()) for _ in names]) for _ in range(samples)),
    )
    counter, tried = None, 0
    for tried, (phase, values) in enumerate(bindings, 1):
        witness = decision(dict(zip(names, values)))
        if witness:
            counter = {
                "phase": phase,
                "witness": witness,
                "binding": {name: _value_json(v) for name, (v, _) in zip(names, values)},
            }
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
) -> CongruenceReport:
    """Probe whether the equivalence survives the operation in context.

    Candidate pairs are terms over a and b, re-verified to be equivalent
    before any context is applied, so a counterexample always exhibits a
    genuine pair that the operation tears apart.  Pairs and contexts are
    decided as check_equation decides bindings; only a reported
    counterexample evaluates its pair and contexts as games.  For
    composition the candidate list includes the pair of factors whose
    one-move difference a branching continuation amplifies.  Games are
    drawn on the outcomes x and y at depth at most 3, and dynamic games on
    the states x and y at depth at most 2.
    """
    combine, _ = _lookup(OPERATIONS, op, "operation")
    kind = _law_kind(equiv, samples)
    outcomes, depth = ("x", "y"), 3
    dynamic = combine is Comp
    draw, drawn, decide = _binding_decision(kind, dynamic, seed, outcomes, depth)
    choice = _choice(Player.B, outcomes)
    a, b, h = Var("a"), Var("b"), Var("h")
    holes = (("left", lambda t: combine(t, h)), ("right", lambda t: combine(h, t)))

    def candidate_pairs():
        # (lhs, rhs, binding of a and b); draws happen as the pairs are read
        if dynamic:
            # one forced move or two at the first state, then back there
            one, two = (node(Player.A, [leaf(outcomes[0])] * k) for k in (1, 2))
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
        if combine is Dual:
            return [("dual", Dual, None)]
        tagged = {"": drawn(draw())}
        if dynamic:
            named = drawn(_at_first_state(outcomes, choice))
            tagged = {"-of-branching": named, "-of-random": tagged[""]}
        return [(side + tag, fill, p) for tag, p in tagged.items() for side, fill in holes]

    def cases():
        # (pair, context, values) for each context of each accepted pair, drawn as read
        for _ in range(samples):
            for lhs, rhs, binding in candidate_pairs():
                if not decide(lhs, rhs)(binding):
                    for side, fill, partner in contexts():
                        values = {**binding, "h": partner} if partner else binding
                        yield (lhs, rhs), (side, fill), values

    counter, tried = None, 0
    for tried, ((lhs, rhs), (side, fill), values) in enumerate(cases(), 1):
        witness = decide(fill(lhs), fill(rhs))(values)
        if witness:
            games = {name: v for name, (v, _) in values.items()}
            counter = {
                "pair": [_value_json(evaluate(t, games)) for t in (lhs, rhs)],
                "context": side,
                "composed": [_value_json(evaluate(fill(t), games)) for t in (lhs, rhs)],
                "witness": witness,
            }
            break
    return CongruenceReport(
        op=op,
        equiv=equiv,
        samples=tried,
        verdict="counterexample" if counter else "congruent-on-sample",
        counterexample=counter,
    )
