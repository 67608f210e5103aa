"""Power families of games and the structural conditions on them.

A power family collects subsets of a fixed outcome set.  Plain powers are
the outcome sets a player can force with some functional strategy, closed
upward; basic powers are the exact outcome sets of functional strategies;
relational basic powers are the exact outcome sets of relational strategies.
"""

from __future__ import annotations

from functools import cache, partial, reduce
from itertools import chain, combinations, filterfalse, product
from math import prod
from operator import and_, or_
from random import Random
from typing import Callable, Iterable, Sequence

from .games import (
    ROOT,
    ExtensiveGame,
    InputError,
    Player,
    Record,
    StrategicGame,
    _MAX_CLOSURE,
    _as_player,
    _bounded,
    _lookup,
    _nonempty_subsets,
)


class PowerFamily(Record):
    """An immutable family of outcome subsets.

    Size, membership, equality and hashing read an unordered index of the
    member frozensets.  The canonical order, ``members`` as tuples of
    sorted labels and ``member_sets()`` as the same subsets in the same
    order, is built the first time either is read.
    """

    __slots__ = ("outcomes", "_index", "_order")

    def __init__(self, outcomes: Iterable[str], members: Iterable[Iterable[str]]):
        object.__setattr__(self, "outcomes", tuple(outcomes))
        object.__setattr__(self, "_index", frozenset(map(frozenset, members)))

    def _key(self):
        return frozenset(self.outcomes), self._index

    def __reduce__(self):
        return PowerFamily, (self.outcomes, self._index)

    def _ordered(self) -> tuple[tuple, tuple]:
        try:
            return self._order
        except AttributeError:
            by_key = dict(zip(map(tuple, map(sorted, self._index)), self._index))
            keys = tuple(sorted(by_key))
            order = (keys, tuple(map(by_key.__getitem__, keys)))
            object.__setattr__(self, "_order", order)
            return order

    @property
    def members(self) -> tuple[tuple[str, ...], ...]:
        return self._ordered()[0]

    def member_sets(self) -> tuple[frozenset[str], ...]:
        return self._ordered()[1]

    def __contains__(self, member) -> bool:
        return frozenset(member) in self._index

    def __iter__(self):
        return iter(self.member_sets())

    def __len__(self):
        return len(self._index)

    def __repr__(self):
        shown = ",".join("{" + ",".join(m) + "}" for m in self.members)
        return f"PowerFamily[{shown}]"

    def to_json(self) -> dict:
        return {
            "outcomes": list(self.outcomes),
            "members": [list(m) for m in self.members],
        }


def _subsets(universe: tuple[str, ...]):
    return chain.from_iterable(
        combinations(universe, k) for k in range(len(universe) + 1)
    )


@cache
def _nonempty_sets(universe: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(c) for c in _subsets(universe) if c)


# -- powers of games -------------------------------------------------------------


def basic_powers(g: ExtensiveGame | StrategicGame, p: Player) -> PowerFamily:
    """Exact outcome sets of p's functional strategies."""
    p = _as_player(p)
    if isinstance(g, StrategicGame):
        labels, cell_set = (g.rows, g.row_set) if p is Player.A else (g.cols, g.col_set)
        return PowerFamily(g.outcomes, map(cell_set, range(len(labels))))
    return _tree_powers(g, p, relational=False)


def relational_basic_powers(
    g: ExtensiveGame | StrategicGame, p: Player
) -> PowerFamily:
    """Exact outcome sets of p's relational strategies.

    For a strategic game this is the union closure of the basic powers: in
    the canonical one-shot realization each player owns a single information
    cell, so relational strategies are exactly nonempty sets of rows
    (columns), and their guided outcomes are the corresponding unions.
    """
    p = _as_player(p)
    if isinstance(g, StrategicGame):
        return union_closure(basic_powers(g, p))
    return _tree_powers(g, p, relational=True)


def _join(f, g) -> set[frozenset[str]]:
    # every union of a member of f with a member of g
    return {a | b for a in f for b in g}


def _nonempty_join(f, g) -> set[frozenset[str]]:
    # the members of f and of g, and every union of one member of each
    return _join(f, g).union(f, g)


def _nonempty_joins(families, n: int) -> set[frozenset[str]]:
    # _nonempty_join folded over the families, refused before it is built when
    # it may pass _MAX_CLOSURE: min(prod(|F| + 1), 2^n) - 1 sets over n outcomes
    count = min(prod(len(f) + 1 for f in families), 1 << n) - 1
    _bounded("nonempty unions", count, 0, _MAX_CLOSURE)
    return reduce(_nonempty_join, families, set())


# Each power kind's rules at a choice between parts, as binary operations on
# member sets: the mover's, who picks a part (a relational mover a nonempty
# set of them), then the other player's, who answers in every part.  Upward
# closed plain powers join to their intersection: a | b is in each, S is S | S.
COMBINE = {
    "plain": (or_, and_),
    "basic": (or_, _join),
    "relational": (_nonempty_join, _join),
}


def _tree_powers(g: ExtensiveGame, p: Player, relational: bool, leaves={}) -> PowerFamily:
    """Exact outcome sets of p's functional or relational strategies.

    A strategy's outcome set is built bottom-up: a leaf gives the member
    sets ``leaves`` maps its outcome to (a continuation's family), or else
    its singleton; a node combines its children's by the ``COMBINE`` rules
    of p's kind, p's own where p moves (a relational mover's through
    ``_nonempty_joins``, so bounded).  Choices at p's singleton cells are
    independent, so each node's family folds them in; p's shared cells
    couple nodes, so every assignment to them gets its own pass, joining the
    children it picks; more passes than ``_MAX_CLOSURE`` are refused before
    the first.  ``enumerate_strategies`` with ``outcome_set`` agrees.
    """
    mover = partial(_nonempty_joins, n=len(g.outcomes)) if relational else partial(reduce, or_)
    shared = [c for c in g.player_cells(p) if len(c) > 1]
    options = []
    for cell in shared:
        n = g.num_children(cell[0])
        options.append(
            _nonempty_subsets(n) if relational else [(i,) for i in range(n)]
        )
    _bounded("shared-cell passes", prod(map(len, options)), 0, _MAX_CLOSURE)
    deepest_first = sorted(g.internal_nodes, key=len, reverse=True)
    leaf_families = {w: leaves.get(o, {frozenset((o,))}) for w, o in g.outcome.items()}
    out: set[frozenset[str]] = set()
    for assignment in product(*options):
        picked = {w: moves for cell, moves in zip(shared, assignment) for w in cell}
        fam = dict(leaf_families)
        for w in deepest_first:
            kids = [fam[c] for c in g.children(w)]
            if w in picked:
                fam[w] = reduce(_join, [kids[i] for i in picked[w]])
            else:
                fam[w] = mover(kids) if g.turn[w] is p else reduce(_join, kids)
        out |= fam[ROOT]
    return PowerFamily(g.outcomes, out)


def powers(g: ExtensiveGame | StrategicGame, p: Player) -> PowerFamily:
    """Outcome sets p can force: the upward closure of the basic powers."""
    return upward_closure(basic_powers(g, p))


POWER_KINDS = {
    "plain": powers,
    "basic": basic_powers,
    "relational": relational_basic_powers,
}


# -- closures ---------------------------------------------------------------------


def upward_closure(f: PowerFamily) -> PowerFamily:
    universe = frozenset(f.outcomes)
    candidates = sum(1 << len(universe - m) for m in f._index)
    _bounded("upward closure candidates", candidates, 0, _MAX_CLOSURE)
    out = set()
    for m in f._index:
        out.update(map(m.union, _subsets(tuple(universe - m))))
    return PowerFamily(f.outcomes, out)


def union_closure(f: PowerFamily) -> PowerFamily:
    """Every nonempty union of members of f."""
    return PowerFamily(f.outcomes, _nonempty_joins([{m} for m in f._index], len(f.outcomes)))


# -- condition checking ----------------------------------------------------------


class ConditionCheck(Record, witness=None):
    __slots__ = ("name", "holds", "witness")

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


class ConditionProfile:
    """Ordered bundle of named condition checks.

    ``table`` maps each condition's name, in profile order, to one function
    of ``args``: a search in canonical order whose result is both the
    verdict and the witness, the first witness of the condition's failure
    or None when it holds.  Building a profile decides nothing; each check
    is decided the first time it is read, and kept.
    """

    __slots__ = ("_table", "_args", "_checks")

    def __init__(self, table: dict[str, Callable], args: tuple):
        self._table, self._args, self._checks = table, args, {}

    def __getitem__(self, name: str) -> ConditionCheck:
        check = self._checks.get(name)
        if check is None:
            witness = self._table[name](*self._args)
            check = self._checks[name] = ConditionCheck(name, witness is None, witness)
        return check

    def names(self) -> tuple[str, ...]:
        return tuple(self._table)

    @property
    def all_hold(self) -> bool:
        return self.holds(*self._table)

    def holds(self, *names: str) -> bool:
        """Whether the named conditions hold, deciding them in order up to
        the first that fails."""
        return all(self[n].holds for n in names)

    def failed(self) -> tuple[str, ...]:
        return tuple(n for n in self._table if not self.holds(n))

    def to_json(self) -> dict:
        return {n: self[n].to_json() for n in self._table}

    def __repr__(self):
        body = ", ".join(
            f"{n}={'ok' if self.holds(n) else 'FAIL'}" for n in self._table
        )
        return f"ConditionProfile({body})"


NON_EMPTINESS = "NonEmptiness"
MONOTONICITY = "Monotonicity"
CONSISTENCY = "Consistency"
DETERMINACY = "Determinacy"
INSTANTIATEDNESS = "Instantiatedness"
UNION_CLOSURE = "UnionClosure"


def _consistency_witness(fa: PowerFamily, fb: PowerFamily) -> dict | None:
    for p in fa.member_sets():
        for q in fb.member_sets():
            if not (p & q):
                return {"A": sorted(p), "B": sorted(q)}


def _monotonicity_witness(fam: PowerFamily, other: PowerFamily) -> dict | None:
    universe = frozenset(fam.outcomes)
    for mset in fam.member_sets():
        for sup in map(mset.union, _subsets(tuple(sorted(universe - mset)))):
            if sup not in fam._index:
                return {"member": sorted(mset), "superset": sorted(sup)}


def _determinacy_witness(fam: PowerFamily, other: PowerFamily) -> dict | None:
    # the first subset that fam lacks while other lacks its complement
    universe = tuple(sorted(set(fam.outcomes)))
    for p in map(frozenset, _subsets(universe)):
        if p not in fam._index and (frozenset(universe) - p) not in other._index:
            return {"subset": sorted(p)}


def _instantiatedness_witness(fam: PowerFamily, other: PowerFamily) -> dict | None:
    reached = frozenset().union(*other._index)
    for p in fam.member_sets():
        if not p <= reached:
            return {"member": sorted(p), "element": min(p - reached)}


def _union_closure_witness(fam: PowerFamily, other: PowerFamily) -> dict | None:
    pairs = tuple(zip(fam.members, fam.member_sets()))
    for x, xs in pairs:
        for y, ys in pairs:
            u = xs | ys
            if u not in fam._index:
                return {"parts": [list(x), list(y)], "union": sorted(u)}


# Every condition, in profile order, as one search read from one family
# toward the other.  Each walks the members (Determinacy: the subsets) in
# canonical order and returns the first witness of the condition's failure,
# or None once it has walked them all: its result is verdict and witness.
_CONDITIONS = {
    NON_EMPTINESS: lambda fam, other: None if fam._index else {"family": "empty"},
    MONOTONICITY: _monotonicity_witness,
    CONSISTENCY: _consistency_witness,
    DETERMINACY: _determinacy_witness,
    INSTANTIATEDNESS: _instantiatedness_witness,
    # pairwise closure is equivalent to closure under nonempty unions
    UNION_CLOSURE: _union_closure_witness,
}


# B's side, whose Consistency witness also names A's member first
_B_SIDE = {**_CONDITIONS, CONSISTENCY: lambda fb, fa: _consistency_witness(fa, fb)}


def check_conditions(
    fa: PowerFamily, fb: PowerFamily
) -> tuple[ConditionProfile, ConditionProfile]:
    """Profiles of all six conditions from each player's side.

    NonEmptiness, Monotonicity and UnionClosure describe one family;
    Consistency is joint and symmetric, with the same witness in both
    profiles; Determinacy and Instantiatedness are read from the given side
    toward the other.  Building a profile decides nothing: each check is
    one canonical-order search from ``_CONDITIONS``, run the first time it
    is read, whose result is both its verdict and its witness.
    """
    if fa.outcomes != fb.outcomes and set(fa.outcomes) != set(fb.outcomes):
        raise InputError("families must share an outcome set")
    return ConditionProfile(_CONDITIONS, (fa, fb)), ConditionProfile(_B_SIDE, (fb, fa))


# -- seeded sampling --------------------------------------------------------------

_MODE_CONDITIONS = {
    "plain": (NON_EMPTINESS, MONOTONICITY, CONSISTENCY),
    "basic": (NON_EMPTINESS, INSTANTIATEDNESS, CONSISTENCY),
    "relational": (NON_EMPTINESS, INSTANTIATEDNESS, CONSISTENCY, UNION_CLOSURE),
}

# the closure that makes each of these conditions hold; both keep NonEmptiness
# and Consistency, and union closure Instantiatedness, so only a kept pair is closed
_CLOSURES = {MONOTONICITY: upward_closure, UNION_CLOSURE: union_closure}
_MAX_TRIES = 20000  # random_family_pair's tries for one pair
_MAX_MEMBERS = 3  # and the members of each family it proposes


def family_conditions(mode: str) -> tuple[str, ...]:
    """Condition names a family pair of the given kind must satisfy."""
    return _lookup(_MODE_CONDITIONS, mode, "mode")


@cache
def legal_pairs(outcomes: tuple[str, ...], kind: str, max_members: int | None = None):
    """Every pair of families of 1 to ``max_members`` (None: any number of)
    nonempty subsets of the outcomes that meets the kind's conditions; the
    families run by size, then in ``combinations`` order, A's slowest."""
    required = family_conditions(kind)
    subsets = _nonempty_sets(outcomes)
    largest = len(subsets) if max_members is None else max_members
    sizes = range(1, largest + 1)
    families = [PowerFamily(outcomes, f) for n in sizes for f in combinations(subsets, n)]
    return tuple(
        (fa, fb)
        for fa in families
        for fb in families
        if all(side.holds(*required) for side in check_conditions(fa, fb))
    )


def _partner_pool(members, pool: Sequence[frozenset], inside=None) -> list[frozenset]:
    sets = pool if inside is None else filter(inside.issuperset, pool)
    return list(reduce(lambda sets, m: filterfalse(m.isdisjoint, sets), members, sets))


def random_family_pair(
    rng: Random,
    outcomes: Iterable[str],
    mode: str,
) -> tuple[PowerFamily, PowerFamily]:
    """Rejection-sample a pair of families meeting the mode's conditions, in
    at most 20000 tries (RuntimeError after that).

    A try proposes 1 to 3 nonempty subsets for A, then 1 to 3 for B from
    the sets that meet every member of A's, inside A's reach when the mode
    requires Instantiatedness.  So both families are nonempty, the pair is
    consistent and B's reach lies inside A's: a try fails only when the mode
    requires Instantiatedness and B's reach falls short of A's.  The kept
    pair is closed upward (plain) or under unions (relational).
    """
    outcomes = tuple(outcomes)
    required = family_conditions(mode)
    instantiated = INSTANTIATEDNESS in required
    pool = _nonempty_sets(tuple(sorted(outcomes)))
    for _ in range(_MAX_TRIES):
        ma = [rng.choice(pool) for _ in range(rng.randint(1, _MAX_MEMBERS))]
        reach = frozenset().union(*ma)
        partners = _partner_pool(ma, pool, reach if instantiated else None)
        mb = [rng.choice(partners) for _ in range(rng.randint(1, _MAX_MEMBERS))]
        if not instantiated or reach.issubset(chain.from_iterable(mb)):
            fa, fb = PowerFamily(outcomes, ma), PowerFamily(outcomes, mb)
            for close in (_CLOSURES[c] for c in required if c in _CLOSURES):
                fa, fb = close(fa), close(fb)
            return fa, fb
    raise RuntimeError(f"no {mode} family pair found in {_MAX_TRIES} tries")
