"""Power families of games and the structural conditions on them.

A power family collects subsets of a fixed outcome set.  Plain powers are
the outcome sets a player can force with some functional strategy, closed
upward; basic powers are the exact outcome sets of functional strategies;
relational basic powers are the exact outcome sets of relational strategies.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import chain, combinations, filterfalse, product
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
    _as_player,
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
        if p is Player.A:
            sets = [g.row_set(i) for i in range(len(g.rows))]
        else:
            sets = [g.col_set(j) for j in range(len(g.cols))]
        return PowerFamily(g.outcomes, sets)
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
    of p's kind, p's own where p moves.  Choices at p's singleton cells are
    independent, so each node's family folds them in; p's shared cells
    couple nodes, so every assignment to them gets its own pass, joining the
    children it picks.  ``enumerate_strategies`` with ``outcome_set`` agrees.
    """
    mover, other = COMBINE["relational" if relational else "basic"]
    shared = [c for c in g.player_cells(p) if len(c) > 1]
    options = []
    for cell in shared:
        n = g.num_children(cell[0])
        options.append(
            _nonempty_subsets(n) if relational else [(i,) for i in range(n)]
        )
    deepest_first = sorted(g.internal_nodes, key=len, reverse=True)
    leaf_families = {w: leaves.get(o, {frozenset((o,))}) for w, o in g.outcome.items()}
    out: set[frozenset[str]] = set()
    for assignment in product(*options):
        picked = {w: moves for cell, moves in zip(shared, assignment) for w in cell}
        fam = dict(leaf_families)
        for w in deepest_first:
            kids = [fam[c] for c in g.children(w)]
            if w in picked:
                fam[w] = reduce(other, [kids[i] for i in picked[w]])
            else:
                fam[w] = reduce(mover if g.turn[w] is p else other, kids)
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
    out = set()
    universe = frozenset(f.outcomes)
    for m in f._index:
        for extra in _subsets(tuple(universe - m)):
            out.add(m | frozenset(extra))
    return PowerFamily(f.outcomes, out)


def union_closure(f: PowerFamily) -> PowerFamily:
    """Every nonempty union of members of f."""
    nonempty_join = COMBINE["relational"][0]
    return PowerFamily(f.outcomes, reduce(nonempty_join, ({m} for m in f._index), set()))


# -- condition checking ----------------------------------------------------------


class ConditionCheck(Record, witness=None):
    __slots__ = ("name", "holds", "witness")

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


class ConditionProfile:
    """Ordered bundle of named condition checks.

    ``table`` maps each condition's name, in profile order, to a pair of
    functions of ``args``: its verdict, and the witness of its failure.  A
    verdict is decided the first time it is read; a witness is found only
    when a failing check is read.  Both are kept.
    """

    __slots__ = ("_table", "_args", "_verdicts", "_checks")

    def __init__(self, table: dict[str, tuple[Callable, Callable]], args: tuple):
        self._table = table
        self._args = args
        self._verdicts: dict[str, bool] = {}
        self._checks: dict[str, ConditionCheck] = {}

    def __getitem__(self, name: str) -> ConditionCheck:
        check = self._checks.get(name)
        if check is None:
            ok = self.holds(name)
            witness = None if ok else self._table[name][1](*self._args)
            check = self._checks[name] = ConditionCheck(name, ok, witness)
        return check

    def names(self) -> tuple[str, ...]:
        return tuple(self._table)

    @property
    def all_hold(self) -> bool:
        return self.holds(*self._table)

    def holds(self, *names: str) -> bool:
        """Whether the named conditions hold, deciding them in order up to
        the first that fails; no witness is searched for."""
        verdicts = self._verdicts
        for name in names:
            ok = verdicts.get(name)
            if ok is None:
                ok = verdicts[name] = self._table[name][0](*self._args)
            if not ok:
                return False
        return True

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


def _consistency_witness(fa: PowerFamily, fb: PowerFamily) -> dict:
    for p in fa.member_sets():
        for q in fb.member_sets():
            if not (p & q):
                return {"A": sorted(p), "B": sorted(q)}


def _monotone(fam: PowerFamily, other: PowerFamily) -> bool:
    # closure under one-element extensions gives every superset
    index, universe = fam._index, frozenset(fam.outcomes)
    return all(m.union((x,)) in index for m in index for x in universe - m)


def _monotonicity_witness(fam: PowerFamily, other: PowerFamily) -> dict:
    universe = frozenset(fam.outcomes)
    for mset in fam.member_sets():
        for extra in _subsets(tuple(sorted(universe - mset))):
            sup = mset | frozenset(extra)
            if sup not in fam._index:
                return {"member": sorted(mset), "superset": sorted(sup)}


def _undetermined(fam: PowerFamily, other: PowerFamily) -> frozenset | None:
    # the first subset that fam lacks while other lacks its complement
    universe = tuple(sorted(set(fam.outcomes)))
    for sub in _subsets(universe):
        p = frozenset(sub)
        if p not in fam._index and (frozenset(universe) - p) not in other._index:
            return p
    return None


def _reach(fam: PowerFamily) -> frozenset:
    return frozenset().union(*fam._index)


def _instantiatedness_witness(fam: PowerFamily, other: PowerFamily) -> dict:
    reached = _reach(other)
    for p in fam.member_sets():
        if not p <= reached:
            return {"member": sorted(p), "element": min(p - reached)}


def _union_closure_witness(fam: PowerFamily, other: PowerFamily) -> dict:
    pairs = tuple(zip(fam.members, fam.member_sets()))
    for x, xs in pairs:
        for y, ys in pairs:
            u = xs | ys
            if u not in fam._index:
                return {"parts": [list(x), list(y)], "union": sorted(u)}


# Every condition, in profile order, as (verdict, witness), each read from
# one family toward the other.  A verdict is set algebra on the unordered
# member index.  A witness search walks the members in canonical order; it
# runs only after its verdict has failed, so it always finds one.
_CONDITIONS = {
    NON_EMPTINESS: (
        lambda fam, other: bool(fam._index),
        lambda fam, other: {"family": "empty"},
    ),
    MONOTONICITY: (_monotone, _monotonicity_witness),
    CONSISTENCY: (
        lambda fam, other: not any(
            p.isdisjoint(q) for p in fam._index for q in other._index
        ),
        _consistency_witness,
    ),
    DETERMINACY: (
        lambda fam, other: _undetermined(fam, other) is None,
        lambda fam, other: {"subset": sorted(_undetermined(fam, other))},
    ),
    INSTANTIATEDNESS: (
        lambda fam, other: _reach(fam) <= _reach(other),
        _instantiatedness_witness,
    ),
    # pairwise closure is equivalent to closure under nonempty unions
    UNION_CLOSURE: (
        lambda fam, other: all(x | y in fam._index for x in fam._index for y in fam._index),
        _union_closure_witness,
    ),
}


# B's side, whose Consistency witness also names A's member first
_B_SIDE = dict(_CONDITIONS)
_B_SIDE[CONSISTENCY] = (_CONDITIONS[CONSISTENCY][0], lambda fb, fa: _consistency_witness(fa, fb))


def check_conditions(
    fa: PowerFamily, fb: PowerFamily
) -> tuple[ConditionProfile, ConditionProfile]:
    """Profiles of all six conditions from each player's side.

    NonEmptiness, Monotonicity and UnionClosure describe one family;
    Consistency is joint and symmetric, with the same witness in both
    profiles; Determinacy and Instantiatedness are read from the given side
    toward the other.  Building a profile decides nothing: it reads each
    verdict from ``_CONDITIONS`` the first time it is asked for.
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

# the closure that makes each of these conditions hold; both keep
# NonEmptiness and Consistency, and union closure Instantiatedness, as they
# were, so a sampled pair is checked raw and closed only once it is kept
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


def _partner_pool(fa: PowerFamily, pool: Sequence[frozenset], required) -> list[frozenset]:
    inside = filter(_reach(fa).issuperset, pool) if INSTANTIATEDNESS in required else pool
    return list(reduce(lambda sets, m: filterfalse(m.isdisjoint, sets), fa._index, inside))


def random_family_pair(
    rng: Random,
    outcomes: Iterable[str],
    mode: str,
) -> tuple[PowerFamily, PowerFamily]:
    """Rejection-sample a pair of families meeting the mode's conditions, in
    at most 20000 tries (RuntimeError after that).

    Proposals are small random families of nonempty subsets, B's members
    only from sets that meet all of A's, inside A's reach when the mode
    requires Instantiatedness.  A try checks the raw proposals on all but
    Monotonicity (plain) and UnionClosure (relational): only the kept pair
    is closed upward or under unions, which makes that condition hold and
    keeps the others', so it is the pair closing every proposal would keep.
    """
    outcomes = tuple(outcomes)
    required = family_conditions(mode)
    checked = tuple(c for c in required if c not in _CLOSURES)
    closures = [_CLOSURES[c] for c in required if c in _CLOSURES]
    pool = _nonempty_sets(tuple(sorted(outcomes)))

    def proposal(sets: Sequence[frozenset]) -> PowerFamily:
        k = rng.randint(1, _MAX_MEMBERS)
        return PowerFamily(outcomes, [rng.choice(sets) for _ in range(k)])

    for _ in range(_MAX_TRIES):
        fa = proposal(pool)
        fb = proposal(_partner_pool(fa, pool, required))
        pa, pb = check_conditions(fa, fb)
        if pa.holds(*checked) and pb.holds(*checked):
            for close in closures:
                fa, fb = close(fa), close(fb)
            return fa, fb
    raise RuntimeError(f"no {mode} family pair found in {_MAX_TRIES} tries")
