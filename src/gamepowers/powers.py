"""Power families of games and the structural conditions on them.

A power family collects subsets of a fixed outcome set.  Plain powers are
the outcome sets a player can force with some functional strategy, closed
upward; basic powers are the exact outcome sets of functional strategies;
relational basic powers are the exact outcome sets of relational strategies.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from random import Random
from typing import Any, Callable, Iterable

from .games import (
    ROOT,
    ExtensiveGame,
    Player,
    Record,
    StrategicGame,
    _as_player,
    _nonempty_subsets,
)


class PowerFamily:
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

    def __setattr__(self, name, value):
        raise AttributeError("PowerFamily is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, PowerFamily):
            return NotImplemented
        return self._index == other._index and set(self.outcomes) == set(other.outcomes)

    def __hash__(self):
        return hash((frozenset(self.outcomes), self._index))

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


def _joins(families) -> set[frozenset[str]]:
    # every union that takes one member from each family
    rest = iter(families)
    acc = set(next(rest, (frozenset(),)))
    for fam in rest:
        acc = {a | b for a in acc for b in fam}
    return acc


def _nonempty_joins(families) -> set[frozenset[str]]:
    # every union that takes one member from each of a nonempty subfamily
    acc: set[frozenset[str]] = set()
    for fam in families:
        acc |= fam | {a | b for a in acc for b in fam}
    return acc


def _tree_powers(g: ExtensiveGame, p: Player, relational: bool) -> PowerFamily:
    """Exact outcome sets of p's functional or relational strategies.

    A strategy's outcome set is assembled bottom-up: at the opponent's nodes
    every child stays reachable, at p's nodes only the chosen ones.  Choices
    at p's singleton cells are independent of each other, so each node's
    family folds them in; p's shared cells couple nodes, so every assignment
    to them gets its own pass.  ``enumerate_strategies`` with ``outcome_set``
    is the definition this agrees with.
    """
    shared = [c for c in g.player_cells(p) if len(c) > 1]
    options = []
    for cell in shared:
        n = g.num_children(cell[0])
        options.append(
            _nonempty_subsets(n) if relational else [(i,) for i in range(n)]
        )
    deepest_first = sorted(g.internal_nodes, key=len, reverse=True)
    leaf_families = {w: {frozenset((g.outcome[w],))} for w in g.leaves}
    out: set[frozenset[str]] = set()
    for assignment in product(*options):
        picked = {w: moves for cell, moves in zip(shared, assignment) for w in cell}
        fam = dict(leaf_families)
        for w in deepest_first:
            kids = [fam[c] for c in g.children(w)]
            if w in picked:
                fam[w] = _joins(kids[i] for i in picked[w])
            elif g.turn[w] is not p:
                fam[w] = _joins(kids)
            elif relational:
                fam[w] = _nonempty_joins(kids)
            else:
                fam[w] = set().union(*kids)
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
    return PowerFamily(f.outcomes, _nonempty_joins({m} for m in f._index))


# -- Egli-Milner lifting ------------------------------------------------------------


def _forth(r, z1, z2) -> bool:
    # every point of z1 has an r-partner in z2
    return all(any((x, y) in r for y in z2) for x in z1)


def _back(r, z1, z2) -> bool:
    # every point of z2 has an r-partner in z1
    return all(any((x, y) in r for x in z1) for y in z2)


def _lift(r, z1, z2) -> bool:
    return _forth(r, z1, z2) and _back(r, z1, z2)


def egli_milner(
    r: Iterable[tuple[Any, Any]], z1: Iterable[Any], z2: Iterable[Any]
) -> bool:
    """Lift relation r to sets: z1 and z2 must cover each other through r."""
    return _lift(set(r), set(z1), set(z2))


# -- condition checking ----------------------------------------------------------


class ConditionCheck(Record, witness=None):
    __slots__ = ("name", "holds", "witness")

    def to_json(self) -> dict:
        return {"holds": self.holds, "witness": self.witness}


class ConditionProfile:
    """Ordered bundle of named condition checks.

    ``verdict(name)`` decides a condition and ``witness(name)`` finds the
    witness of one that fails.  A verdict is decided the first time it is
    read; a witness is found only when a failing check is read.  Both are
    kept.
    """

    __slots__ = ("_names", "_verdict", "_witness", "_verdicts", "_checks")

    def __init__(
        self,
        names: Iterable[str],
        verdict: Callable[[str], bool],
        witness: Callable[[str], Any],
    ):
        self._names = tuple(names)
        self._verdict = verdict
        self._witness = witness
        self._verdicts: dict[str, bool] = {}
        self._checks: dict[str, ConditionCheck] = {}

    def __getitem__(self, name: str) -> ConditionCheck:
        check = self._checks.get(name)
        if check is None:
            ok = self.holds(name)
            check = ConditionCheck(name, ok, None if ok else self._witness(name))
            self._checks[name] = check
        return check

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def all_hold(self) -> bool:
        return self.holds(*self._names)

    def holds(self, *names: str) -> bool:
        """Whether the named conditions hold, deciding them in order up to
        the first that fails; no witness is searched for."""
        verdicts = self._verdicts
        for name in names:
            ok = verdicts.get(name)
            if ok is None:
                if name not in self._names:
                    raise KeyError(name)
                ok = verdicts[name] = self._verdict(name)
            if not ok:
                return False
        return True

    def failed(self) -> tuple[str, ...]:
        return tuple(n for n in self._names if not self.holds(n))

    def to_json(self) -> dict:
        return {n: self[n].to_json() for n in self._names}

    def __repr__(self):
        body = ", ".join(
            f"{n}={'ok' if self.holds(n) else 'FAIL'}" for n in self._names
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
        lambda fam, other: all(p & q for p in fam._index for q in other._index),
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


def _family_profile(fam, other, fa, fb) -> ConditionProfile:
    def witness(name: str):
        # Consistency is joint, so both sides name A's member first
        args = (fa, fb) if name == CONSISTENCY else (fam, other)
        return _CONDITIONS[name][1](*args)

    return ConditionProfile(
        _CONDITIONS, lambda name: _CONDITIONS[name][0](fam, other), witness
    )


def check_conditions(
    fa: PowerFamily, fb: PowerFamily
) -> tuple[ConditionProfile, ConditionProfile]:
    """Profiles of all six conditions from each player's side.

    NonEmptiness, Monotonicity and UnionClosure describe one family;
    Consistency is joint and symmetric, with the same witness in both
    profiles; Determinacy and Instantiatedness are read from the given side
    toward the other.  A verdict is decided when a profile first reads it.
    """
    if set(fa.outcomes) != set(fb.outcomes):
        raise ValueError("families must share an outcome set")
    return _family_profile(fa, fb, fa, fb), _family_profile(fb, fa, fa, fb)


# -- seeded sampling --------------------------------------------------------------

_MODE_CONDITIONS = {
    "plain": (NON_EMPTINESS, MONOTONICITY, CONSISTENCY),
    "basic": (NON_EMPTINESS, INSTANTIATEDNESS, CONSISTENCY),
    "relational": (NON_EMPTINESS, INSTANTIATEDNESS, CONSISTENCY, UNION_CLOSURE),
}


def family_conditions(mode: str) -> tuple[str, ...]:
    """Condition names a family pair of the given kind must satisfy."""
    try:
        return _MODE_CONDITIONS[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None


def random_family_pair(
    rng: Random,
    outcomes: Iterable[str],
    mode: str,
    max_members: int = 3,
    max_tries: int = 20000,
) -> tuple[PowerFamily, PowerFamily]:
    """Rejection-sample a pair of families meeting the mode's conditions.

    Proposals are small random families, closed upward for the plain mode
    and under unions for the relational mode before filtering, which keeps
    the acceptance rate workable without skipping the condition check.
    """
    outcomes = tuple(outcomes)
    required = family_conditions(mode)
    pool = [
        frozenset(c)
        for k in range(1, len(outcomes) + 1)
        for c in combinations(sorted(outcomes), k)
    ]
    for _ in range(max_tries):
        fams = []
        for _side in range(2):
            k = rng.randint(1, max_members)
            f = PowerFamily(outcomes, [rng.choice(pool) for _ in range(k)])
            if mode == "plain":
                f = upward_closure(f)
            elif mode == "relational":
                f = union_closure(f)
            fams.append(f)
        fa, fb = fams
        pa, pb = check_conditions(fa, fb)
        if pa.holds(*required) and pb.holds(*required):
            return fa, fb
    raise RuntimeError(f"no {mode} family pair found in {max_tries} tries")
