"""Neighborhood models over two power relations, and their frame conditions.

A model assigns each player a set of (world, neighborhood) pairs plus a
valuation.  Game frames ask for per-world non-emptiness, monotonicity and
consistency; instantial frames swap monotonicity for instantiatedness.
Truth of ``[P](psi_1..psi_k; phi)`` at u needs a neighborhood Z of u with
Z inside the truth set of phi and Z meeting every truth set of a psi_i.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Iterable, Mapping

from .formulas import MAX_NESTING, And, Atom, Box, Formula, Not, Top
from .games import (
    ExtensiveGame,
    InputError,
    Player,
    Record,
    _as_player,
    _bounded,
    _fields,
    _is_label,
    _is_label_list,
    _lookup,
    _read_json,
    _seeded,
    _sortable_labels,
)
from .powers import (
    CONSISTENCY,
    NON_EMPTINESS,
    POWER_KINDS,
    ConditionProfile,
    PowerFamily,
    _CONDITIONS,
    family_conditions,
    random_family_pair,
    upward_closure,
)


class ModelFormatError(InputError):
    """Raised when serialized model data cannot be decoded."""


class NeighborhoodModel(Record):
    """Immutable two-relation neighborhood model.

    A player's neighborhoods at a world form one PowerFamily over the
    world set.
    """

    __slots__ = ("worlds", "_neigh", "valuation")

    def __init__(
        self,
        worlds: Iterable[str],
        ra: Iterable[tuple[str, Iterable[str]]],
        rb: Iterable[tuple[str, Iterable[str]]],
        valuation: Mapping[str, Iterable[str]] | None = None,
    ):
        worlds = tuple(worlds)
        wset = set(worlds)
        neigh = {}
        for player, rel in ((Player.A, ra), (Player.B, rb)):
            by_world: dict[str, list[frozenset[str]]] = {w: [] for w in worlds}
            for u, zs in rel:
                if u not in wset:
                    raise ModelFormatError(f"unknown world {u!r} in relation")
                z = frozenset(zs)
                if not z <= wset:
                    outside = min(z - wset, key=repr)  # need not sort with worlds
                    raise ModelFormatError(
                        f"neighborhood of {u!r} names {outside!r}, not a world"
                    )
                by_world[u].append(z)
            neigh[player] = {u: PowerFamily(worlds, z) for u, z in by_world.items()}
        self._fill(worlds, neigh, valuation)

    @classmethod
    def _from_families(cls, worlds, neigh, valuation) -> "NeighborhoodModel":
        # neigh maps player and world to a PowerFamily over the world tuple;
        # only the valuation is checked
        m = object.__new__(cls)
        m._fill(worlds, neigh, valuation)
        return m

    def _fill(self, worlds, neigh, valuation) -> None:
        wset = set(worlds)
        val = {}
        for atom, ws in (valuation or {}).items():
            ws = frozenset(ws)
            if not ws <= wset:
                raise ModelFormatError(f"valuation of {atom!r} leaves the world set")
            val[atom] = ws
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "_neigh", neigh)
        object.__setattr__(self, "valuation", val)

    def __reduce__(self):
        return NeighborhoodModel._from_families, (self.worlds, self._neigh, self.valuation)

    def neigh(self, p: Player, u: str) -> tuple[frozenset[str], ...]:
        return self._neigh[_as_player(p)][u].member_sets()

    def truth_set(self, atom: str) -> frozenset[str]:
        return self.valuation.get(atom, frozenset())

    def atoms(self) -> tuple[str, ...]:
        return tuple(sorted(self.valuation))

    def __repr__(self):
        return f"NeighborhoodModel({len(self.worlds)} worlds)"

    def to_json(self) -> dict:
        def rel(p):
            by_world = self._neigh[p]
            return [[u, list(z)] for u in self.worlds for z in by_world[u].members]

        return {
            "worlds": list(self.worlds),
            "RA": rel(Player.A),
            "RB": rel(Player.B),
            "val": {a: sorted(ws) for a, ws in sorted(self.valuation.items())},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "NeighborhoodModel":
        (worlds,) = _fields(
            obj, ("worlds",), ModelFormatError, "model object with 'worlds' expected"
        )
        _sortable_labels(worlds, ModelFormatError, "worlds", nonempty=True)
        ra, rb, val = obj.get("RA", []), obj.get("RB", []), obj.get("val", {})
        if len(set(worlds)) != len(worlds):
            raise ModelFormatError("duplicate world labels")
        for name, rel in (("RA", ra), ("RB", rb)):
            if not isinstance(rel, list) or not all(
                isinstance(e, list) and len(e) == 2 and _is_label(e[0]) and _is_label_list(e[1])
                for e in rel
            ):
                raise ModelFormatError(f"'{name}' must be a list of [world, [worlds]]")
        if not isinstance(val, dict) or not all(map(_is_label_list, val.values())):
            raise ModelFormatError("'val' must map atom names to lists of world labels")
        return cls(worlds, [(u, z) for u, z in ra], [(u, z) for u, z in rb], val)


def load_model(path: str) -> NeighborhoodModel:
    return _read_json(path, ModelFormatError, NeighborhoodModel.from_json)


# -- frame validation --------------------------------------------------------------

GAME_FRAME = "game"
INSTANTIAL_FRAME = "instantial"

# each frame kind asks every world's pair of neighborhood families to meet
# the family conditions of one power kind
FRAME_KINDS = {GAME_FRAME: "plain", INSTANTIAL_FRAME: "basic"}


def validate_frame(m: NeighborhoodModel, kind: str) -> ConditionProfile:
    """Check the kind's three conditions at every world of m.

    A frame is valid when each world's pair of neighborhood families (A's,
    B's) meets the family conditions of the plain mode (game frames) or of
    the basic mode (instantial frames).  A failing condition's witness
    comes from the first failing world, A before B.
    """
    names = family_conditions(_lookup(FRAME_KINDS, kind, "frame kind"))
    fams_a, fams_b = m._neigh[Player.A], m._neigh[Player.B]
    both = ((Player.A, fams_a, fams_b), (Player.B, fams_b, fams_a))

    def condition(name: str):
        # Consistency is one joint check, read from A's side only
        search, sides = _CONDITIONS[name], both[: 1 if name == CONSISTENCY else 2]

        def witness() -> dict | None:
            found = ((u, p, search(own[u], other[u])) for u in m.worlds for p, own, other in sides)
            return next((_frame_witness(name, u, p, w) for u, p, w in found if w is not None), None)

        return witness

    return ConditionProfile({name: condition(name) for name in names}, ())


def _frame_witness(name: str, u: str, p: Player, witness: dict) -> dict:
    # the family check's witness placed at its world; a member is a neighborhood
    if name == CONSISTENCY:
        return {"world": u, **witness}
    out = {"world": u, "player": p.value}
    if name != NON_EMPTINESS:
        rest = dict(witness)
        out["neighborhood"] = rest.pop("member")
        out.update(rest)
    return out


# -- model checking -----------------------------------------------------------------


def model_check(m: NeighborhoodModel, f: Formula) -> frozenset[str]:
    """Truth set of f in m on any model, valid or not; too deep a formula is an InputError."""
    try:
        return _evaluator(f)(m)
    except RecursionError:
        raise InputError(f"formula nested more than {MAX_NESTING} levels deep") from None


def _evaluator(f: Formula) -> Callable[[NeighborhoodModel], frozenset[str]]:
    """f compiled once into a function from models to truth sets.

    Each connective becomes a closure over its operands' closures, so the
    formula is dispatched on once, however many models it is checked on.
    """
    truth = _closure(f, _box)
    return lambda m: truth(m, frozenset(m.worlds))


_NOWHERE: frozenset = frozenset()


def _closure(f: Formula, box):
    # a function of a model and its top truth value (the world set here),
    # giving f's truth value; box(player, scope, instants) reads the boxes.
    # Every truth value lies inside top, so negation is exclusive or.
    if isinstance(f, Atom):
        name = f.name
        return lambda m, top: m.valuation.get(name, _NOWHERE)
    if isinstance(f, Top):
        return lambda m, top: top
    if isinstance(f, Not):
        sub = _closure(f.sub, box)
        return lambda m, top: top ^ sub(m, top)
    if isinstance(f, And):
        left, right = _closure(f.left, box), _closure(f.right, box)
        return lambda m, top: left(m, top) & right(m, top)
    if isinstance(f, Box):
        instants = [_closure(g, box) for g in f.instants]
        return box(_as_player(f.player), _closure(f.scope, box), instants)
    raise TypeError(f"not a formula: {f!r}")


def _box(player: Player, scope, instants):
    # u satisfies [P](psi..; phi) when a neighborhood of u lies inside the
    # truth set of phi and meets the truth set of every psi
    def box(m, top):
        inside = scope(m, top)
        sides = [s(m, top) for s in instants]
        families = m._neigh[player]
        out = []
        for u in m.worlds:
            for z in families[u]._index:
                if z <= inside and not any(map(z.isdisjoint, sides)):
                    out.append(u)
                    break
        return frozenset(out)

    return box


# -- encoding games -------------------------------------------------------------------


def encode_game_as_model(
    g: ExtensiveGame, kind: str = "basic"
) -> tuple[NeighborhoodModel, str]:
    """One-step model of a game: a fresh root world sees the chosen power
    family of each player; outcome worlds see their own singleton.

    For the plain kind every neighborhood family is closed upward inside the
    model's world set, keeping the game-frame conditions intact.  Returns
    the model (empty valuation) together with the root world's label.
    """
    fam_of = _lookup(POWER_KINDS, kind, "power kind")
    root = "root"
    while root in g.outcomes:
        root = "_" + root
    worlds = (root,) + tuple(g.outcomes)
    neigh = {}
    for p in (Player.A, Player.B):
        families = {root: PowerFamily(worlds, fam_of(g, p).members)}
        families.update((w, PowerFamily(worlds, [[w]])) for w in g.outcomes)
        if kind == "plain":
            families = {u: upward_closure(f) for u, f in families.items()}
        neigh[p] = families
    return NeighborhoodModel._from_families(worlds, neigh, {}), root


# -- seeded model generation -----------------------------------------------------------

# each random draw lists all 2^n - 1 nonempty subsets of its n worlds, so
# memory doubles and a pair's draw takes about 1.5 times as long per world
_MAX_WORLDS = 8


def random_model(
    seed: int | Random,
    kind: str = INSTANTIAL_FRAME,
    max_worlds: int = 5,
    atoms: tuple[str, ...] = ("p", "q", "r"),
) -> NeighborhoodModel:
    """Seeded random model that is a valid frame of the requested kind."""
    mode = _lookup(FRAME_KINDS, kind, "frame kind")
    _bounded("max_worlds", max_worlds, 1, _MAX_WORLDS)
    rng = _seeded(seed)
    n = rng.randint(1, max_worlds)
    worlds = tuple(f"w{i}" for i in range(n))
    neigh = {Player.A: {}, Player.B: {}}
    for u in worlds:
        neigh[Player.A][u], neigh[Player.B][u] = random_family_pair(rng, worlds, mode)
    val = {
        a: frozenset(w for w in worlds if rng.random() < 0.5) for a in atoms
    }
    return NeighborhoodModel._from_families(worlds, neigh, val)
