"""Game equivalences and bisimulations.

Four relations on games, from finest to coarsest: strategic-form
equivalence (a bisimulation between strategy profiles), strong power
equivalence (equal basic powers), semi-strong power equivalence (equal
relational basic powers) and plain power equivalence (equal forced-set
families).  On neighborhood models, power bisimilarity matches plain boxes
and instantial bisimilarity matches boxes with side formulas.

All four relations and both bisimulations are greatest fixpoints of an
Egli-Milner lift (``powers.egli_milner``): the profile bisimulation refines
its column pairs through the lift of its row pairs and back, the three power
equivalences lift the identity on members to families, and the model
bisimulations lift the relation on worlds, or one half of it, to
neighbourhoods.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterable

from .games import Player, Record, StrategicGame, to_strategic_form
from .models import GAME_FRAME, INSTANTIAL_FRAME, NeighborhoodModel, validate_frame
from .powers import (
    POWER_KINDS,
    _back,
    _forth,
    _lift,
    basic_powers,
    egli_milner,
    upward_closure,
)

POWER = "power"
STRONG = "strong"
SEMI = "semi"
STRATEGIC = "strategic"

# each power equivalence asks for equal families of one power kind
POWER_EQUIVALENCES = {POWER: "plain", STRONG: "basic", SEMI: "relational"}


class InvalidModelError(ValueError):
    """A bisimulation query was made against an invalid frame."""


class EquivalenceVerdict(Record):
    __slots__ = ("kind", "verdict", "witness")

    def __init__(self, kind: str, verdict: bool, witness: Any = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness", witness)

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {"relation": self.kind, "verdict": self.verdict, "witness": self.witness}


def _require_shared_outcomes(g1, g2):
    if set(g1.outcomes) != set(g2.outcomes):
        raise ValueError("games must share an outcome set")


def _family_split(kind, g1, g2) -> EquivalenceVerdict:
    _require_shared_outcomes(g1, g2)
    fn = POWER_KINDS[POWER_EQUIVALENCES[kind]]
    players = (Player.A, Player.B)
    # generators, so B's families are built only when A's agree
    return _pair_split(
        kind,
        (fn(g1, p)._index for p in players),
        (fn(g2, p)._index for p in players),
    )


def _pair_split(kind, pair1, pair2) -> EquivalenceVerdict:
    """Compare the member sets of two (A, B) family pairs, A first; the
    witness is the least member in canonical order where they differ."""
    for p, f1, f2 in zip((Player.A, Player.B), pair1, pair2):
        if f1 != f2:
            member = min(f1 ^ f2, key=sorted)
            side = "first" if member in f1 else "second"
            return EquivalenceVerdict(
                kind,
                False,
                {"player": p.value, "member": sorted(member), "only_in": side},
            )
    return EquivalenceVerdict(kind, True)


def power_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal plain power families for both players."""
    return _family_split(POWER, g1, g2)


def strongly_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal basic power families for both players."""
    return _family_split(STRONG, g1, g2)


def semi_strongly_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal relational basic power families for both players."""
    return _family_split(SEMI, g1, g2)


def _refine(m1, m2, cols: set, rows: set) -> set:
    """The column pairs of cols whose columns lift to each other through the
    row pairs of rows that meet in equal outcomes."""
    return {
        (j1, j2)
        for j1, j2 in cols
        if egli_milner(
            {(i1, i2) for i1, i2 in rows if m1[i1][j1] == m2[i2][j2]},
            range(len(m1)),
            range(len(m2)),
        )
    }


def strategic_form_equivalent(g1, g2) -> EquivalenceVerdict:
    """Greatest profile bisimulation, then a totality check.

    The bisimulation clauses for a profile pair factor through the row pair
    and the column pair alone: the A-clauses quantify rows with the columns
    held fixed and the B-clauses do the opposite.  The greatest fixpoint is
    therefore the profile pairs with equal outcomes whose column pair and row
    pair survive, each refined through the other until both are stable.
    """
    _require_shared_outcomes(g1, g2)
    sg1 = g1 if isinstance(g1, StrategicGame) else to_strategic_form(g1)
    sg2 = g2 if isinstance(g2, StrategicGame) else to_strategic_form(g2)
    m1, m2 = sg1.matrix, sg2.matrix
    t1, t2 = tuple(zip(*m1)), tuple(zip(*m2))
    cols = set(product(range(len(sg1.cols)), range(len(sg2.cols))))
    rows = set(product(range(len(sg1.rows)), range(len(sg2.rows))))
    while True:
        new_cols = _refine(m1, m2, cols, rows)
        new_rows = _refine(t1, t2, rows, new_cols)
        if (new_cols, new_rows) == (cols, rows):
            break
        cols, rows = new_cols, new_rows
    relation = sorted(
        (i1, j1, i2, j2)
        for i1, i2 in rows
        for j1, j2 in cols
        if m1[i1][j1] == m2[i2][j2]
    )
    for game, sg, covered in (
        (1, sg1, {r[:2] for r in relation}),
        (2, sg2, {r[2:] for r in relation}),
    ):
        for i, j in product(range(len(sg.rows)), range(len(sg.cols))):
            if (i, j) not in covered:
                witness = {"game": game, "profile": [sg.rows[i], sg.cols[j]]}
                return EquivalenceVerdict(STRATEGIC, False, witness)
    bisimulation = [
        [sg1.rows[i1], sg1.cols[j1], sg2.rows[i2], sg2.cols[j2]]
        for i1, j1, i2, j2 in relation
    ]
    return EquivalenceVerdict(STRATEGIC, True, {"bisimulation": bisimulation})


EQUIVALENCES = {
    POWER: power_equivalent,
    STRONG: strongly_equivalent,
    SEMI: semi_strongly_equivalent,
    STRATEGIC: strategic_form_equivalent,
}


def strategy_bisimulation_check(
    g1, g2, r: Iterable[tuple[str, str]]
) -> EquivalenceVerdict:
    """Lift relation r on outcomes to basic power families of both players.

    Every basic power of either game must stand in the Egli-Milner lift of
    r to some basic power of the other game, per player.
    """
    pairs = set(r)
    flipped = {(b, a) for a, b in pairs}
    for p in (Player.A, Player.B):
        f1, f2 = basic_powers(g1, p), basic_powers(g2, p)
        for side, relation, here, there in (
            ("first", pairs, f1, f2),
            ("second", flipped, f2, f1),
        ):
            for z in here:
                if not any(egli_milner(relation, z, w) for w in there):
                    return EquivalenceVerdict(
                        "strategy-bisimulation",
                        False,
                        {"player": p.value, "member": sorted(z), "side": side},
                    )
    return EquivalenceVerdict("strategy-bisimulation", True)


# -- model bisimulations ----------------------------------------------------------


def _atomic_pairs(m1: NeighborhoodModel, m2: NeighborhoodModel) -> set:
    # undeclared atoms have empty truth sets, so compare over the union
    names = set(m1.valuation) | set(m2.valuation)
    return {
        (u1, u2)
        for u1 in m1.worlds
        for u2 in m2.worlds
        if all(
            (u1 in m1.truth_set(a)) == (u2 in m2.truth_set(a)) for a in names
        )
    }


def _bisim_fixpoint(
    m1: NeighborhoodModel, m2: NeighborhoodModel, instantial: bool
) -> set:
    """Greatest bisimulation below the atomic agreement.

    Each neighbourhood of either side needs a partner on the other side.  A
    power bisimulation asks the partner's points to be covered (one half of
    the Egli-Milner lift, read toward the partner); an instantial
    bisimulation asks the whole lift.
    """
    rel = _atomic_pairs(m1, m2)
    zig, zag = (_lift, _lift) if instantial else (_back, _forth)
    changed = True
    while changed:
        changed = False
        for u1, u2 in sorted(rel):
            if not all(
                all(any(zig(rel, z1, z2) for z2 in n2) for z1 in n1)
                and all(any(zag(rel, z1, z2) for z1 in n1) for z2 in n2)
                for n1, n2 in (
                    (m1.neigh(p, u1), m2.neigh(p, u2)) for p in (Player.A, Player.B)
                )
            ):
                rel.discard((u1, u2))
                changed = True
    return rel


def power_bisimilar(
    m1: NeighborhoodModel, w1: str, m2: NeighborhoodModel, w2: str
) -> EquivalenceVerdict:
    """Greatest power bisimulation between two pointed game models."""
    return _model_bisim("power", GAME_FRAME, m1, w1, m2, w2)


def instantial_bisimilar(
    m1: NeighborhoodModel, w1: str, m2: NeighborhoodModel, w2: str
) -> EquivalenceVerdict:
    """Greatest instantial bisimulation between two pointed models."""
    return _model_bisim("instantial", INSTANTIAL_FRAME, m1, w1, m2, w2)


BISIMULATIONS = {
    "power": power_bisimilar,
    "instantial": instantial_bisimilar,
}


def _model_bisim(kind, frame, m1, w1, m2, w2) -> EquivalenceVerdict:
    if w1 not in m1.worlds or w2 not in m2.worlds:
        raise ValueError("pointed world missing from its model")
    for m in (m1, m2):
        profile = validate_frame(m, frame)
        if not profile.all_hold:
            raise InvalidModelError(
                f"model is not a valid {frame} frame: "
                + ", ".join(profile.failed())
            )
    rel = _bisim_fixpoint(m1, m2, instantial=frame == INSTANTIAL_FRAME)
    name = f"{kind}-bisimulation"
    if (w1, w2) in rel:
        return EquivalenceVerdict(
            name, True, {"bisimulation": [list(p) for p in sorted(rel)]}
        )
    return EquivalenceVerdict(name, False, {"w1": w1, "w2": w2})


# -- hierarchy ---------------------------------------------------------------------

_IMPLICATIONS = (
    (STRATEGIC, STRONG),
    (STRONG, SEMI),
    (STRONG, POWER),
    (SEMI, POWER),
)


class HierarchyReport(Record):
    __slots__ = ("verdicts", "violations")  # verdicts by relation name

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "verdicts": {k: v.to_json() for k, v in self.verdicts.items()},
            "violations": list(self.violations),
            "consistent": self.consistent,
        }


def hierarchy_audit(g1, g2) -> HierarchyReport:
    """Evaluate all four game equivalences and cross-check the implications.

    A violated implication is reported, never repaired: it would mean a bug
    in one of the power computations.  Plain powers are upward closures.
    """
    basic = [[basic_powers(g, p) for p in (Player.A, Player.B)] for g in (g1, g2)]
    verdicts = {
        POWER: _pair_split(POWER, *([upward_closure(f)._index for f in fs] for fs in basic)),
        STRONG: _pair_split(STRONG, *([f._index for f in fs] for fs in basic)),
        SEMI: semi_strongly_equivalent(g1, g2),
        STRATEGIC: strategic_form_equivalent(g1, g2),
    }
    violations = tuple(
        f"{stronger} holds but {weaker} fails"
        for stronger, weaker in _IMPLICATIONS
        if verdicts[stronger].verdict and not verdicts[weaker].verdict
    )
    return HierarchyReport(verdicts, violations)
