"""Game equivalences and bisimulations.

Four relations on games, from finest to coarsest: strategic-form
equivalence (a bisimulation between strategy profiles), strong power
equivalence (equal basic powers), semi-strong power equivalence (equal
relational basic powers) and plain power equivalence (equal forced-set
families).  On neighborhood models, power bisimilarity matches plain boxes
and instantial bisimilarity matches boxes with side formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from .games import (
    ExtensiveGame,
    Player,
    StrategicGame,
    to_strategic_form,
)
from .models import (
    GAME_FRAME,
    INSTANTIAL_FRAME,
    NeighborhoodModel,
    validate_frame,
)
from .powers import (
    basic_powers,
    egli_milner,
    powers,
    relational_basic_powers,
)

POWER = "power"
STRONG = "strong"
SEMI = "semi"
STRATEGIC = "strategic"


class InvalidModelError(ValueError):
    """A bisimulation query was made against an invalid frame."""


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: str
    verdict: bool
    witness: Any = None

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {"relation": self.kind, "verdict": self.verdict, "witness": self.witness}


def _require_shared_outcomes(g1, g2):
    if set(g1.outcomes) != set(g2.outcomes):
        raise ValueError("games must share an outcome set")


def _family_split(kind, fn, g1, g2) -> EquivalenceVerdict:
    _require_shared_outcomes(g1, g2)
    for p in (Player.A, Player.B):
        f1, f2 = fn(g1, p), fn(g2, p)
        if f1 != f2:
            left, right = set(f1.members), set(f2.members)
            for member in sorted(left ^ right):
                side = "first" if member in left else "second"
                return EquivalenceVerdict(
                    kind,
                    False,
                    {"player": p.value, "member": list(member), "only_in": side},
                )
    return EquivalenceVerdict(kind, True)


def power_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal plain power families for both players."""
    return _family_split(POWER, powers, g1, g2)


def strongly_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal basic power families for both players."""
    return _family_split(STRONG, basic_powers, g1, g2)


def semi_strongly_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal relational basic power families for both players."""
    return _family_split(SEMI, relational_basic_powers, g1, g2)


def strategic_form_equivalent(g1, g2) -> EquivalenceVerdict:
    """Greatest profile bisimulation, then a totality check.

    The bisimulation clauses for a profile pair factor through the row pair
    and the column pair alone: the A-clauses quantify rows with the columns
    held fixed and the B-clauses do the opposite.  The greatest fixpoint is
    therefore Atomic /\\ fa(cols) /\\ fb(rows) for two boolean tables
    refined to stability, which this computes directly.
    """
    _require_shared_outcomes(g1, g2)
    sg1 = g1 if isinstance(g1, StrategicGame) else to_strategic_form(g1)
    sg2 = g2 if isinstance(g2, StrategicGame) else to_strategic_form(g2)
    m1, m2 = sg1.matrix, sg2.matrix
    a1, b1 = len(sg1.rows), len(sg1.cols)
    a2, b2 = len(sg2.rows), len(sg2.cols)
    fa = [[True] * b2 for _ in range(b1)]
    fb = [[True] * a2 for _ in range(a1)]

    def related(i1, j1, i2, j2):
        return m1[i1][j1] == m2[i2][j2] and fa[j1][j2] and fb[i1][i2]

    changed = True
    while changed:
        changed = False
        for j1 in range(b1):
            for j2 in range(b2):
                if not fa[j1][j2]:
                    continue
                ok = all(
                    any(related(i1, j1, i2, j2) for i2 in range(a2))
                    for i1 in range(a1)
                ) and all(
                    any(related(i1, j1, i2, j2) for i1 in range(a1))
                    for i2 in range(a2)
                )
                if not ok:
                    fa[j1][j2] = False
                    changed = True
        for i1 in range(a1):
            for i2 in range(a2):
                if not fb[i1][i2]:
                    continue
                ok = all(
                    any(related(i1, j1, i2, j2) for j2 in range(b2))
                    for j1 in range(b1)
                ) and all(
                    any(related(i1, j1, i2, j2) for j1 in range(b1))
                    for j2 in range(b2)
                )
                if not ok:
                    fb[i1][i2] = False
                    changed = True

    for i1 in range(a1):
        for j1 in range(b1):
            if not any(
                related(i1, j1, i2, j2)
                for i2 in range(a2)
                for j2 in range(b2)
            ):
                return EquivalenceVerdict(
                    STRATEGIC,
                    False,
                    {"game": 1, "profile": [sg1.rows[i1], sg1.cols[j1]]},
                )
    for i2 in range(a2):
        for j2 in range(b2):
            if not any(
                related(i1, j1, i2, j2)
                for i1 in range(a1)
                for j1 in range(b1)
            ):
                return EquivalenceVerdict(
                    STRATEGIC,
                    False,
                    {"game": 2, "profile": [sg2.rows[i2], sg2.cols[j2]]},
                )
    relation = [
        [sg1.rows[i1], sg1.cols[j1], sg2.rows[i2], sg2.cols[j2]]
        for i1 in range(a1)
        for j1 in range(b1)
        for i2 in range(a2)
        for j2 in range(b2)
        if related(i1, j1, i2, j2)
    ]
    return EquivalenceVerdict(STRATEGIC, True, {"bisimulation": relation})


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
    pairs = list(r)
    for p in (Player.A, Player.B):
        f1, f2 = basic_powers(g1, p), basic_powers(g2, p)
        for z1 in f1.member_sets():
            if not any(egli_milner(pairs, z1, z2) for z2 in f2.member_sets()):
                return EquivalenceVerdict(
                    "strategy-bisimulation",
                    False,
                    {"player": p.value, "member": sorted(z1), "side": "first"},
                )
        flipped = [(b, a) for a, b in pairs]
        for z2 in f2.member_sets():
            if not any(egli_milner(flipped, z2, z1) for z1 in f1.member_sets()):
                return EquivalenceVerdict(
                    "strategy-bisimulation",
                    False,
                    {"player": p.value, "member": sorted(z2), "side": "second"},
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
    rel = _atomic_pairs(m1, m2)

    def covers_back(z1, z2):  # every point of z2 has a partner in z1
        return all(any((v, vp) in rel for v in z1) for vp in z2)

    def covers_forth(z1, z2):  # every point of z1 has a partner in z2
        return all(any((v, vp) in rel for vp in z2) for v in z1)

    def matches(z1, z2):
        if instantial:
            return covers_back(z1, z2) and covers_forth(z1, z2)
        return covers_back(z1, z2)

    def matches_back(z1, z2):
        if instantial:
            return covers_back(z1, z2) and covers_forth(z1, z2)
        return covers_forth(z1, z2)

    changed = True
    while changed:
        changed = False
        for u1, u2 in sorted(rel):
            ok = True
            for p in (Player.A, Player.B):
                n1, n2 = m1.neigh(p, u1), m2.neigh(p, u2)
                if not all(any(matches(z1, z2) for z2 in n2) for z1 in n1):
                    ok = False
                    break
                if not all(any(matches_back(z1, z2) for z1 in n1) for z2 in n2):
                    ok = False
                    break
            if not ok:
                rel.discard((u1, u2))
                changed = True
    return rel


def _check_models(kind: str, *models: NeighborhoodModel):
    frame = GAME_FRAME if kind == "power" else INSTANTIAL_FRAME
    for m in models:
        profile = validate_frame(m, frame)
        if not profile.all_hold:
            raise InvalidModelError(
                f"model is not a valid {frame} frame: "
                + ", ".join(profile.failed())
            )


def power_bisimilar(
    m1: NeighborhoodModel, w1: str, m2: NeighborhoodModel, w2: str
) -> EquivalenceVerdict:
    """Greatest power bisimulation between two pointed game models."""
    return _model_bisim("power", m1, w1, m2, w2, instantial=False)


def instantial_bisimilar(
    m1: NeighborhoodModel, w1: str, m2: NeighborhoodModel, w2: str
) -> EquivalenceVerdict:
    """Greatest instantial bisimulation between two pointed models."""
    return _model_bisim("instantial", m1, w1, m2, w2, instantial=True)


def _model_bisim(kind, m1, w1, m2, w2, instantial) -> EquivalenceVerdict:
    if w1 not in m1.worlds or w2 not in m2.worlds:
        raise ValueError("pointed world missing from its model")
    _check_models(kind, m1, m2)
    rel = _bisim_fixpoint(m1, m2, instantial)
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


@dataclass(frozen=True)
class HierarchyReport:
    verdicts: dict[str, EquivalenceVerdict]
    violations: tuple[str, ...]

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
    in one of the power computations.
    """
    verdicts = {
        POWER: power_equivalent(g1, g2),
        STRONG: strongly_equivalent(g1, g2),
        SEMI: semi_strongly_equivalent(g1, g2),
        STRATEGIC: strategic_form_equivalent(g1, g2),
    }
    violations = tuple(
        f"{stronger} holds but {weaker} fails"
        for stronger, weaker in _IMPLICATIONS
        if verdicts[stronger].verdict and not verdicts[weaker].verdict
    )
    return HierarchyReport(verdicts, violations)
