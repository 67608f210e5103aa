"""Game equivalences and bisimulations.

Four relations on games, from finest to coarsest: strategic-form
equivalence (a bisimulation between strategy profiles), strong power
equivalence (equal basic powers), semi-strong power equivalence (equal
relational basic powers) and plain power equivalence (equal forced-set
families).  On neighborhood models, power bisimilarity matches plain boxes
and instantial bisimilarity matches boxes with side formulas.

The strategic form and both model bisimulations are greatest fixpoints,
computed by partition refinement: the coarsest partition of both games' rows
and columns, or of both models' worlds, in which keys sharing a block read
the same over the blocks.  The power equivalences compare the two families
of each player directly.
"""

from __future__ import annotations

from itertools import product

from .games import InputError, Player, Record, StrategicGame, to_strategic_form
from .models import GAME_FRAME, INSTANTIAL_FRAME, NeighborhoodModel, validate_frame
from .powers import POWER_KINDS, basic_powers, upward_closure

POWER = "power"
STRONG = "strong"
SEMI = "semi"
STRATEGIC = "strategic"

# each power equivalence asks for equal families of one power kind
POWER_EQUIVALENCES = {POWER: "plain", STRONG: "basic", SEMI: "relational"}


class InvalidModelError(InputError):
    """A bisimulation query was made against an invalid frame."""


class EquivalenceVerdict(Record, witness=None):
    __slots__ = ("kind", "verdict", "witness")

    def __bool__(self):
        return self.verdict

    def to_json(self) -> dict:
        return {"relation": self.kind, "verdict": self.verdict, "witness": self.witness}


def _require_shared_outcomes(g1, g2):
    if set(g1.outcomes) != set(g2.outcomes):
        raise InputError("games must share an outcome set")


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
    witness = _pair_difference(pair1, pair2)
    return EquivalenceVerdict(kind, witness is None, witness)


def _pair_difference(pair1, pair2) -> dict | None:
    """Compare the member sets of two (A, B) family pairs, A first: the least
    member in canonical order where they differ, or None when they agree."""
    for p, f1, f2 in zip((Player.A, Player.B), pair1, pair2):
        if f1 != f2:
            member = min(f1 ^ f2, key=sorted)
            side = "first" if member in f1 else "second"
            return {"player": p.value, "member": sorted(member), "only_in": side}
    return None


def power_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal plain power families for both players."""
    return _family_split(POWER, g1, g2)


def strongly_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal basic power families for both players."""
    return _family_split(STRONG, g1, g2)


def semi_strongly_equivalent(g1, g2) -> EquivalenceVerdict:
    """Equal relational basic power families for both players."""
    return _family_split(SEMI, g1, g2)


def _coarsest(block: dict, signature) -> dict:
    """The coarsest refinement of block (key -> block id) in which keys that
    share a block share their signature(key, block) over the blocks; each
    round splits every block by signature, until a round splits nothing."""
    while True:
        ids: dict = {}
        refined = {k: ids.setdefault((b, signature(k, block)), len(ids)) for k, b in block.items()}
        if len(ids) == len(set(block.values())):
            return block
        block = refined


def strategic_form_equivalent(g1, g2) -> EquivalenceVerdict:
    """Strategic-form equivalence, read off the coarsest stable partition.

    The bisimulation clauses for a profile pair factor through the row pair
    and the column pair alone, so the greatest one relates the profiles with
    equal outcomes whose rows and whose columns share blocks once both games'
    rows and columns refine each other.  Rows sharing a block read the same
    (column block, outcome) pairs, so it is total exactly when each row of
    game 1 has a row of game 2 in its block: the columns follow, and through
    them game 2's rows.  A failure names the first row of game 1 without one,
    at the first column.  A success lists the row blocks and the column
    blocks as [game-1 labels, game-2 labels], in order of their first label.
    """
    _require_shared_outcomes(g1, g2)
    sgs = [g if isinstance(g, StrategicGame) else to_strategic_form(g) for g in (g1, g2)]
    # a key is (game, 0 for a row or 1 for a column, index); its signature
    # pairs the block of each line crossing it with the outcome there
    shapes = [(range(len(sg.rows)), range(len(sg.cols)), sg.matrix) for sg in sgs]

    def signature(key, block):
        g, line, i = key
        rows, cols, m = shapes[g]
        if line:
            return frozenset((block[g, 0, r], m[r][i]) for r in rows)
        return frozenset((block[g, 1, c], m[i][c]) for c in cols)

    start = {
        (g, line, i): line for g, shape in enumerate(shapes) for line in (0, 1) for i in shape[line]
    }
    block = _coarsest(start, signature)
    matched = {block[1, 0, i] for i in shapes[1][0]}
    for i in shapes[0][0]:
        if block[0, 0, i] not in matched:
            witness = {"game": 1, "profile": [sgs[0].rows[i], sgs[0].cols[0]]}
            return EquivalenceVerdict(STRATEGIC, False, witness)
    # keys run game 1's rows and columns first, so game 1 opens every block
    found = ({}, {})
    for (g, line, i), b in block.items():
        found[line].setdefault(b, [[], []])[g].append((sgs[g].rows, sgs[g].cols)[line][i])
    witness = {"rows": list(found[0].values()), "cols": list(found[1].values())}
    return EquivalenceVerdict(STRATEGIC, True, witness)


EQUIVALENCES = {
    POWER: power_equivalent,
    STRONG: strongly_equivalent,
    SEMI: semi_strongly_equivalent,
    STRATEGIC: strategic_form_equivalent,
}


# -- model bisimulations ----------------------------------------------------------


def _bisimulation(
    m1: NeighborhoodModel, m2: NeighborhoodModel, instantial: bool
) -> set:
    """Greatest bisimulation below the atomic agreement, read off the coarsest
    stable partition of both models' worlds.

    A neighbourhood reads as the set of blocks it meets.  An instantial
    bisimulation (the whole Egli-Milner lift) asks for the same such sets;
    a power bisimulation (one half of it) compares their upward closures,
    so only the least sets count.
    """
    models = (m1, m2)
    # undeclared atoms have empty truth sets, so compare over the union
    names = sorted(set(m1.valuation) | set(m2.valuation))

    def signature(key, block):
        g, u = key
        out = []
        for p in (Player.A, Player.B):
            met = {frozenset(block[g, w] for w in z) for z in models[g].neigh(p, u)}
            if not instantial:
                met = {s for s in met if not any(t < s for t in met)}
            out.append(frozenset(met))
        return tuple(out)

    start = {
        (g, u): tuple(u in m.truth_set(a) for a in names)
        for g, m in enumerate(models)
        for u in m.worlds
    }
    block = _coarsest(start, signature)
    pairs = product(m1.worlds, m2.worlds)
    return {(u1, u2) for u1, u2 in pairs if block[0, u1] == block[1, u2]}


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
        raise InputError("pointed world missing from its model")
    for m in (m1, m2):
        profile = validate_frame(m, frame)
        if not profile.all_hold:
            raise InvalidModelError(
                f"model is not a valid {frame} frame: "
                + ", ".join(profile.failed())
            )
    rel = _bisimulation(m1, m2, instantial=frame == INSTANTIAL_FRAME)
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
