"""Axiom schema instantiation, seeded soundness sweeps, and countermodel search.

Eight schemata govern the instantial box and are evaluated on valid
instantial frames; three more use empty-side boxes only and are evaluated
on plain game frames.  A soundness sweep cycles schema instances over
seeded random valid models and reports every world where an instance
fails.  Countermodel search enumerates small valid instantial models
exhaustively, then falls back to seeded random sampling, spending a
deterministic evaluation budget instead of wall-clock time.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import product
from operator import or_
from random import Random
from types import SimpleNamespace

from .formulas import (
    FALSUM,
    TOP,
    And,
    Box,
    Formula,
    Not,
    atoms,
    format_formula,
    implies,
    iff,
    lor,
    parse_formula,
    random_formula,
)
from .games import Player, Record, _bounded, _lookup, _seeded
from .models import (
    FRAME_KINDS,
    GAME_FRAME,
    INSTANTIAL_FRAME,
    NeighborhoodModel,
    _MAX_WORLDS,
    _closure,
    _evaluator,
    model_check,
    random_model,
)
from .powers import _subsets, legal_pairs

META_ATOMS = ("p", "q", "r")
META_DEPTH = 2
_SOUNDNESS_WORLDS = 5  # the most worlds a soundness sweep's model has


def _meta(rng: Random, instantial: bool = True) -> Formula:
    return random_formula(rng, META_DEPTH, META_ATOMS, instantial)


def _sides(rng: Random, instantial: bool = True) -> list[Formula]:
    # plain boxes carry no side formulas, so none are drawn for them
    drawn = [_meta(rng) for _ in range(rng.randint(0, 2))] if instantial else []
    return list(dict.fromkeys(drawn))


def _player(rng: Random) -> Player:
    return rng.choice((Player.A, Player.B))


def _monotonicity(rng: Random, instantial: bool = True) -> Formula:
    p = _player(rng)
    sides = _sides(rng, instantial)
    scope = _meta(rng, instantial)
    widened = [lor(s, _meta(rng)) for s in sides]
    return implies(
        Box(p, frozenset(sides), scope),
        Box(p, frozenset(widened), lor(scope, _meta(rng, instantial))),
    )


def _weakening(rng: Random) -> Formula:
    p = _player(rng)
    sides = _sides(rng)
    scope = _meta(rng)
    kept = [s for s in sides if rng.random() < 0.5]
    return implies(Box(p, frozenset(sides), scope), Box(p, frozenset(kept), scope))


def _union(rng: Random) -> Formula:
    p = _player(rng)
    sides = _sides(rng)
    scope = _meta(rng)
    merged = [And(s, scope) for s in sides]
    return implies(Box(p, frozenset(sides), scope), Box(p, frozenset(merged), scope))


def _case_split(rng: Random) -> Formula:
    p = _player(rng)
    sides = _sides(rng)
    scope = _meta(rng)
    gamma = _meta(rng)
    have = Box(p, frozenset(sides), scope)
    join = Box(p, frozenset(sides) | {gamma}, scope)
    split = Box(p, frozenset(sides), And(scope, Not(gamma)))
    return implies(have, lor(join, split))


def _falsum_side(rng: Random) -> Formula:
    return Not(Box(_player(rng), frozenset([FALSUM]), _meta(rng)))


def _non_emptiness(rng: Random) -> Formula:
    return Box(_player(rng), frozenset(), TOP)


def _instantiatedness(rng: Random) -> Formula:
    p = _player(rng)
    side = frozenset([_meta(rng)])
    return iff(Box(p, side, TOP), Box(p.dual, side, TOP))


def _consistency(rng: Random, instantial: bool = True) -> Formula:
    p = _player(rng)
    scope = _meta(rng, instantial)
    return implies(
        Box(p, frozenset(), scope), Not(Box(p.dual, frozenset(), Not(scope)))
    )


# every schema, in sweep order, with the frame kind it is sound on
_BUILDERS = {
    "monotonicity": (_monotonicity, INSTANTIAL_FRAME),
    "weakening": (_weakening, INSTANTIAL_FRAME),
    "union": (_union, INSTANTIAL_FRAME),
    "case-split": (_case_split, INSTANTIAL_FRAME),
    "falsum-side": (_falsum_side, INSTANTIAL_FRAME),
    "non-emptiness": (_non_emptiness, INSTANTIAL_FRAME),
    "instantiatedness": (_instantiatedness, INSTANTIAL_FRAME),
    "consistency": (_consistency, INSTANTIAL_FRAME),
    "plain-non-emptiness": (_non_emptiness, GAME_FRAME),
    "plain-monotonicity": (partial(_monotonicity, instantial=False), GAME_FRAME),
    "plain-consistency": (partial(_consistency, instantial=False), GAME_FRAME),
}
ALL_SCHEMATA = tuple(_BUILDERS)


def schema_instance(name: str, seed: int | Random) -> Formula:
    """A concrete instance of the named schema with seeded side formulas."""
    builder, _ = _lookup(_BUILDERS, name, "schema:")
    return builder(_seeded(seed))


class SoundnessReport(Record):
    __slots__ = ("seed", "samples", "counts", "violations")

    def __init__(self, seed: int, samples: int, counts=None, violations: tuple = ()):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "counts", {} if counts is None else counts)
        object.__setattr__(self, "violations", violations)

    def __bool__(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "counts": dict(self.counts),
            "violations": list(self.violations),
        }


def axiom_soundness_suite(seed: int, samples: int = 1000) -> SoundnessReport:
    """Cycle schema instances over seeded random valid models of 1 to 5 worlds.

    Every instance must hold at every world of its model; any other
    outcome is recorded as a violation with the failing worlds attached.
    """
    _bounded("samples", samples, 0)
    rng = Random(seed)
    counts = {name: 0 for name in ALL_SCHEMATA}
    violations = []
    for i in range(samples):
        name = ALL_SCHEMATA[i % len(ALL_SCHEMATA)]
        builder, kind = _BUILDERS[name]
        instance = builder(rng)
        m = random_model(rng, kind, _SOUNDNESS_WORLDS, META_ATOMS)
        counts[name] += 1
        extension = model_check(m, instance)
        if extension != frozenset(m.worlds):
            violations.append(
                {
                    "schema": name,
                    "formula": format_formula(instance),
                    "model": m.to_json(),
                    "failing": sorted(set(m.worlds) - extension),
                }
            )
    return SoundnessReport(seed, samples, counts, tuple(violations))


# -- countermodel search ------------------------------------------------------------

EXHAUSTIVE_WORLDS = 3
# family-size caps per world count keep the frame space enumerable
_FAMILY_CAPS = {1: 3, 2: 2, 3: 1}


def _row_box(player: Player, scope, instants):
    # _closure's box over one frame under a block of valuation rows, where a
    # truth value is one int whose bit u * width + j is world u's truth under
    # row j: fr.neigh[player] gives each world's u * width and neighborhoods
    # as bit offsets, fr.row is width one bits
    def box(fr, top):
        inside = scope(fr, top)
        sides = [s(fr, top) for s in instants]
        out = 0
        for at, zs in fr.neigh[player]:
            for z in zs:
                hit = fr.row
                for w in z:
                    hit &= inside >> w
                for side in sides:
                    hit &= reduce(or_, [side >> w for w in z], 0)
                out |= hit << at
        return out

    return box


def _atom_rows(k: int, n: int, width: int) -> list[int]:
    # the truth values of n atoms over k worlds in the first `width` rows,
    # numbered as itertools.product numbers the rows: atom i takes each
    # subset of the worlds in turn for a run of (2^k)^(n-1-i) rows
    subsets = list(_subsets(range(k)))
    out = [0] * n
    for i, u in product(range(n), range(k)):
        run = min(len(subsets) ** (n - 1 - i), width)
        period = "".join(("1" if u in z else "0") * run for z in subsets)
        rows = period * -(-width // len(period))  # row j is character j
        out[i] |= int(rows[width - 1 :: -1], 2) << u * width
    return out


class SearchResult(Record):
    # model and world are None when nothing was found
    __slots__ = ("formula", "found", "model", "world", "phase", "evaluations", "budget")

    def __bool__(self) -> bool:
        return self.found

    def to_json(self) -> dict:
        fields = {name: getattr(self, name) for name in self.__slots__}
        return {**fields, "model": None if self.model is None else self.model.to_json()}


def countermodel_search(
    f: Formula | str,
    max_worlds: int = 5,
    seed: int = 0,
    budget_ms: int = 1000,
) -> SearchResult:
    """Look for a valid instantial model and world where ``f`` fails.

    Exhausts models with up to three worlds first (under the family-size
    caps), deciding all valuation rows of a frame at once, then samples
    seeded random models up to ``max_worlds``, which must lie between 1
    and 8 (InputError otherwise).  The budget, at least 1 nominal
    millisecond, is spent as ten evaluations per millisecond, one
    evaluation being one valuation row of one frame or one random model,
    so runs replay exactly.  A not-found result is only a bounded search
    coming up empty, never a validity proof.
    """
    if isinstance(f, str):
        f = parse_formula(f)
    _bounded("max_worlds", max_worlds, 1, _MAX_WORLDS)
    _bounded("budget_ms", budget_ms, 1)
    text = format_formula(f)
    names = tuple(sorted(atoms(f)))
    evaluate = _evaluator(f)
    rows_truth = _closure(f, _row_box)
    budget = budget_ms * 10
    spent = 0

    for k in range(1, min(EXHAUSTIVE_WORLDS, max_worlds) + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        pairs = legal_pairs(worlds, FRAME_KINDS[INSTANTIAL_FRAME], _FAMILY_CAPS[k])
        rows = 2 ** (k * len(names))
        # rows past the budget are never read, so none is built
        width = max(min(rows, budget - spent), 1)
        valuation = dict(zip(names, _atom_rows(k, len(names), width)))
        at = {w: u * width for u, w in enumerate(worlds)}
        offsets = [
            [tuple(tuple(at[w] for w in z) for z in fam._index) for fam in pair]
            for pair in pairs
        ]
        top = (1 << k * width) - 1
        for assignment in product(range(len(pairs)), repeat=k):
            cut = min(rows, budget - spent)
            if cut <= 0:
                return SearchResult(text, False, None, None, "budget", spent, budget)
            neigh = {
                p: [(u * width, offsets[i][side]) for u, i in enumerate(assignment)]
                for side, p in enumerate((Player.A, Player.B))
            }
            fr = SimpleNamespace(valuation=valuation, neigh=neigh, row=(1 << width) - 1)
            failing = top ^ rows_truth(fr, top)
            refuted = reduce(or_, [failing >> u for u in at.values()]) & (1 << cut) - 1
            if not refuted:
                spent += cut
                continue
            j = (refuted & -refuted).bit_length() - 1
            world = next(w for w in worlds if failing >> at[w] + j & 1)
            refuting = {a: [w for w in worlds if bits >> at[w] + j & 1]
                        for a, bits in valuation.items()}
            fams = zip(*(pairs[i] for i in assignment))  # A's, then B's
            neigh = {p: dict(zip(worlds, fs)) for p, fs in zip((Player.A, Player.B), fams)}
            m = NeighborhoodModel._from_families(worlds, neigh, refuting)
            return SearchResult(text, True, m, world, "exhaustive", spent + j + 1, budget)

    rng = Random(seed)
    while spent < budget:
        m = random_model(rng, INSTANTIAL_FRAME, max_worlds, names)
        spent += 1
        extension = evaluate(m)
        if extension != frozenset(m.worlds):
            world = min(set(m.worlds) - extension)
            return SearchResult(text, True, m, world, "random", spent, budget)
    return SearchResult(text, False, None, None, "budget", spent, budget)
