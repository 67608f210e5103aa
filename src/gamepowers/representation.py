"""Build a strategic game that realizes prescribed basic power families.

Given legal families fa and fb over an outcome set, `construct_game` produces
a matrix game whose basic powers are exactly fa and fb.  Column strategies are
indexed triples (Z, u, j) with Z drawn from fb; row strategies are the choice
maps c with c(Z, u, j) in Z whose image is a member of fa.  `verify_roundtrip`
recomputes the powers of the result by brute force and compares.
"""

from dataclasses import dataclass
import itertools
from random import Random
from typing import Mapping

from .games import (
    Player,
    StrategicGame,
    _is_label_list,
    _is_sortable_label_list,
    _read_json,
)
from .powers import (
    PowerFamily,
    basic_powers,
    check_conditions,
    family_conditions,
    random_family_pair,
    relational_basic_powers,
)

BASIC = "basic"
RELATIONAL = "relational"

# triple: (member tuple from fb, outcome, copy index)
Triple = tuple[tuple[str, ...], str, int]


class IllegalFamilies(ValueError):
    """Input families fail a required condition; profiles carry witnesses."""

    def __init__(self, mode, profile_a, profile_b):
        required = family_conditions(mode)
        bad = sorted(
            {n for n in required if not profile_a[n].holds}
            | {n for n in required if not profile_b[n].holds}
        )
        super().__init__(f"families are not legal {mode} powers: " + ", ".join(bad))
        self.mode = mode
        self.profile_a = profile_a
        self.profile_b = profile_b


class RepresentationInput:
    __slots__ = ("outcomes", "fa", "fb", "mode")

    def __init__(self, outcomes, fa: PowerFamily, fb: PowerFamily, mode: str = BASIC):
        if mode not in (BASIC, RELATIONAL):
            raise ValueError(f"unknown mode {mode!r}")
        outcomes = tuple(outcomes)
        if set(fa.outcomes) != set(outcomes) or set(fb.outcomes) != set(outcomes):
            raise ValueError("families must range over the declared outcomes")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "fa", fa)
        object.__setattr__(self, "fb", fb)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("RepresentationInput is immutable")

    def __eq__(self, other):
        if not isinstance(other, RepresentationInput):
            return NotImplemented
        return (
            set(self.outcomes) == set(other.outcomes)
            and self.fa == other.fa
            and self.fb == other.fb
            and self.mode == other.mode
        )

    def __hash__(self):
        return hash((frozenset(self.outcomes), self.fa, self.fb, self.mode))

    def __repr__(self):
        return (
            f"RepresentationInput({len(self.outcomes)} outcomes, "
            f"|FA|={len(self.fa)}, |FB|={len(self.fb)}, {self.mode})"
        )

    def swapped(self) -> "RepresentationInput":
        """The same instance with the players' roles exchanged."""
        return RepresentationInput(self.outcomes, self.fb, self.fa, self.mode)

    def to_json(self) -> dict:
        return {
            "outcomes": sorted(self.outcomes),
            "FA": [list(m) for m in self.fa.members],
            "FB": [list(m) for m in self.fb.members],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "RepresentationInput":
        if not isinstance(obj, Mapping):
            raise ValueError("representation input must be an object")
        for key in ("outcomes", "FA", "FB"):
            if key not in obj:
                raise ValueError(f"representation input needs {key!r}")
        outcomes = obj["outcomes"]
        if not _is_sortable_label_list(outcomes):
            raise ValueError(
                "'outcomes' must be a list of labels, all strings or all numbers"
            )
        known = set(outcomes)
        families = []
        for key in ("FA", "FB"):
            members = obj[key]
            if not isinstance(members, list) or not all(
                map(_is_label_list, members)
            ):
                raise ValueError(f"{key!r} must be a list of lists of outcomes")
            unknown = [x for m in members for x in m if x not in known]
            if unknown:
                raise ValueError(f"{key!r} names {unknown[0]!r}, not an outcome")
            families.append(PowerFamily(outcomes, members))
        return cls(outcomes, *families, obj.get("mode", BASIC))


def load_representation_input(path) -> RepresentationInput:
    data = _read_json(path, ValueError)
    try:
        return RepresentationInput.from_json(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def check_input(inp: RepresentationInput):
    """Condition profiles of both families; raise unless the mode's set holds."""
    pa, pb = check_conditions(inp.fa, inp.fb)
    required = family_conditions(inp.mode)
    if not (pa.holds(*required) and pb.holds(*required)):
        raise IllegalFamilies(inp.mode, pa, pb)
    return pa, pb


def _triples(inp: RepresentationInput) -> tuple[Triple, ...]:
    return tuple(
        (member, u, j)
        for member in inp.fb.members
        for u in sorted(inp.outcomes)
        for j in (0, 1)
    )


def _triple_label(t: Triple) -> str:
    member, u, j = t
    return f"({'+'.join(map(str, member))},{u},{j})"


def construction_cost(inp: RepresentationInput) -> int:
    """Number of candidate choice maps enumerated by construct_game."""
    triples = _triples(inp)
    total = 0
    for target in inp.fa.member_sets():
        product = 1
        for member, _, _ in triples:
            product *= len(target.intersection(member))
        total += product
    return total


def construct_game(
    inp: RepresentationInput, indexed_player: Player = Player.B
) -> StrategicGame:
    """The realization with column strategies fb x O x {0,1}.

    Row strategies are enumerated per target image: a choice map with image
    exactly S only ever picks values in S, so running over the per-triple
    candidate sets Z & S and keeping the maps whose image is all of S yields
    every legal map exactly once.

    The construction indexes one player's family; pass indexed_player=A to
    get the mirror image (built on the swapped input, then transposed).
    """
    if indexed_player is Player.A:
        return _transpose(construct_game(inp.swapped()))
    check_input(inp)
    triples = _triples(inp)
    maps: list[tuple[str, ...]] = []
    for target in inp.fa.member_sets():
        candidates = [
            tuple(sorted(target.intersection(member))) for member, _, _ in triples
        ]
        for values in itertools.product(*candidates):
            if set(values) == target:
                maps.append(values)
    rows = [f"c{i}" for i in range(len(maps))]
    cols = [_triple_label(t) for t in triples]
    return StrategicGame(inp.outcomes, rows, cols, maps)


def _transpose(sg: StrategicGame) -> StrategicGame:
    flipped = [
        [sg.matrix[i][j] for i in range(len(sg.rows))] for j in range(len(sg.cols))
    ]
    return StrategicGame(sg.outcomes, sg.cols, sg.rows, flipped)


def claim_witness(inp: RepresentationInput, z) -> dict[Triple, str]:
    """A legal choice map whose image is exactly z.

    Picks a containing fb member g(u) for every u in z, routes the triple
    (g(u), u, 0) to u, and fills every other triple with the least element
    of z & Z' in label order.
    """
    check_input(inp)
    z = frozenset(z)
    if z not in inp.fa:
        raise ValueError(f"{sorted(z)} is not a member of FA")
    g: dict[str, tuple[str, ...]] = {}
    for u in sorted(z):
        g[u] = next(m for m in inp.fb.members if u in m)
    tagged = {(g[u], u, 0): u for u in z}
    choice: dict[Triple, str] = {}
    for t in _triples(inp):
        if t in tagged:
            choice[t] = tagged[t]
        else:
            member = t[0]
            choice[t] = min(z.intersection(member))
    return choice


@dataclass(frozen=True)
class RoundTripReport:
    mode: str
    fa_ok: bool
    fb_ok: bool
    columns_ok: bool
    rows: int
    cols: int

    @property
    def ok(self) -> bool:
        return self.fa_ok and self.fb_ok and self.columns_ok

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "FA_recovered": self.fa_ok,
            "FB_recovered": self.fb_ok,
            "columns_exact": self.columns_ok,
            "rows": self.rows,
            "cols": self.cols,
            "ok": self.ok,
        }


def verify_roundtrip(inp: RepresentationInput) -> RoundTripReport:
    """Recompute the powers of the constructed game and compare exactly.

    Also rechecks that each column realizes precisely the fb member named in
    its triple.  In relational mode the comparison runs against relational
    basic powers instead; any mismatch is reported, never repaired.
    """
    sg = construct_game(inp)
    if inp.mode == RELATIONAL:
        fa_got = relational_basic_powers(sg, Player.A)
        fb_got = relational_basic_powers(sg, Player.B)
    else:
        fa_got = basic_powers(sg, Player.A)
        fb_got = basic_powers(sg, Player.B)
    columns_ok = True
    for j, t in enumerate(_triples(inp)):
        if sg.col_set(j) != frozenset(t[0]):
            columns_ok = False
            break
    return RoundTripReport(
        mode=inp.mode,
        fa_ok=fa_got == inp.fa,
        fb_ok=fb_got == inp.fb,
        columns_ok=columns_ok,
        rows=len(sg.rows),
        cols=len(sg.cols),
    )


def sample_legal_families(
    o_size: int,
    seed,
    mode: str = BASIC,
    max_members: int = 3,
    max_cost: int = 20000,
    max_tries: int = 2000,
) -> RepresentationInput:
    """Seeded legal family pair whose construction stays enumerable.

    Rejection sampling: draw a condition-respecting pair, then re-draw while
    the number of candidate choice maps exceeds max_cost.
    """
    if o_size < 1:
        raise ValueError("o_size must be at least 1")
    rng = seed if isinstance(seed, Random) else Random(seed)
    outcomes = [str(i) for i in range(o_size)]
    for _ in range(max_tries):
        fa, fb = random_family_pair(rng, outcomes, mode, max_members=max_members)
        inp = RepresentationInput(outcomes, fa, fb, mode)
        if construction_cost(inp) <= max_cost:
            return inp
    raise RuntimeError(
        f"no family pair with construction cost <= {max_cost} "
        f"found in {max_tries} draws"
    )
