"""Build a strategic game that realizes prescribed basic power families.

Given legal families fa and fb over an outcome set, `construct_game` produces
a matrix game whose basic powers are exactly fa and fb.  Row strategies are
indexed triples (X, v, i) with X drawn from fa, v in X and i in {0, 1};
column strategies are the triples (Z, u, j) drawn from fb alike.
`verify_roundtrip` recomputes the powers of the result by brute force and
compares.
"""

from math import prod
from typing import Mapping

from .games import (
    InputError,
    Player,
    Record,
    StrategicGame,
    _bounded,
    _fields,
    _is_label_list,
    _lookup,
    _read_json,
    _seeded,
    _sortable_labels,
)
from .powers import (
    POWER_KINDS,
    PowerFamily,
    check_conditions,
    family_conditions,
    random_family_pair,
)

BASIC = "basic"
RELATIONAL = "relational"
_MAX_DRAWS = 2000  # sample_legal_families' draws for one input

# a strategy: (member of its player's family, outcome in it, copy index)
Triple = tuple[frozenset, str, int]


class IllegalFamilies(InputError):
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


class RepresentationInput(Record):
    __slots__ = ("outcomes", "fa", "fb", "mode")

    def __init__(self, outcomes, fa: PowerFamily, fb: PowerFamily, mode: str = BASIC):
        _lookup(dict.fromkeys((BASIC, RELATIONAL)), mode, "mode")
        outcomes = tuple(outcomes)
        if len(set(outcomes)) != len(outcomes):
            raise InputError("duplicate outcome labels")
        if set(fa.outcomes) != set(outcomes) or set(fb.outcomes) != set(outcomes):
            raise InputError("families must range over the declared outcomes")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "fa", fa)
        object.__setattr__(self, "fb", fb)
        object.__setattr__(self, "mode", mode)

    def _key(self):
        return frozenset(self.outcomes), self.fa, self.fb, self.mode

    def __repr__(self):
        return (
            f"RepresentationInput({len(self.outcomes)} outcomes, "
            f"|FA|={len(self.fa)}, |FB|={len(self.fb)}, {self.mode})"
        )

    def to_json(self) -> dict:
        return {
            "outcomes": sorted(self.outcomes),
            "FA": [list(m) for m in self.fa.members],
            "FB": [list(m) for m in self.fb.members],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "RepresentationInput":
        outcomes, *given = _fields(
            obj, ("outcomes", "FA", "FB"), InputError,
            "representation input needs {key!r}", "representation input must be an object",
        )
        known = set(_sortable_labels(outcomes, InputError))
        families = []
        for key, members in zip(("FA", "FB"), given):
            if not isinstance(members, list) or not all(map(_is_label_list, members)):
                raise InputError(f"{key!r} must be a list of lists of outcomes")
            unknown = [x for m in members for x in m if x not in known]
            if unknown:
                raise InputError(f"{key!r} names {unknown[0]!r}, not an outcome")
            families.append(PowerFamily(outcomes, members))
        return cls(outcomes, *families, obj.get("mode", BASIC))


def load_representation_input(path) -> RepresentationInput:
    return _read_json(path, InputError, RepresentationInput.from_json)


def check_input(inp: RepresentationInput):
    """Condition profiles of both families; raise unless the mode's set holds."""
    pa, pb = check_conditions(inp.fa, inp.fb)
    required = family_conditions(inp.mode)
    if not (pa.holds(*required) and pb.holds(*required)):
        raise IllegalFamilies(inp.mode, pa, pb)
    return pa, pb


def _strategies(family: PowerFamily) -> tuple[Triple, ...]:
    return tuple(
        (member, v, i)
        for member in family.member_sets()
        for v in sorted(member)
        for i in (0, 1)
    )


def _strategy_label(t: Triple) -> str:
    member, v, i = t
    return f"({'+'.join(map(str, sorted(member)))},{v},{i})"


def construction_cost(inp: RepresentationInput) -> int:
    """Choice maps the reference construction enumerates for this input.

    That construction gives B the columns fb x O x {0,1} and A every choice
    map c(Z, u, j) in Z whose image is a member X of fa, which is
    sum over X of prod over Z of |X & Z| ** (2|O|) candidate maps.
    `sample_legal_families` bounds its draws by this count.
    """
    copies = 2 * len(inp.outcomes)
    return sum(
        prod(len(x & z) ** copies for z in inp.fb.member_sets())
        for x in inp.fa.member_sets()
    )


def _cell(row: Triple, col: Triple):
    (x, v, i), (z, u, j) = row, col
    # Every cell lies in X & Z.  On equal copies the column's u wins inside
    # X, so row (X, v, i) meets every x in X at a column (Z, x, i), which
    # instantiatedness provides; on unequal copies the row's v wins inside
    # Z, so column (Z, u, j) meets every z in Z at a row (X, z, 1 - j).
    if i == j:
        if u in x:
            return u
        if v in z:
            return v
    else:
        if v in z:
            return v
        if u in x:
            return u
    return min(x & z)


def construct_game(inp: RepresentationInput) -> StrategicGame:
    """The realization with rows (X, v, i) and columns (Z, u, j).

    Rows run over X in fa, v in X and i in {0, 1}; columns over Z in fb,
    u in Z and j in {0, 1}.  Row (X, v, i) yields exactly the outcomes X and
    column (Z, u, j) exactly Z, so the game has 2 sum|X| rows, 2 sum|Z|
    columns, and basic powers fa and fb.
    """
    check_input(inp)
    rows, cols = _strategies(inp.fa), _strategies(inp.fb)
    return StrategicGame(
        inp.outcomes,
        [_strategy_label(r) for r in rows],
        [_strategy_label(c) for c in cols],
        [[_cell(r, c) for c in cols] for r in rows],
    )


class RoundTripReport(Record):
    __slots__ = ("mode", "fa_ok", "fb_ok", "strategies_ok", "rows", "cols")

    @property
    def ok(self) -> bool:
        return self.fa_ok and self.fb_ok and self.strategies_ok

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "FA_recovered": self.fa_ok,
            "FB_recovered": self.fb_ok,
            "strategies_exact": self.strategies_ok,
            "rows": self.rows,
            "cols": self.cols,
            "ok": self.ok,
        }


def verify_roundtrip(inp: RepresentationInput, game=None) -> RoundTripReport:
    """Recompute the powers of the constructed game and compare exactly.

    Also rechecks that each row and each column realizes precisely the
    member named in its label.  In relational mode the comparison runs
    against relational basic powers instead; any mismatch is reported, never
    repaired.  ``game`` is ``construct_game(inp)``, if the caller has built it.
    """
    sg = construct_game(inp) if game is None else game
    fn = POWER_KINDS[inp.mode]
    strategies_ok = all(
        sg.row_set(k) == x for k, (x, _, _) in enumerate(_strategies(inp.fa))
    ) and all(
        sg.col_set(k) == z for k, (z, _, _) in enumerate(_strategies(inp.fb))
    )
    return RoundTripReport(
        mode=inp.mode,
        fa_ok=fn(sg, Player.A) == inp.fa,
        fb_ok=fn(sg, Player.B) == inp.fb,
        strategies_ok=strategies_ok,
        rows=len(sg.rows),
        cols=len(sg.cols),
    )


def sample_legal_families(
    o_size: int,
    seed,
    mode: str = BASIC,
    max_cost: int = 20000,
) -> RepresentationInput:
    """Seeded legal family pair, each family proposed with 1 to 3 members.

    Rejection sampling: draw a condition-respecting pair, then re-draw while
    its `construction_cost` exceeds max_cost, up to 2000 draws in all.
    """
    _bounded("o_size", o_size, 1)
    rng = _seeded(seed)
    outcomes = [str(i) for i in range(o_size)]
    for _ in range(_MAX_DRAWS):
        fa, fb = random_family_pair(rng, outcomes, mode)
        inp = RepresentationInput(outcomes, fa, fb, mode)
        if construction_cost(inp) <= max_cost:
            return inp
    raise RuntimeError(
        f"no family pair with construction cost <= {max_cost} "
        f"found in {_MAX_DRAWS} draws"
    )
