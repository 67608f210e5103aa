"""Shared fixtures and brute-force oracles for the test suite."""

from dataclasses import field, make_dataclass
from itertools import chain, combinations, permutations, product
from random import Random

from gamepowers.algebra import Comp, Dual, Plus, Var
from gamepowers.axioms import _BUILDERS, _FAMILY_CAPS, EXHAUSTIVE_WORLDS, SearchResult
from gamepowers.equivalence import EquivalenceVerdict
from gamepowers.formulas import (
    FALSUM,
    And,
    Atom,
    Box,
    Formula,
    Not,
    ParseError,
    Top,
    atoms,
    format_formula,
    lor,
    parse_formula,
)
from gamepowers.games import (
    ExtensiveGame,
    Player,
    StrategicGame,
    enumerate_strategies,
    game,
    leaf,
    node,
    outcome_set,
)
from gamepowers.models import (
    FRAME_KINDS,
    INSTANTIAL_FRAME,
    NeighborhoodModel,
    _evaluator,
    random_model,
)
from gamepowers.powers import (
    PowerFamily,
    _subsets,
    basic_powers,
    check_conditions,
    family_conditions,
    legal_pairs,
    union_closure,
    upward_closure,
)
from gamepowers.representation import check_input


# -- worked games ------------------------------------------------------------

def one_then_two_or_three():
    """A picks an immediate 1 or hands B the choice between 2 and 3."""
    return game(
        ["1", "2", "3"],
        node("A", [leaf("1"), node("B", [leaf("2"), leaf("3")])]),
    )


def two_or_three_after_one():
    """B picks a side first; A then picks 1 against 2 (left) or 3 (right)."""
    return game(
        ["1", "2", "3"],
        node(
            "B",
            [
                node("A", [leaf("1"), leaf("2")]),
                node("A", [leaf("1"), leaf("3")]),
            ],
        ),
    )


def single_move_then_b_choice():
    """A has one trivial move, then B picks x or y."""
    return game(["x", "y"], node("A", [node("B", [leaf("x"), leaf("y")])]))


def double_move_then_b_choice():
    """A picks one of two identical positions where B picks x or y."""
    return game(
        ["x", "y"],
        node(
            "A",
            [
                node("B", [leaf("x"), leaf("y")]),
                node("B", [leaf("x"), leaf("y")]),
            ],
        ),
    )


def forgetful_chooser():
    """A picks a side, then forgets it: both of A's next nodes share a cell."""
    return game(
        ["1", "2", "3", "4"],
        node(
            "A",
            [
                node("A", [leaf("1"), leaf("2")], info="c"),
                node("A", [leaf("3"), leaf("4")], info="c"),
            ],
        ),
    )


def zero_one_matrix_3x3():
    return StrategicGame(
        ["0", "1"],
        ["r0", "r1", "r2"],
        ["c0", "c1", "c2"],
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
    )


def zero_one_matrix_2x3():
    return StrategicGame(
        ["0", "1"],
        ["r0", "r1"],
        ["c0", "c1", "c2"],
        [["1", "1", "0"], ["0", "0", "0"]],
    )


# -- game helpers ------------------------------------------------------------

def check_strategy(g, s) -> list[str]:
    """Diagnostics for a hand-built strategy; empty iff well-formed."""
    problems = []
    owned = {n for n in g.internal_nodes if g.turn[n] is s.owner}
    if set(s.choice) != owned:
        problems.append("domain is not exactly the owner's internal nodes")
    for w in sorted(set(s.choice) & owned):
        moves = s.moves_at(w)
        if not moves:
            problems.append(f"empty move set at {w}")
        if any(not 0 <= i < g.num_children(w) for i in moves):
            problems.append(f"move out of range at {w}")
    for cell in g.player_cells(s.owner):
        if len({s.choice.get(n) for n in cell}) > 1:
            problems.append(f"choice not constant on cell {cell}")
    return problems


def strategic_isomorphic(sg1, sg2) -> bool:
    """True iff some row and column bijections carry one matrix to the other."""
    if (
        len(sg1.rows) != len(sg2.rows)
        or len(sg1.cols) != len(sg2.cols)
        or set(sg1.outcomes) != set(sg2.outcomes)
    ):
        return False
    # permute the smaller dimension, compare the other as a multiset
    if len(sg1.cols) <= len(sg1.rows):
        target = sorted(sg2.matrix)
        for cperm in permutations(range(len(sg1.cols))):
            shuffled = sorted(tuple(row[c] for c in cperm) for row in sg1.matrix)
            if shuffled == target:
                return True
    else:
        ncols = len(sg1.cols)
        target = sorted(tuple(row[j] for row in sg2.matrix) for j in range(ncols))
        for rperm in permutations(range(len(sg1.rows))):
            shuffled = sorted(
                tuple(sg1.matrix[i][j] for i in rperm) for j in range(ncols)
            )
            if shuffled == target:
                return True
    return False


def is_perfect_information(g: ExtensiveGame) -> bool:
    return all(len(c) == 1 for c in g.cells)


def strategic_to_extensive(sg: StrategicGame) -> ExtensiveGame:
    """Canonical one-shot realization: A moves first, B moves unaware.

    The root is a singleton cell for A; all of B's nodes share one cell, so
    B's functional strategies correspond exactly to columns.
    """
    kids = [
        node(Player.B, [leaf(sg.matrix[i][j]) for j in range(len(sg.cols))],
             info="bcell")
        for i in range(len(sg.rows))
    ]
    return game(sg.outcomes, node(Player.A, kids))


# -- oracles -----------------------------------------------------------------

def subsets(iterable):
    items = sorted(iterable)
    return chain.from_iterable(
        combinations(items, k) for k in range(len(items) + 1)
    )


def oracle_outcome_sets(g, p, relational=False):
    """Definition of (relational) basic powers: enumerate p's strategies."""
    return {
        tuple(sorted(outcome_set(g, s)))
        for s in enumerate_strategies(g, Player(p), relational=relational)
    }


def oracle_plain_powers(g, p):
    """Direct reading: P is forced iff some functional strategy stays in P."""
    forced = set()
    outcome_sets = [frozenset(z) for z in oracle_outcome_sets(g, p)]
    for sub in subsets(g.outcomes):
        p_set = frozenset(sub)
        if any(z <= p_set for z in outcome_sets):
            forced.add(p_set)
    return {tuple(sorted(z)) for z in forced}


def oracle_union_closure(members):
    """Close under unions of arbitrary nonempty subfamilies, by enumeration."""
    members = [frozenset(m) for m in members]
    out = set()
    for pick in subsets(range(len(members))):
        if not pick:
            continue
        u = frozenset()
        for i in pick:
            u |= members[i]
        out.add(u)
    return {tuple(sorted(m)) for m in out}


def oracle_profile_bisimulation(sg1, sg2):
    """Greatest profile bisimulation by definition, and its totality.

    A pair of profiles stays while its outcomes agree and, for each player,
    every deviation of that player from one profile (the opponent's strategy
    held fixed) is answered by a deviation from the other profile that is
    related to it, in both directions.  Returns whether every profile of
    either game is related, and the relation as (row1, col1, row2, col2).
    """
    prof1 = list(product(range(len(sg1.rows)), range(len(sg1.cols))))
    prof2 = list(product(range(len(sg2.rows)), range(len(sg2.cols))))
    z = {
        (s, t)
        for s in prof1
        for t in prof2
        if sg1.matrix[s[0]][s[1]] == sg2.matrix[t[0]][t[1]]
    }

    def deviations(sg, s, p):
        if p is Player.A:
            return [(i, s[1]) for i in range(len(sg.rows))]
        return [(s[0], j) for j in range(len(sg.cols))]

    def clauses_hold(s, t):
        for p in (Player.A, Player.B):
            d1, d2 = deviations(sg1, s, p), deviations(sg2, t, p)
            if not all(any((x, y) in z for y in d2) for x in d1):
                return False
            if not all(any((x, y) in z for x in d1) for y in d2):
                return False
        return True

    while True:
        kept = {pair for pair in z if clauses_hold(*pair)}
        if kept == z:
            break
        z = kept
    total = {s for s, _ in z} == set(prof1) and {t for _, t in z} == set(prof2)
    relation = {
        (sg1.rows[s[0]], sg1.cols[s[1]], sg2.rows[t[0]], sg2.cols[t[1]])
        for s, t in z
    }
    return total, relation



# -- the model bisimulations by their pair fixpoint ------------------------------


def _forth(r, z1, z2) -> bool:
    # every point of z1 has an r-partner in z2
    return all(any((x, y) in r for y in z2) for x in z1)


def _back(r, z1, z2) -> bool:
    # every point of z2 has an r-partner in z1
    return all(any((x, y) in r for x in z1) for y in z2)


def _lift(r, z1, z2) -> bool:
    return _forth(r, z1, z2) and _back(r, z1, z2)


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


def reference_bisimulation(
    m1: NeighborhoodModel, m2: NeighborhoodModel, instantial: bool
) -> set:
    """Greatest bisimulation below the atomic agreement.

    Each neighbourhood of either side needs a partner on the other side.  A
    power bisimulation asks the partner's points to be covered (one half of
    the Egli-Milner lift, read toward the partner); an instantial
    bisimulation asks the whole lift.  Pairs are dropped from the world
    pairs until none fails.
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


def strategy_bisimulation_check(g1, g2, r) -> EquivalenceVerdict:
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
                if not any(_lift(relation, z, w) for w in there):
                    return EquivalenceVerdict(
                        "strategy-bisimulation",
                        False,
                        {"player": p.value, "member": sorted(z), "side": side},
                    )
    return EquivalenceVerdict("strategy-bisimulation", True)


def renamed_model(m: NeighborhoodModel) -> tuple[NeighborhoodModel, dict]:
    """m with its worlds renamed to sort the other way, and the renaming."""
    n = len(m.worlds)
    name = {w: f"u{n - 1 - i}" for i, w in enumerate(m.worlds)}
    rel = {
        p: [(name[u], {name[w] for w in z}) for u in m.worlds for z in m.neigh(p, u)]
        for p in (Player.A, Player.B)
    }
    val = {a: {name[w] for w in ws} for a, ws in m.valuation.items()}
    worlds = [name[w] for w in reversed(m.worlds)]
    return NeighborhoodModel(worlds, rel[Player.A], rel[Player.B], val), name


def doubled_model(m: NeighborhoodModel, plain: bool) -> NeighborhoodModel:
    """m beside a primed copy of itself, bisimilar to m through the projection.

    A world and its copy see each neighbourhood of m joined with the copy of
    one (of the same one, unless plain), which keeps game frames upward
    closed and instantial frames instantiated.
    """
    primed = {w: w + "'" for w in m.worlds}
    rel = {
        p: [
            (v, {*z, *map(primed.get, z2)})
            for u in m.worlds
            for v in (u, primed[u])
            for z in m.neigh(p, u)
            for z2 in (m.neigh(p, u) if plain else (z,))
        ]
        for p in (Player.A, Player.B)
    }
    val = {a: {*ws, *map(primed.get, ws)} for a, ws in m.valuation.items()}
    worlds = [*m.worlds, *primed.values()]
    return NeighborhoodModel(worlds, rel[Player.A], rel[Player.B], val)

def oracle_frame_conditions(m, kind):
    """The kind's three frame conditions, read at every world by definition."""
    universe = [frozenset(s) for s in subsets(m.worlds)]

    def non_empty(na, nb):
        return bool(na) and bool(nb)

    def monotone(na, nb):
        return all(y in n for n in (na, nb) for z in n for y in universe if z <= y)

    def consistent(na, nb):
        return all(za & zb for za in na for zb in nb)

    def instantiated(na, nb):
        return all(
            any(x in z2 for z2 in other)
            for n, other in ((na, nb), (nb, na))
            for z in n
            for x in z
        )

    middle = ("Monotonicity", monotone) if kind == "game" else (
        "Instantiatedness", instantiated)
    named = [("NonEmptiness", non_empty), middle, ("Consistency", consistent)]
    at = [
        (set(m.neigh(Player.A, u)), set(m.neigh(Player.B, u))) for u in m.worlds
    ]
    return {name: all(cond(na, nb) for na, nb in at) for name, cond in named}


def family(members):
    return {tuple(sorted(m)) for m in members}


# -- eager references for set families and their conditions -------------------

class EagerFamily:
    """A family sorted canonically on construction, as PowerFamily's order
    is defined: members as tuples of sorted labels, in sorted order."""

    def __init__(self, outcomes, members):
        index = frozenset(map(frozenset, members))
        by_key = dict(zip(map(tuple, map(sorted, index)), index))
        self.outcomes = tuple(outcomes)
        self.members = tuple(sorted(by_key))
        self.sets = tuple(map(by_key.__getitem__, self.members))
        self.index = index

    def __eq__(self, other):
        return set(self.outcomes) == set(other.outcomes) and self.members == other.members

    def __repr__(self):
        shown = ",".join("{" + ",".join(m) + "}" for m in self.members)
        return f"PowerFamily[{shown}]"

    def to_json(self):
        return {"outcomes": list(self.outcomes), "members": [list(m) for m in self.members]}


def _eager_monotonicity(fam, other):
    universe = frozenset(fam.outcomes)
    for mset in fam.sets:
        for extra in subsets(universe - mset):
            sup = mset | frozenset(extra)
            if sup not in fam.index:
                return False, {"member": sorted(mset), "superset": sorted(sup)}
    return True, None


def _eager_consistency(fa, fb):
    for p in fa.sets:
        for q in fb.sets:
            if not (p & q):
                return False, {"A": sorted(p), "B": sorted(q)}
    return True, None


def _eager_determinacy(fam, other):
    universe = tuple(sorted(set(fam.outcomes)))
    for sub in subsets(universe):
        p = frozenset(sub)
        if p not in fam.index and (frozenset(universe) - p) not in other.index:
            return False, {"subset": sorted(p)}
    return True, None


def _eager_instantiatedness(fam, other):
    for p in fam.sets:
        for x in sorted(p):
            if not any(x in q for q in other.sets):
                return False, {"member": sorted(p), "element": x}
    return True, None


def _eager_union_closure(fam, other):
    pairs = tuple(zip(fam.members, fam.sets))
    for x, xs in pairs:
        for y, ys in pairs:
            u = xs | ys
            if u not in fam.index:
                return False, {"parts": [list(x), list(y)], "union": sorted(u)}
    return True, None


def eager_conditions(fa: EagerFamily, fb: EagerFamily):
    """Every condition with its canonical-order witness, from A's side and
    from B's, as ``check_conditions(...)[i].to_json()`` reports them; each
    check searches the family in canonical order from the start."""

    def side(fam, other):
        checks = {
            "NonEmptiness": (bool(fam.members), None if fam.members else {"family": "empty"}),
            "Monotonicity": _eager_monotonicity(fam, other),
            "Consistency": _eager_consistency(fa, fb),
            "Determinacy": _eager_determinacy(fam, other),
            "Instantiatedness": _eager_instantiatedness(fam, other),
            "UnionClosure": _eager_union_closure(fam, other),
        }
        return {n: {"holds": h, "witness": w} for n, (h, w) in checks.items()}

    return side(fa, fb), side(fb, fa)


def reference_family_pair(rng, outcomes, mode, max_members=3, max_tries=20000):
    """``random_family_pair`` as a plain rejection loop: close every proposal
    (upward for plain, under unions for relational), then check all of the
    mode's conditions on the closed pair."""
    outcomes = tuple(outcomes)
    required = family_conditions(mode)
    close = {"plain": upward_closure, "basic": lambda f: f, "relational": union_closure}[mode]
    pool = [frozenset(c) for c in _subsets(tuple(sorted(outcomes))) if c]

    def proposal():
        k = rng.randint(1, max_members)
        return close(PowerFamily(outcomes, [rng.choice(pool) for _ in range(k)]))

    for _ in range(max_tries):
        fa, fb = proposal(), proposal()
        pa, pb = check_conditions(fa, fb)
        if pa.holds(*required) and pb.holds(*required):
            return fa, fb
    raise RuntimeError(f"no {mode} family pair found in {max_tries} tries")


# -- logic helpers -------------------------------------------------------------

def schema_frame_kind(name):
    """The frame kind the schema registry evaluates an axiom schema on."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown schema: {name!r}")
    return _BUILDERS[name][1]


def big_or(forms):
    """Disjunction folded in printed order; empty disjunction is falsity."""
    items = sorted(forms, key=format_formula)
    if not items:
        return FALSUM
    out = items[0]
    for f in items[1:]:
        out = lor(out, f)
    return out


def depth(f: Formula) -> int:
    """Modal depth; boxes count one step over scope and side formulas."""
    if isinstance(f, (Atom, Top)):
        return 0
    if isinstance(f, Not):
        return depth(f.sub)
    if isinstance(f, And):
        return max(depth(f.left), depth(f.right))
    if isinstance(f, Box):
        inner = [depth(f.scope)] + [depth(g) for g in f.instants]
        return 1 + max(inner)
    raise TypeError(f"not a formula: {f!r}")


def outcome_valuation(outcomes, prefix="p"):
    """One atom per outcome label, true exactly at that outcome's world."""
    return {f"{prefix}{o}": frozenset([o]) for o in outcomes}


def with_valuation(m, valuation):
    """The same frame as m under another valuation; the neighborhoods are shared."""
    return NeighborhoodModel._from_families(m.worlds, m._neigh, valuation)


def read_formula_file(path):
    """Parse a text file holding one formula per line; blank lines skipped."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(parse_formula(line))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: bad formula", exc.pos) from exc
    return out


def model_check_boxes_exact(m, f: Formula):
    """Box-as-preimage reading: u satisfies [P]phi iff the truth set of phi
    itself is a neighborhood of u.  Defined for side-condition-free formulas
    only; agrees with ``model_check`` on monotone frames.
    """
    if isinstance(f, Atom):
        return m.truth_set(f.name)
    if isinstance(f, Top):
        return frozenset(m.worlds)
    if isinstance(f, Not):
        return frozenset(m.worlds) - model_check_boxes_exact(m, f.sub)
    if isinstance(f, And):
        return model_check_boxes_exact(m, f.left) & model_check_boxes_exact(m, f.right)
    if isinstance(f, Box):
        if f.instants:
            raise ValueError("exact box reading is defined for plain boxes only")
        scope = model_check_boxes_exact(m, f.scope)
        return frozenset(u for u in m.worlds if scope in m.neigh(f.player, u))
    raise TypeError(f"not a formula: {f!r}")


# -- reference representation construction ----------------------------------------

def choice_map_columns(inp):
    """B's strategies in the choice-map construction: (Z, u, j) in fb x O x {0,1}."""
    return tuple(
        (member, u, j)
        for member in inp.fb.members
        for u in sorted(inp.outcomes)
        for j in (0, 1)
    )


def choice_map_game(inp) -> StrategicGame:
    """The choice-map realization of a legal pair, exponential in its size.

    Columns are the triples of ``choice_map_columns``; rows are the choice
    maps c with c(Z, u, j) in Z whose image is a member of fa.  A map with
    image exactly S only ever picks values in S, so running over the
    per-triple candidates Z & S and keeping the maps whose image is all of S
    yields every such map exactly once.
    """
    check_input(inp)
    columns = choice_map_columns(inp)
    maps = []
    for target in inp.fa.member_sets():
        candidates = [sorted(target.intersection(m)) for m, _, _ in columns]
        maps.extend(v for v in product(*candidates) if set(v) == target)
    return StrategicGame(
        inp.outcomes,
        [f"c{i}" for i in range(len(maps))],
        [f"({'+'.join(map(str, m))},{u},{j})" for m, u, j in columns],
        maps,
    )


def claim_witness(inp, z) -> dict:
    """A choice map of ``choice_map_game`` whose image is exactly z.

    Picks a containing fb member g(u) for every u in z, routes the triple
    (g(u), u, 0) to u, and fills every other triple with the least element
    of z & Z' in label order.
    """
    check_input(inp)
    z = frozenset(z)
    if z not in inp.fa:
        raise ValueError(f"{sorted(z)} is not a member of FA")
    tagged = {
        (next(m for m in inp.fb.members if u in m), u, 0): u for u in sorted(z)
    }
    return {
        t: tagged[t] if t in tagged else min(z.intersection(t[0]))
        for t in choice_map_columns(inp)
    }


# -- reference countermodel search ------------------------------------------------

def reference_countermodel_search(f, max_worlds=5, seed=0, budget_ms=1000):
    """``countermodel_search`` with one model built and checked per valuation row.

    Valid input only.  Every frame of the exhaustive phase is combined with
    every valuation row in ``product`` order, each row a model of its own.
    """
    if isinstance(f, str):
        f = parse_formula(f)
    text = format_formula(f)
    names = tuple(sorted(atoms(f)))
    evaluate = _evaluator(f)
    budget = budget_ms * 10
    spent = 0

    for k in range(1, min(EXHAUSTIVE_WORLDS, max_worlds) + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        everywhere = frozenset(worlds)
        pairs = legal_pairs(worlds, FRAME_KINDS[INSTANTIAL_FRAME], _FAMILY_CAPS[k])
        per_atom = [[(a, combo) for combo in _subsets(worlds)] for a in names]
        for assignment in product(pairs, repeat=k):
            neigh = {
                Player.A: {u: fa for u, (fa, _) in zip(worlds, assignment)},
                Player.B: {u: fb for u, (_, fb) in zip(worlds, assignment)},
            }
            for row in product(*per_atom):
                if spent >= budget:
                    return SearchResult(text, False, None, None, "budget", spent, budget)
                m = NeighborhoodModel._from_families(worlds, neigh, dict(row))
                spent += 1
                extension = evaluate(m)
                if extension != everywhere:
                    world = min(everywhere - extension)
                    return SearchResult(text, True, m, world, "exhaustive", spent, budget)

    rng = Random(seed)
    while spent < budget:
        m = random_model(rng, INSTANTIAL_FRAME, max_worlds, names)
        spent += 1
        extension = evaluate(m)
        if extension != frozenset(m.worlds):
            world = min(set(m.worlds) - extension)
            return SearchResult(text, True, m, world, "random", spent, budget)
    return SearchResult(text, False, None, None, "budget", spent, budget)


# -- reference term fold ------------------------------------------------------------

def joins(families) -> set:
    """Every union that takes one member from each family."""
    rest = iter(families)
    acc = set(next(rest, (frozenset(),)))
    for fam in rest:
        acc = {a | b for a in acc for b in fam}
    return acc


def nonempty_joins(families) -> set:
    """Every union that takes one member from each of a nonempty subfamily."""
    acc = set()
    for fam in families:
        acc |= fam | {a | b for a in acc for b in fam}
    return acc


def _union(families):
    return set().union(*families)


# each power kind's n-ary (mover, other player) rules at a choice, the
# reference for powers.COMBINE; plain families are upward closed, where
# joins are intersections
REFERENCE_COMBINE = {
    "plain": (_union, joins),
    "basic": (_union, joins),
    "relational": (nonempty_joins, joins),
}


def _reference_composed(y_sets, closed):
    # every Z that joins, over some nonempty Y in y_sets, a member of closed[y]
    # for each y in Y; closed maps each state to a union-closed member set
    return {z for ys in y_sets if ys for z in joins(closed[y] for y in ys)}


def _pairwise(op, *values):
    # op on power pairs, state by state on dicts of pairs
    if isinstance(values[0], dict):
        return {u: op(*(v[u] for v in values)) for u in values[0]}
    return op(*values)


def reference_term_powers(term, env, kind):
    """The member sets of a term's (A, B) families of a power kind, folded
    anew at every node for every environment.

    ``env`` maps each variable to its value's pair, or to a dict of pairs
    per state for a dynamic value.  At + or * the mover gets the union of
    the operands' families (their nonempty joins for relational powers) and
    the other player their joins; - swaps the players.  o composes the
    union-closed plain or relational families statewise, joining each
    continuation set anew for every state that lists it.
    """
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Dual):
        return _pairwise(lambda pair: pair[::-1], reference_term_powers(term.sub, env, kind))
    left = reference_term_powers(term.left, env, kind)
    right = reference_term_powers(term.right, env, kind)
    if isinstance(term, Comp):
        cont = [{y: pair[i] for y, pair in right.items()} for i in (0, 1)]
        return {u: tuple(map(_reference_composed, pair, cont)) for u, pair in left.items()}
    mover, other = REFERENCE_COMBINE[kind]
    ops = (mover, other) if isinstance(term, Plus) else (other, mover)
    return _pairwise(
        lambda p1, p2: tuple(op(fams) for op, fams in zip(ops, zip(p1, p2))),
        left,
        right,
    )


# -- frozen-dataclass twins of the record classes ------------------------------

def _twin(name, *fields):
    """A frozen dataclass with the given name; a field is a name or (name, default)."""
    spec = [(f, object) if isinstance(f, str) else (f[0], object, f[1]) for f in fields]
    return make_dataclass(name, spec, frozen=True)


# each record class of the package, by module and name, with the frozen
# dataclass it replaced: the reference for construction, equality, hashing,
# repr and immutability
RECORD_TWINS = {
    ("algebra", "Var"): _twin("Var", "name"),
    ("algebra", "Plus"): _twin("Plus", "left", "right"),
    ("algebra", "Times"): _twin("Times", "left", "right"),
    ("algebra", "Comp"): _twin("Comp", "left", "right"),
    ("algebra", "Dual"): _twin("Dual", "sub"),
    ("algebra", "EquationReport"): _twin(
        "EquationReport", "lhs", "rhs", "equiv", "seed", "samples", "verdict",
        ("counterexample", None),
    ),
    ("algebra", "CongruenceReport"): _twin(
        "CongruenceReport", "op", "equiv", "samples", "verdict",
        ("counterexample", None),
    ),
    ("axioms", "SoundnessReport"): _twin(
        "SoundnessReport", "seed", "samples",
        ("counts", field(default_factory=dict)), ("violations", ()),
    ),
    ("axioms", "SearchResult"): _twin(
        "SearchResult", "formula", "found", "model", "world", "phase", "evaluations",
        "budget",
    ),
    ("equivalence", "EquivalenceVerdict"): _twin(
        "EquivalenceVerdict", "kind", "verdict", ("witness", None)
    ),
    ("equivalence", "HierarchyReport"): _twin(
        "HierarchyReport", "verdicts", "violations"
    ),
    ("formulas", "Atom"): _twin("Atom", "name"),
    ("formulas", "Top"): _twin("Top"),
    ("formulas", "Not"): _twin("Not", "sub"),
    ("formulas", "And"): _twin("And", "left", "right"),
    ("formulas", "Box"): _twin(
        "Box", "player", ("instants", field(default_factory=frozenset)),
        ("scope", field(default_factory=Top)),
    ),
    ("games", "Violation"): _twin("Violation", "rule", "nodes", ("detail", "")),
    ("games", "FunctionalStrategy"): _twin("FunctionalStrategy", "owner", "choice"),
    ("games", "RelationalStrategy"): _twin("RelationalStrategy", "owner", "choice"),
    ("powers", "ConditionCheck"): _twin(
        "ConditionCheck", "name", "holds", ("witness", None)
    ),
    ("representation", "RoundTripReport"): _twin(
        "RoundTripReport", "mode", "fa_ok", "fb_ok", "strategies_ok", "rows", "cols"
    ),
}


# -- the six core value classes' equality, as each class once spelled it out ----

def _reference_game_equal(g1, g2) -> bool:
    return (
        g1.outcomes == g2.outcomes
        and g1.nodes == g2.nodes
        and g1.turn == g2.turn
        and g1.outcome == g2.outcome
        and g1.cells == g2.cells
    )


def _reference_strategic_equal(s1, s2) -> bool:
    return (
        s1.outcomes == s2.outcomes
        and s1.rows == s2.rows
        and s1.cols == s2.cols
        and s1.matrix == s2.matrix
    )


def _reference_family_equal(f1, f2) -> bool:
    return f1._index == f2._index and set(f1.outcomes) == set(f2.outcomes)


def _reference_dynamic_equal(d1, d2) -> bool:
    return set(d1.states) == set(d2.states) and all(
        _reference_game_equal(d1.games[u], d2.games[u]) for u in d1.states
    )


def _reference_model_equal(m1, m2) -> bool:
    def same_neighbourhoods(n1, n2):
        return n1.keys() == n2.keys() and all(
            _reference_family_equal(n1[u], n2[u]) for u in n1
        )

    return (
        m1.worlds == m2.worlds
        and m1._neigh.keys() == m2._neigh.keys()
        and all(same_neighbourhoods(m1._neigh[p], m2._neigh[p]) for p in m1._neigh)
        and m1.valuation == m2.valuation
    )


def _reference_input_equal(i1, i2) -> bool:
    return (
        set(i1.outcomes) == set(i2.outcomes)
        and _reference_family_equal(i1.fa, i2.fa)
        and _reference_family_equal(i1.fb, i2.fb)
        and i1.mode == i2.mode
    )


# equality of two values of one class, by class name
REFERENCE_EQUALITY = {
    "ExtensiveGame": _reference_game_equal,
    "StrategicGame": _reference_strategic_equal,
    "PowerFamily": _reference_family_equal,
    "DynamicGame": _reference_dynamic_equal,
    "NeighborhoodModel": _reference_model_equal,
    "RepresentationInput": _reference_input_equal,
}
