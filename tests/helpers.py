"""Shared fixtures and brute-force oracles for the test suite."""

from itertools import chain, combinations, product

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
