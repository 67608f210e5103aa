"""Shared fixtures and brute-force oracles for the test suite."""

from itertools import chain, combinations

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
