"""Same seed, same output: pinned digests of the seeded reports.

Each digest is the sha256 of the reports written one JSON document per
line.  A change that is meant to alter seeded output re-pins the digest it
moves and says so; any other change must leave every digest as it is.
"""

import hashlib
import json
from random import Random

import pytest

import gamepowers
from gamepowers.algebra import random_dynamic_game, seq_compose
from gamepowers.axioms import ALL_SCHEMATA, schema_instance
from gamepowers.formulas import format_formula
from gamepowers.games import game_to_json, strategic_to_json
from gamepowers.models import GAME_FRAME, INSTANTIAL_FRAME
from gamepowers.powers import random_family_pair

# refuted by the exhaustive phase of countermodel_search
REFUTABLE = (
    "[A](p;p|q) -> [A](p;p)",
    "[A]p -> p",
    "p -> [B]p",
    "[A]p -> [B]p",
    "[A](p;q) -> [A](q;p)",
)

# the laws, non-laws and congruences the algebra checks are probed on
ONE_SHOT_LAWS = (
    ("x + y", "y + x"),
    ("x + (y + z)", "(x + y) + z"),
    ("x * y", "y * x"),
    ("x * (y * z)", "(x * y) * z"),
    ("--x", "x"),
    ("-(x + y)", "(-x) * (-y)"),
    ("-(x * y)", "(-x) + (-y)"),
)
SEQUENTIAL_LAWS = (
    ("x o (y o z)", "(x o y) o z"),
    ("-(x o y)", "(-x) o (-y)"),
    ("(x + y) o z", "(x o z) + (y o z)"),
)
NON_LAWS = (
    ("x * x", "x", "strong", ("0", "1")),
    ("x * (y + z)", "(x * y) + (x * z)", "semi", ("0", "1", "2")),
)
# distributive equations that hold under some equivalences and fail under
# others, so their counterexample witnesses are pinned too
DISTRIBUTIONS = (
    ("x o (y + z)", "(x o y) + (x o z)"),
    ("x + (y * z)", "(x + y) * (x + z)"),
)


def _digest(reports) -> str:
    h = hashlib.sha256()
    for r in reports:
        h.update(json.dumps(r, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _family_pairs(mode: str):
    for seed in range(150):
        rng = Random(seed)
        outcomes = tuple("abcd"[: 1 + seed % 4])
        fa, fb = random_family_pair(rng, outcomes, mode)
        yield [fa.to_json(), fb.to_json(), rng.random()]


def _searches():
    for i, name in enumerate(ALL_SCHEMATA):
        text = format_formula(schema_instance(name, 100 + i))
        yield gamepowers.countermodel_search(
            text, max_worlds=4, seed=i, budget_ms=60).to_json()
    for i, text in enumerate(REFUTABLE):
        yield gamepowers.countermodel_search(text, seed=i).to_json()


def _row_searches():
    # small budgets and worlds cut the exhaustive phase inside a frame, and
    # refutations land on valuation rows above the first
    texts = list(REFUTABLE) + [
        format_formula(schema_instance(name, 200 + i))
        for i, name in enumerate(ALL_SCHEMATA)
    ]
    for i, text in enumerate(texts):
        for budget_ms in (1, 2, 7):
            for max_worlds in (1, 2, 3):
                yield gamepowers.countermodel_search(
                    text, max_worlds=max_worlds, seed=i,
                    budget_ms=budget_ms).to_json()


def _equations():
    for i, (lhs, rhs) in enumerate(ONE_SHOT_LAWS):
        for equiv in ("strong", "power"):
            yield gamepowers.check_equation(
                lhs, rhs, equiv, seed=i, samples=10).to_json()
    for i, (lhs, rhs) in enumerate(SEQUENTIAL_LAWS):
        yield gamepowers.check_equation(
            lhs, rhs, "semi", seed=i, samples=2).to_json()
    for i, (lhs, rhs, equiv, outcomes) in enumerate(NON_LAWS):
        for samples in (0, 5):
            yield gamepowers.check_equation(
                lhs, rhs, equiv, seed=i, samples=samples,
                outcomes=outcomes).to_json()


def _sequential_equations():
    for i, (lhs, rhs) in enumerate(SEQUENTIAL_LAWS):
        for equiv in ("power", "strong"):
            yield gamepowers.check_equation(
                lhs, rhs, equiv, seed=i, samples=2).to_json()


def _distributions():
    for i, (lhs, rhs) in enumerate(DISTRIBUTIONS):
        for equiv in ("power", "strong", "semi"):
            yield gamepowers.check_equation(
                lhs, rhs, equiv, seed=i, samples=5).to_json()


def _congruences(equiv):
    for i, op in enumerate(("+", "*", "-", "o")):
        yield gamepowers.check_congruence(op, equiv, seed=i, samples=3).to_json()


def _hierarchy_audits():
    for seed in range(24):
        rng = Random(seed)
        outcomes = ("x", "y", "z")[: 2 + seed % 2]
        a = gamepowers.random_game(rng, 3, 2, outcomes, perfect_info=seed % 3 == 0)
        b = gamepowers.random_game(rng, 3, 2, outcomes)
        for pair in (
            (a, a),
            (a, b),
            (gamepowers.op_plus(a, b), gamepowers.op_plus(b, a)),
            (gamepowers.op_times(a, b), gamepowers.op_times(b, a)),
            (gamepowers.op_dual(gamepowers.op_dual(a)), a),
            (gamepowers.op_dual(a), b),
        ):
            yield gamepowers.hierarchy_audit(*pair).to_json()


def _built_games():
    for seed in range(60):
        rng = Random(seed)
        outcomes = ("0", "1", "2")[: 1 + seed % 3]
        yield game_to_json(gamepowers.random_game(
            rng, 1 + seed % 4, 1 + seed % 3, outcomes, perfect_info=seed % 2 == 0))
        d1 = random_dynamic_game(rng, outcomes, 2, 2)
        d2 = random_dynamic_game(rng, outcomes, 2, 2, perfect_info=True)
        yield d1.to_json()
        yield seq_compose(d1, d2).to_json()
        yield seq_compose(d2, d1).to_json()


def _representations():
    for mode in ("basic", "relational"):
        for seed in range(40):
            inp = gamepowers.sample_legal_families(1 + seed % 4, seed, mode)
            yield strategic_to_json(gamepowers.construct_game(inp))
            yield gamepowers.verify_roundtrip(inp).to_json()


def _bisimulations():
    # every pointed pair of a model with itself or with another model
    for seed in range(30):
        for frame, bisimilar in (
            (GAME_FRAME, gamepowers.power_bisimilar),
            (INSTANTIAL_FRAME, gamepowers.instantial_bisimilar),
        ):
            m1 = gamepowers.random_model(seed, frame, max_worlds=4, atoms=("p",))
            m2 = m1 if seed % 3 == 0 else gamepowers.random_model(
                500 + seed, frame, max_worlds=4, atoms=("p",))
            for w1 in m1.worlds:
                for w2 in m2.worlds:
                    yield bisimilar(m1, w1, m2, w2).to_json()


SEEDED = {
    "random_model/game": lambda: (
        gamepowers.random_model(s, GAME_FRAME).to_json() for s in range(100)),
    "random_model/instantial": lambda: (
        gamepowers.random_model(s, INSTANTIAL_FRAME).to_json() for s in range(100)),
    "random_family_pair/plain": lambda: _family_pairs("plain"),
    "random_family_pair/basic": lambda: _family_pairs("basic"),
    "random_family_pair/relational": lambda: _family_pairs("relational"),
    "countermodel_search": _searches,
    "countermodel_search/rows": _row_searches,
    "bisimulations": _bisimulations,
    "axiom_soundness_suite": lambda: (
        gamepowers.axiom_soundness_suite(s, 66).to_json() for s in (3, 8)),
    "check_equation": _equations,
    "check_equation/sequential": _sequential_equations,
    "check_equation/distributions": _distributions,
    "check_congruence": lambda: _congruences("strong"),
    "check_congruence/power": lambda: _congruences("power"),
    "check_congruence/semi": lambda: _congruences("semi"),
    "hierarchy_audit": _hierarchy_audits,
    "built_games": _built_games,
    "represent": _representations,
}

PINNED = {
    "axiom_soundness_suite": "3105912afd831af24f8a81846fbb13f82f8174a7b6ae7ee5cca2b37633d4bc3b",
    "bisimulations": "3856fd6291eae800db6fdd0599872afb83768bdc57493834c1ab6fd76f200516",
    "built_games": "1dc77e47afac74e2a284aa30025f351fc548f8444e937ca130707c516a5e00b3",
    "check_congruence": "026541f177ab1025be6844eb3464a18ac1f644fbb6306fae23d878bde3c0fe72",
    "check_congruence/power": "fe29a8321d2fc8ea6e0696efa75a73a3757270e3f4b90e656e5e0002e02ab4e0",
    "check_congruence/semi": "03c13688cfe99b1b0889b31f756517efd8f952c63bf98882cbe682d0f4206175",
    "check_equation": "aeda8b16a9f1a80e042392d6161d0dc4baecea9e558465cb55c16815b773fce7",
    "check_equation/distributions": "f0ee3c6c42cb46545739c16c74a5234ce742209242821826109cf3c061413434",
    "check_equation/sequential": "35d31ace7076830071efb8a0b1634b35bf304f144d86ae600af5ea75d9ef4687",
    "countermodel_search": "751246397987c100cb086db16fe26c5bb5ef444859e72d835c6c72ee2f9ccad8",
    "countermodel_search/rows": "9a5466bb9d04bb479bacf4a5e5b42bd24f15b5c239b7d4c27d648dfcb0d9ac13",
    "hierarchy_audit": "c4d7a81b468fbbddba5aaf62312ecdfd266f5086c34d69c6810c3ddb7817993d",
    "random_family_pair/basic": "855bf1c74406309f3ec04b868604a127cc5e06decfa5b67e78c53b9968d62b62",
    "random_family_pair/plain": "18ddd880645588d5cd1e617ba4211dabd61a5bfdbce507650691898e9de4c7ab",
    "random_family_pair/relational": "c93d85688ffa6665333d1bc6cda0df6ea0dd038b3c9bb5145c4ffd8f7e09e139",
    "random_model/game": "6e959d27c94489b97f00c8b42ec5762c7b9d45ae46fc1adc28dbd4f8778d10d2",
    "random_model/instantial": "67c05de488870b4ff712e8c68afd7471316d128e10e8a5548f6796e205631a86",
    "represent": "39915dc857f3645a29d8d9e7247e5c11e26e58e6311ddaeca93be7e11b11c7e0",
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_reports_match_their_pinned_digests(name):
    assert _digest(SEEDED[name]()) == PINNED[name]
