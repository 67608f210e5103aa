"""Same seed, same output: pinned digests of the logic layer's seeded reports.

Each digest is the sha256 of the reports written one JSON document per
line.  A change that is meant to alter seeded output re-pins the digest it
moves and says so; any other change must leave every digest as it is.
"""

import hashlib
import json
from random import Random

import pytest

import gamepowers
from gamepowers.axioms import ALL_SCHEMATA, schema_instance
from gamepowers.formulas import format_formula
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


SEEDED = {
    "random_model/game": lambda: (
        gamepowers.random_model(s, GAME_FRAME).to_json() for s in range(100)),
    "random_model/instantial": lambda: (
        gamepowers.random_model(s, INSTANTIAL_FRAME).to_json() for s in range(100)),
    "random_family_pair/plain": lambda: _family_pairs("plain"),
    "random_family_pair/basic": lambda: _family_pairs("basic"),
    "random_family_pair/relational": lambda: _family_pairs("relational"),
    "countermodel_search": _searches,
    "axiom_soundness_suite": lambda: (
        gamepowers.axiom_soundness_suite(s, 66).to_json() for s in (3, 8)),
}

PINNED = {
    "axiom_soundness_suite": "3105912afd831af24f8a81846fbb13f82f8174a7b6ae7ee5cca2b37633d4bc3b",
    "countermodel_search": "751246397987c100cb086db16fe26c5bb5ef444859e72d835c6c72ee2f9ccad8",
    "random_family_pair/basic": "26c033b581302cbc8ee27d029766e72bb213e6953b8f1844a146014f78277793",
    "random_family_pair/plain": "d89be04979166b670dc69d4bc838880c664cb4a6fbead9442f17418c0fe9ca68",
    "random_family_pair/relational": "890687c75e0ffe86d82a0bdd3d4f6e5d5a8891415941ca63463918d072cbd08d",
    "random_model/game": "bab349c8a492936e6343188986288a8191d065a44e36349cc335552129b5d8dd",
    "random_model/instantial": "bf4c7595dc62c712b69c5bd7418613c7cc8305a7a54fe288707170e599ae6fb2",
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_reports_match_their_pinned_digests(name):
    assert _digest(SEEDED[name]()) == PINNED[name]
