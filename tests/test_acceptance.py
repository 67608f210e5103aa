"""End-to-end gate: eleven checks, one verdict line each."""

import time
from itertools import combinations
from random import Random

from conftest import record_verdict

from gamepowers.algebra import (
    check_congruence,
    check_equation,
    op_dual,
    op_plus,
    op_times,
    random_dynamic_game,
    random_game,
    relational_power_map,
    composed_power_relation,
    seq_compose,
    DynamicGame,
)
from gamepowers.axioms import (
    ALL_SCHEMATA,
    axiom_soundness_suite,
    countermodel_search,
    schema_instance,
)
from gamepowers.equivalence import (
    hierarchy_audit,
    instantial_bisimilar,
    power_bisimilar,
    power_equivalent,
    semi_strongly_equivalent,
    strategic_form_equivalent,
    strongly_equivalent,
)
from gamepowers.formulas import random_formula
from gamepowers.games import Player, game, game_from_json, leaf, node
from gamepowers.models import (
    GAME_FRAME,
    INSTANTIAL_FRAME,
    NeighborhoodModel,
    model_check,
    random_model,
)
from gamepowers.powers import (
    DETERMINACY,
    basic_powers,
    check_conditions,
    family_conditions,
    powers,
    random_family_pair,
    relational_basic_powers,
)
from gamepowers.representation import (
    BASIC,
    RELATIONAL,
    RepresentationInput,
    sample_legal_families,
    verify_roundtrip,
)
from helpers import (
    double_move_then_b_choice,
    one_then_two_or_three,
    single_move_then_b_choice,
    two_or_three_after_one,
    zero_one_matrix_2x3,
    zero_one_matrix_3x3,
)


def _verdict(num: int, label: str, ok: bool) -> None:
    line = f"criterion {num:2d}: {label} -> {'PASS' if ok else 'FAIL'}"
    record_verdict(line)
    print(line)
    assert ok, label


def test_criterion_01_branching_pair_powers():
    start = time.perf_counter()
    left, right = one_then_two_or_three(), two_or_three_after_one()
    ok = bool(power_equivalent(left, right))
    ok &= not strongly_equivalent(left, right)
    ok &= basic_powers(left, Player.A).members == (("1",), ("2", "3"))
    ok &= basic_powers(right, Player.A).members == (
        ("1",),
        ("1", "2"),
        ("1", "3"),
        ("2", "3"),
    )
    ok &= not semi_strongly_equivalent(left, right)
    ok &= time.perf_counter() - start < 1.0
    _verdict(1, "three-outcome pair: plain equal, basic and relational differ", ok)


def test_criterion_02_matrix_pair():
    start = time.perf_counter()
    big, small = zero_one_matrix_3x3(), zero_one_matrix_2x3()
    ok = bool(strongly_equivalent(big, small))
    ok &= not strategic_form_equivalent(big, small)
    ok &= time.perf_counter() - start < 1.0
    _verdict(2, "matrix pair: basic equal, profile bisimulation fails", ok)


def test_criterion_03_two_state_pair_and_composition_context():
    left, right = single_move_then_b_choice(), double_move_then_b_choice()
    strong = strongly_equivalent(left, right)
    ok = not strong
    ok &= strong.witness["player"] == "B"
    ok &= sorted(strong.witness["member"]) == ["x", "y"]
    ok &= bool(semi_strongly_equivalent(left, right))
    report = check_congruence("o", "strong", seed=0, samples=1)
    ok &= report.verdict == "counterexample"
    ce = report.counterexample
    ok &= ce["witness"]["player"] == "B"
    ok &= sorted(ce["witness"]["member"]) == ["x", "y"]
    composed_left = DynamicGame.from_json(ce["composed"][0]).games["x"]
    composed_right = DynamicGame.from_json(ce["composed"][1]).games["x"]
    ok &= composed_left == left and composed_right == right
    _verdict(3, "two-state pair: relational split found by composition probe", ok)


def test_criterion_04_representation_roundtrip():
    good = 0
    for i in range(200):
        inp = sample_legal_families(2 + i % 3, seed=i, mode=BASIC)
        report = verify_roundtrip(inp)
        good += bool(report.fa_ok and report.fb_ok)
    rel_good = 0
    for i in range(100):
        inp = sample_legal_families(2 + i % 3, seed=900 + i, mode=RELATIONAL)
        report = verify_roundtrip(inp)
        rel_good += bool(report.fa_ok and report.fb_ok)
    # unbounded draws past 4 outcomes, where no choice-map cost bound applies
    big_good = 0
    for i in range(300):
        mode, size = (BASIC, RELATIONAL)[i % 2], (5, 6, 8)[i % 3]
        outcomes = [str(k) for k in range(size)]
        fa, fb = random_family_pair(Random(4000 + i), outcomes, mode)
        report = verify_roundtrip(RepresentationInput(outcomes, fa, fb, mode))
        big_good += report.ok
    ok = good == 200 and rel_good == 100 and big_good == 300
    _verdict(4, f"family realization {good}/200 exact, {rel_good}/100 relational, "
                f"{big_good}/300 on 5-8 outcomes", ok)


def test_criterion_05_forward_conditions():
    kinds = (("plain", powers), ("basic", basic_powers), ("relational", relational_basic_powers))
    violations = 0
    for i in range(500):
        rng = Random(10_000 + i)
        outcomes = tuple("abcde"[: 2 + i % 4])
        perfect = i % 2 == 0
        g = random_game(rng, 4, 3, outcomes, perfect_info=perfect, max_cost=512)
        for mode, fn in kinds:
            pa, pb = check_conditions(fn(g, Player.A), fn(g, Player.B))
            for name in family_conditions(mode):
                violations += not pa[name].holds
                violations += not pb[name].holds
            if mode == "plain" and perfect:
                violations += not pa[DETERMINACY].holds
                violations += not pb[DETERMINACY].holds
    _verdict(5, f"500 sampled games meet their family conditions ({violations} bad)", violations == 0)


def test_criterion_06_equivalence_hierarchy():
    violations = 0
    for i in range(200):
        rng = Random(20_000 + i)
        outcomes = tuple("xyz"[: 2 + i % 2])
        kind = i % 4
        if kind == 0:
            g1 = random_game(rng, 3, 2, outcomes)
            g2 = g1
        elif kind == 1:
            a = random_game(rng, 2, 2, outcomes)
            b = random_game(rng, 2, 2, outcomes)
            op = op_plus if i % 8 < 4 else op_times
            g1, g2 = op(a, b), op(b, a)
        elif kind == 2:
            g1 = random_game(rng, 3, 2, outcomes)
            g2 = op_dual(op_dual(g1))
        else:
            g1 = random_game(rng, 3, 2, outcomes)
            g2 = random_game(rng, 3, 2, outcomes)
        violations += len(hierarchy_audit(g1, g2).violations)
    _verdict(6, f"200 sampled pairs keep the implication order ({violations} bad)", violations == 0)


def test_criterion_07_axiom_soundness():
    report = axiom_soundness_suite(2026, samples=1000)
    ok = bool(report) and sum(report.counts.values()) == 1000
    _verdict(7, f"1000 schema instances, {len(report.violations)} refuted", ok)


def _renamed(m: NeighborhoodModel, tag: str):
    ren = {w: tag + w for w in m.worlds}
    worlds = tuple(ren[w] for w in m.worlds)
    ra = [(ren[u], {ren[x] for x in z}) for u in m.worlds for z in m.neigh(Player.A, u)]
    rb = [(ren[u], {ren[x] for x in z}) for u in m.worlds for z in m.neigh(Player.B, u)]
    val = {a: {ren[x] for x in m.truth_set(a)} for a in m.atoms()}
    return worlds, ra, rb, val, ren


def _up_closed(pairs, universe):
    out, seen = [], set()
    for u, z in pairs:
        rest = [w for w in universe if w not in z]
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                closed = frozenset(z) | frozenset(extra)
                if (u, closed) not in seen:
                    seen.add((u, closed))
                    out.append((u, closed))
    return out


def _bisimilar_pair(rng: Random, kind: str, shape: int):
    monotone = kind == GAME_FRAME
    base = random_model(rng, kind, max_worlds=(4, 3, 2)[shape])
    w = rng.choice(base.worlds)
    if shape == 0:
        worlds, ra, rb, val, ren = _renamed(base, "r")
        return base, w, NeighborhoodModel(worlds, ra, rb, val), ren[w]
    if shape == 1:  # one isolated extra world
        worlds = base.worlds + ("pad",)
        ra = [(u, z) for u in base.worlds for z in base.neigh(Player.A, u)]
        rb = [(u, z) for u in base.worlds for z in base.neigh(Player.B, u)]
        ra.append(("pad", frozenset(["pad"])))
        rb.append(("pad", frozenset(["pad"])))
        if monotone:
            ra, rb = _up_closed(ra, worlds), _up_closed(rb, worlds)
        val = {a: base.truth_set(a) for a in base.atoms()}
        return base, w, NeighborhoodModel(worlds, ra, rb, val), w
    # two disjoint copies, pointed in the first
    w1, r1a, r1b, v1, ren1 = _renamed(base, "c")
    w2, r2a, r2b, v2, _ = _renamed(base, "d")
    worlds = w1 + w2
    ra, rb = r1a + r2a, r1b + r2b
    if monotone:
        ra, rb = _up_closed(ra, worlds), _up_closed(rb, worlds)
    val = {a: v1[a] | v2[a] for a in v1}
    return base, w, NeighborhoodModel(worlds, ra, rb, val), ren1[w]


def test_criterion_08_bisimulation_invariance():
    disagreements = 0
    confirmed = 0
    for i in range(100):
        rng = Random(30_000 + i)
        instantial = i % 2 == 1
        kind = INSTANTIAL_FRAME if instantial else GAME_FRAME
        m1, w1, m2, w2 = _bisimilar_pair(rng, kind, i % 3)
        check = instantial_bisimilar if instantial else power_bisimilar
        confirmed += bool(check(m1, w1, m2, w2))
        for _ in range(100):
            f = random_formula(rng, 3, ("p", "q", "r"), instantial=instantial)
            here = w1 in model_check(m1, f)
            there = w2 in model_check(m2, f)
            disagreements += here != there
    ok = confirmed == 100 and disagreements == 0
    _verdict(8, f"100 bisimilar pairs, {disagreements} formula disagreements", ok)


def test_criterion_09_operation_laws():
    one_shot = (
        ("x + y", "y + x"),
        ("x + (y + z)", "(x + y) + z"),
        ("x * y", "y * x"),
        ("x * (y * z)", "(x * y) * z"),
        ("--x", "x"),
        ("-(x + y)", "(-x) * (-y)"),
        ("-(x * y)", "(-x) + (-y)"),
    )
    sequential = (
        ("x o (y o z)", "(x o y) o z"),
        ("-(x o y)", "(-x) o (-y)"),
        ("(x + y) o z", "(x o z) + (y o z)"),
    )
    ok = all(
        check_equation(l, r, "strong", seed=2026, samples=200) for l, r in one_shot
    )
    ok &= all(
        check_equation(l, r, "semi", seed=2026, samples=200) for l, r in sequential
    )
    idem = check_equation("x * x", "x", "strong", seed=1, samples=0, outcomes=("0", "1"))
    ok &= idem.verdict == "counterexample"
    found = game_from_json(idem.counterexample["binding"]["x"])
    ok &= found == game(("0", "1"), node(Player.A, [leaf("0"), leaf("1")]))
    dist = check_equation("x * (y + z)", "(x * y) + (x * z)", "semi", seed=2, samples=0)
    ok &= dist.verdict == "counterexample"
    _verdict(9, "laws hold on samples, both counterexamples found", ok)


def test_criterion_10_composition_semantics():
    mismatches = 0
    for i in range(100):
        rng = Random(40_000 + i)
        states = ("0", "1", "2")[: 2 + i % 2]
        d1 = random_dynamic_game(rng, states)
        d2 = random_dynamic_game(rng, states)
        composed = seq_compose(d1, d2)
        for p in (Player.A, Player.B):
            r1 = relational_power_map(d1, p)
            r2 = relational_power_map(d2, p)
            for u in states:
                direct = relational_basic_powers(composed.games[u], p)
                mismatches += composed_power_relation(r1, r2, u) != direct
    _verdict(10, f"composed relation matches brute force ({mismatches} bad)", mismatches == 0)


def test_criterion_11_refutation_sanity():
    hit = countermodel_search("[A](p;p|q) -> [A](p;p)", max_worlds=5, seed=1)
    ok = hit.found and len(hit.model.worlds) <= 2
    for j, name in enumerate(ALL_SCHEMATA):
        for s in (0, 1):
            f = schema_instance(name, 100 * j + s)
            ok &= not countermodel_search(f, max_worlds=4, seed=s, budget_ms=200).found
    _verdict(11, "side strengthening refuted, schema instances unrefuted", ok)
