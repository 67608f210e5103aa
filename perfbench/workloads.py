"""The workloads: seeded inputs, the operations on them, and their checks.

A workload is a fixed round of independent operations built from the seed.
The runner repeats whole rounds, so every run attempts the same operations
in the same proportions.  Each operation calls one public entry point of
gamepowers (or runs the ``gamepowers`` command once) and comes with a check
that decides, apart from the code under test, whether the answer is right.

Program functions are looked up on the module objects at call time, never
bound at import, so that a tracer installed later sees every call.  The
caller puts the checkout's ``src`` on ``sys.path`` before importing this.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from random import Random
from typing import Any, Callable

import gamepowers as gp

import oracles


def _mod(name: str):
    return sys.modules[f"gamepowers.{name}"]


@dataclass
class Context:
    workdir: str    # scratch space for fixture files, removed after the run
    launcher: "Launcher"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    render: Callable[[Any], str]
    check: Callable[[Any], list]
    seeded: bool = False
    # names a program fault this operation hits today; a failure that shows
    # the fault's signature then counts as failed without making the run
    # incorrect
    known_fault: str | None = None
    fault_shows: Callable[[Any], bool] | None = None


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _render_report(report) -> str:
    return _dumps(report.to_json())


# -- logic ---------------------------------------------------------------------

SCHEMA_INSTANCES = 4          # per schema per round
# ten model evaluations per nominal ms: atom-free instances exhaust the
# 465 small frames and go on to random models, the rest stay exhaustive
SCHEMA_BUDGET_MS = 60
SOUNDNESS_SWEEPS = 4
SOUNDNESS_SAMPLES = 66        # six instances of each schema
BISIM_PAIRS = 12
REPRESENT_PAIRS = 12          # sampled family pairs, 3 or 4 outcomes
# at most this many choice maps per built game, so that no seed draws a
# matrix that dominates the round's time or memory
REPRESENT_MAX_COST = 2000

# refuted in the exhaustive phase, so the search seed cannot hide them
REFUTABLE = (
    "[A](p;p|q) -> [A](p;p)",
    "[A]p -> p",
    "p -> [B]p",
    "[A]p -> [B]p",
    "[A](p;q) -> [A](q;p)",
)
SIDE_STRENGTHENING = REFUTABLE[0]


def _unrefuted(result) -> list:
    return [f"schema instance refuted: {result.formula}"] if result.found else []


def _refuted(result, max_model_worlds=None) -> list:
    if not result.found:
        return [f"no countermodel for {result.formula}"]
    model = result.model.to_json()
    problems = []
    if not all(oracles.frame_conditions(model, "instantial").values()):
        problems.append(f"countermodel for {result.formula} is no instantial frame")
    if result.world in oracles.extension(model, result.formula):
        problems.append(f"{result.formula} holds at reported world {result.world}")
    if max_model_worlds is not None and len(model["worlds"]) > max_model_worlds:
        problems.append(f"countermodel for {result.formula} has {len(model['worlds'])} worlds")
    return problems


def _sound(samples):
    def check(report) -> list:
        problems = []
        if report.violations:
            problems.append(f"soundness sweep seed {report.seed} found violations")
        if sum(report.counts.values()) != samples:
            problems.append(f"soundness counts sum to {sum(report.counts.values())}")
        return problems
    return check


def _bisimilar(verdict) -> list:
    return [] if verdict.verdict else ["constructed bisimilar pair reported apart"]


def realizes(fam: dict, matrix) -> bool:
    """Whether, by the oracles, the family pair is legal and the matrix's
    row and column sets are exactly FA and FB (after union closure in
    relational mode)."""
    universe, mode = fam["outcomes"], fam["mode"]
    rows, cols = oracles.row_sets(matrix), oracles.col_sets(matrix)
    if mode == "relational":
        rows = oracles.union_closure(rows, universe)
        cols = oracles.union_closure(cols, universe)
    return (oracles.legal_pair(universe, fam["FA"], fam["FB"], mode)
            and rows == oracles.family(fam["FA"])
            and cols == oracles.family(fam["FB"]))


def _represent(size: int, s: int, mode: str):
    inp = gp.sample_legal_families(size, seed=s, mode=mode, max_cost=REPRESENT_MAX_COST)
    return inp, gp.construct_game(inp), gp.verify_roundtrip(inp)


def _render_represent(result) -> str:
    inp, sg, report = result
    return _dumps([inp.to_json(), _mod("games").strategic_to_json(sg), report.to_json()])


def _represented(result) -> list:
    inp, sg, report = result
    problems = [] if realizes(inp.to_json(), sg.matrix) else [
        f"built game does not realize the sampled {inp.mode} families"]
    if not report.ok:
        problems.append(f"round trip of the sampled {inp.mode} families fails")
    return problems


def _pairs(m, p):
    return [(u, z) for u in m.worlds for z in m.neigh(p, u)]


def _up_closed(pairs, worlds):
    out = []
    for u, z in pairs:
        rest = [w for w in worlds if w not in z]
        for mask in range(1 << len(rest)):
            extra = {rest[i] for i in range(len(rest)) if mask >> i & 1}
            out.append((u, frozenset(z) | extra))
    return out


def _renamed(m, tag):
    ren = {w: tag + w for w in m.worlds}
    A, B = gp.Player.A, gp.Player.B
    return (
        tuple(ren[w] for w in m.worlds),
        [(ren[u], {ren[x] for x in z}) for u, z in _pairs(m, A)],
        [(ren[u], {ren[x] for x in z}) for u, z in _pairs(m, B)],
        {a: {ren[x] for x in m.truth_set(a)} for a in m.atoms()},
        ren,
    )


def bisimilar_pair(rng: Random, kind: str, shape: int):
    """A random model and a copy bisimilar to it by construction: renamed
    (shape 0), padded with an isolated world (1), or doubled into a disjoint
    union (2).  Returns (m1, w1, m2, w2)."""
    NM, A, B = gp.NeighborhoodModel, gp.Player.A, gp.Player.B
    monotone = kind == gp.GAME_FRAME
    base = gp.random_model(rng, kind, max_worlds=(4, 3, 2)[shape])
    w = rng.choice(base.worlds)
    if shape == 0:
        worlds, ra, rb, val, ren = _renamed(base, "r")
        return base, w, NM(worlds, ra, rb, val), ren[w]
    if shape == 1:
        worlds = base.worlds + ("pad",)
        ra = _pairs(base, A) + [("pad", frozenset(["pad"]))]
        rb = _pairs(base, B) + [("pad", frozenset(["pad"]))]
        if monotone:
            ra, rb = _up_closed(ra, worlds), _up_closed(rb, worlds)
        val = {a: base.truth_set(a) for a in base.atoms()}
        return base, w, NM(worlds, ra, rb, val), w
    w1, r1a, r1b, v1, ren1 = _renamed(base, "c")
    w2, r2a, r2b, v2, _ = _renamed(base, "d")
    worlds, ra, rb = w1 + w2, r1a + r2a, r1b + r2b
    if monotone:
        ra, rb = _up_closed(ra, worlds), _up_closed(rb, worlds)
    val = {a: v1[a] | v2[a] for a in v1}
    return base, w, NM(worlds, ra, rb, val), ren1[w]


def logic_ops(seed: int, ctx) -> list[Op]:
    rng = Random(f"logic:{seed}")
    ops = []
    for name in gp.ALL_SCHEMATA:
        for _ in range(SCHEMA_INSTANCES):
            text = gp.format_formula(gp.schema_instance(name, rng.randrange(10**6)))
            s = rng.randrange(10**4)
            ops.append(Op(
                "countermodel_search",
                lambda text=text, s=s: gp.countermodel_search(
                    text, max_worlds=4, seed=s, budget_ms=SCHEMA_BUDGET_MS),
                _render_report, _unrefuted, seeded=True,
            ))
    for text in REFUTABLE:
        s = rng.randrange(10**4)
        limit = 2 if text == SIDE_STRENGTHENING else None
        ops.append(Op(
            "countermodel_search",
            lambda text=text, s=s: gp.countermodel_search(text, max_worlds=5, seed=s),
            _render_report, lambda r, limit=limit: _refuted(r, limit), seeded=True,
        ))
    for _ in range(SOUNDNESS_SWEEPS):
        s = rng.randrange(10**6)
        ops.append(Op(
            "axiom_soundness_suite",
            lambda s=s: gp.axiom_soundness_suite(s, SOUNDNESS_SAMPLES),
            _render_report, _sound(SOUNDNESS_SAMPLES), seeded=True,
        ))
    for k in range(BISIM_PAIRS):
        kind = gp.GAME_FRAME if k % 2 == 0 else gp.INSTANTIAL_FRAME
        m1, w1, m2, w2 = bisimilar_pair(rng, kind, k % 3)
        fn = "power_bisimilar" if kind == gp.GAME_FRAME else "instantial_bisimilar"
        ops.append(Op(
            fn,
            lambda fn=fn, a=(m1, w1, m2, w2): getattr(gp, fn)(*a),
            _render_report, _bisimilar,
        ))
    for k in range(REPRESENT_PAIRS):
        a = (3 + k // 2 % 2, rng.randrange(10**6), ("basic", "relational")[k % 2])
        ops.append(Op(
            "represent", lambda a=a: _represent(*a),
            _render_represent, _represented, seeded=True,
        ))
    return ops


# -- laws ------------------------------------------------------------------------

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
# (lhs, rhs, equivalence, outcomes) that fail on the deterministic pool
NON_LAWS = (
    ("x * x", "x", "strong", ("0", "1")),
    ("x * (y + z)", "(x * y) + (x * z)", "semi", ("0", "1", "2")),
)
ONE_SHOT_SAMPLES = 10
# the pool phase (64 bindings for three variables) dominates these
SEQUENTIAL_SAMPLES = 1
SEQUENTIAL_SEEDS = 3
CONGRUENCE_SAMPLES = 3
HIERARCHY_PAIRS = 8

_EQUIV_NAMES = {
    "power": "power_equivalent",
    "strong": "strongly_equivalent",
    "semi": "semi_strongly_equivalent",
}


def _holds(report) -> list:
    if report.verdict != "holds-on-sample":
        return [f"law {report.lhs} = {report.rhs} ({report.equiv}) refuted"]
    return [] if report.samples > 0 else ["law checked on no bindings"]


def _decode(value):
    if "states" in value:
        return _mod("algebra").DynamicGame.from_json(value)
    return _mod("games").game_from_json(value)


def _apart(equiv: str, v1, v2) -> bool:
    """True when the equivalence separates the two values (statewise for
    dynamic games)."""
    fn = getattr(gp, _EQUIV_NAMES[equiv])
    if isinstance(v1, _mod("algebra").DynamicGame):
        return any(not fn(v1.games[u], v2.games[u]) for u in v1.states)
    return not fn(v1, v2)


def _counterexample_rechecks(report) -> list:
    if report.verdict != "counterexample":
        return [f"non-law {report.lhs} = {report.rhs} not refuted"]
    binding = {k: _decode(v) for k, v in report.counterexample["binding"].items()}
    lhs = gp.evaluate(gp.parse_term(report.lhs), binding)
    rhs = gp.evaluate(gp.parse_term(report.rhs), binding)
    if not _apart(report.equiv, lhs, rhs):
        return [f"counterexample to {report.lhs} = {report.rhs} does not re-check"]
    return []


def _congruence(op: str):
    def check(report) -> list:
        if op != "o":
            ok = report.verdict == "congruent-on-sample" and report.samples > 0
            return [] if ok else [f"strong equivalence not a congruence for {op}"]
        if report.verdict != "counterexample":
            return ["composition context did not separate the one-move pair"]
        ce = report.counterexample
        pair = [_decode(v) for v in ce["pair"]]
        composed = [_decode(v) for v in ce["composed"]]
        if _apart("strong", *pair) or not _apart("strong", *composed):
            return ["congruence counterexample does not re-check"]
        return []
    return check


def _hierarchy(expected_true: tuple):
    def check(report) -> list:
        problems = [f"hierarchy violation: {v}" for v in report.violations]
        for name in expected_true:
            if not report.verdicts[name].verdict:
                problems.append(f"{name} equivalence fails on an equivalent pair")
        return problems
    return check


def laws_ops(seed: int, ctx) -> list[Op]:
    rng = Random(f"laws:{seed}")
    ops = []
    for lhs, rhs in ONE_SHOT_LAWS:
        for equiv in ("strong", "power"):
            s = rng.randrange(10**6)
            ops.append(Op(
                "check_equation",
                lambda a=(lhs, rhs, equiv), s=s: gp.check_equation(
                    *a, seed=s, samples=ONE_SHOT_SAMPLES),
                _render_report, _holds, seeded=True,
            ))
    for lhs, rhs in SEQUENTIAL_LAWS * SEQUENTIAL_SEEDS:
        s = rng.randrange(10**6)
        ops.append(Op(
            "check_equation",
            lambda a=(lhs, rhs), s=s: gp.check_equation(
                *a, "semi", seed=s, samples=SEQUENTIAL_SAMPLES),
            _render_report, _holds, seeded=True,
        ))
    for lhs, rhs, equiv, outcomes in NON_LAWS:
        s = rng.randrange(10**6)
        ops.append(Op(
            "check_equation",
            lambda a=(lhs, rhs, equiv), s=s, o=outcomes: gp.check_equation(
                *a, seed=s, samples=0, outcomes=o),
            _render_report, _counterexample_rechecks, seeded=True,
        ))
    for op in ("+", "*", "-", "o"):
        s = rng.randrange(10**6)
        ops.append(Op(
            "check_congruence",
            lambda op=op, s=s: gp.check_congruence(
                op, "strong", seed=s, samples=CONGRUENCE_SAMPLES),
            _render_report, _congruence(op), seeded=True,
        ))
    for k in range(HIERARCHY_PAIRS):
        outcomes = ("x", "y", "z")[: 2 + k % 2]
        a = gp.random_game(rng, 3, 2, outcomes)
        b = gp.random_game(rng, 3, 2, outcomes)
        shape = k % 4
        if shape == 0:
            pair, expected = (a, a), ("power", "strong", "semi", "strategic")
        elif shape == 1:
            op = gp.op_plus if k % 8 < 4 else gp.op_times
            pair, expected = (op(a, b), op(b, a)), ("power", "strong", "semi")
        elif shape == 2:
            pair = (gp.op_dual(gp.op_dual(a)), a)
            expected = ("power", "strong", "semi", "strategic")
        else:
            pair, expected = (a, b), ()
        ops.append(Op(
            "hierarchy_audit",
            lambda pair=pair: gp.hierarchy_audit(*pair),
            _render_report, _hierarchy(expected),
        ))
    return ops


# -- cli -------------------------------------------------------------------------


@dataclass
class Invocation:
    code: int
    stdout: str
    stderr: str
    maxrss_kib: int
    trace: dict | None


class Launcher:
    """Runs the gamepowers command line, one fresh process at a time.

    With `trace` set, each child records spans itself (see gp.py) and the
    invocation carries the child's span summary.
    """

    def __init__(self, root: str, workdir: str):
        self.argv0 = [sys.executable, os.path.join(root, "perfbench", "gp.py")]
        self.root = root
        self.workdir = workdir
        self.trace = False

    def __call__(self, args: list[str]) -> Invocation:
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        trace_path = os.path.join(self.workdir, "trace.json")
        env = dict(os.environ)
        env.pop("GAMEPOWERS_BENCH_TRACE", None)
        if self.trace:
            env["GAMEPOWERS_BENCH_TRACE"] = trace_path
            if os.path.exists(trace_path):
                os.remove(trace_path)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                self.argv0 + args, stdin=subprocess.DEVNULL, stdout=out,
                stderr=err, cwd=self.root, env=env,
            )
            # wait4 reaps the child and reports its own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if self.trace:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Invocation(proc.returncode, stdout, stderr, usage.ru_maxrss, trace)


def _one_document(text: str):
    """The single JSON value printed, or None unless there is exactly one."""
    try:
        value, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return None
    return value if text[end:].strip() == "" else None


def _cli_check(expect_code: int, content: Callable[[dict], list] | None):
    def check(inv: Invocation) -> list:
        problems = []
        if inv.code != expect_code:
            problems.append(f"exit {inv.code}, expected {expect_code}")
        doc = _one_document(inv.stdout)
        if not isinstance(doc, dict):
            problems.append("stdout is not exactly one JSON document")
        if "Traceback" in inv.stderr:
            problems.append("traceback on stderr")
        if content is not None and isinstance(doc, dict) and not problems:
            problems.extend(content(doc))
        return problems
    return check


def _raised(exc: str) -> Callable[[Invocation], bool]:
    """Whether an invocation died of an uncaught `exc`: exit 1, and a
    traceback on stderr that ends in that exception."""
    def shows(inv: Invocation) -> bool:
        lines = inv.stderr.strip().splitlines()
        return (inv.code == 1 and inv.stdout == "" and "Traceback" in inv.stderr
                and bool(lines) and lines[-1].startswith(exc + ":"))
    return shows


def _cli_error(doc) -> list:
    return [] if isinstance(doc.get("error"), str) else ["no error message"]


def _write(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def _members(expected):
    def content(doc) -> list:
        got = sorted(map(sorted, doc.get("members", [])))
        want = sorted(map(sorted, expected))
        return [] if got == want else [f"members {got}, expected {want}"]
    return content


def _deep_game(depth: int) -> str:
    # built as text: the encoder itself cannot nest this deep
    return (
        '{"outcomes": ["w"], "tree": '
        + '{"player": "A", "children": [' * depth
        + '{"outcome": "w"}'
        + "]}" * depth
        + "}"
    )


def cli_ops(seed: int, ctx) -> list[Op]:
    rng = Random(f"cli:{seed}")
    wd = ctx.workdir
    run = ctx.launcher
    G = _mod("games")
    P, node, leaf = gp.Player, gp.node, gp.leaf

    pennies = gp.game(("w", "l"), node(P.A, [
        node(P.B, [leaf("w"), leaf("l")], info="c0"),
        node(P.B, [leaf("l"), leaf("w")], info="c0"),
    ]))
    flipped = gp.game(("w", "l"), node(P.B, [
        node(P.A, [leaf("w"), leaf("l")], info="c0"),
        node(P.A, [leaf("l"), leaf("w")], info="c0"),
    ]))
    early = gp.game(["1", "2", "3"], node(P.A, [leaf("1"), node(P.B, [leaf("2"), leaf("3")])]))
    late = gp.game(["1", "2", "3"], node(P.B, [
        node(P.A, [leaf("1"), leaf("2")]), node(P.A, [leaf("1"), leaf("3")]),
    ]))
    rand_game = gp.random_game(rng, 3, 2, ("a", "b", "c"))
    outcomes = ["a", "b", "c"]
    matrix = [[rng.choice(outcomes) for _ in range(3)] for _ in range(3)]
    perm_rows = [matrix[i] for i in (2, 0, 1)]
    strat = {"outcomes": outcomes, "rows": ["r0", "r1", "r2"],
             "cols": ["c0", "c1", "c2"], "matrix": matrix}
    strat2 = dict(strat, matrix=perm_rows)
    inst1, iw1, inst2, iw2 = bisimilar_pair(rng, gp.INSTANTIAL_FRAME, 0)
    game1, gw1, game2, gw2 = bisimilar_pair(rng, gp.GAME_FRAME, 1)
    formula = gp.format_formula(gp.random_formula(rng, 2, ("p", "q", "r")))
    fams = {mode: gp.sample_legal_families(3, seed=rng.randrange(10**6), mode=mode,
                                           max_cost=REPRESENT_MAX_COST)
            for mode in ("basic", "relational")}

    f = {
        "pennies": _write(wd, "pennies.json", G.game_to_json(pennies)),
        "flipped": _write(wd, "flipped.json", G.game_to_json(flipped)),
        "early": _write(wd, "early.json", G.game_to_json(early)),
        "late": _write(wd, "late.json", G.game_to_json(late)),
        "rand": _write(wd, "random_game.json", G.game_to_json(rand_game)),
        "strat": _write(wd, "strategic.json", strat),
        "strat2": _write(wd, "strategic_permuted.json", strat2),
        "inst1": _write(wd, "instantial1.json", inst1.to_json()),
        "inst2": _write(wd, "instantial2.json", inst2.to_json()),
        "game1": _write(wd, "game_model1.json", game1.to_json()),
        "game2": _write(wd, "game_model2.json", game2.to_json()),
        "basic": _write(wd, "families_basic.json", fams["basic"].to_json()),
        "relational": _write(wd, "families_relational.json", fams["relational"].to_json()),
        "missing": os.path.join(wd, "missing.json"),
        # fixed malformed inputs; none depends on the seed
        "badval": _write(wd, "bad_valuation.json", {
            "worlds": ["u"], "RA": [["u", ["u"]]], "RB": [["u", ["u"]]], "val": ["p"]}),
        "deep": _write(wd, "deep_game.json", _deep_game(3000)),
    }
    s1, s2, s3, s4, s5 = (str(rng.randrange(10**4)) for _ in range(5))
    rand_rel_b = [sorted(m) for m in gp.relational_basic_powers(rand_game, P.B)]
    inst_model = inst1.to_json()

    def frame_ok(model_json, kind):
        def content(doc) -> list:
            want = oracles.frame_conditions(model_json, kind)
            got = {k: v["holds"] for k, v in doc["conditions"].items()}
            return [] if got == want and doc["valid"] else [f"frame report {got}, oracle {want}"]
        return content

    def mc_content(doc) -> list:
        want = oracles.extension(inst_model, formula)
        return [] if doc["extension"] == want else [f"extension {doc['extension']}, oracle {want}"]

    def represented(mode):
        fam = fams[mode].to_json()

        def content(doc) -> list:
            ok = (realizes(fam, doc["game"]["matrix"])
                  and doc["roundtrip"]["ok"] and doc["legal"])
            return [] if ok else [f"represent output does not realize the {mode} families"]
        return content

    def verdict(value):
        return lambda doc: [] if doc.get("verdict") is value else [f"verdict {doc.get('verdict')}"]

    def strong_witness(doc) -> list:
        w = doc.get("witness") or {}
        ok = doc.get("verdict") is False and w.get("player") == "A" and w.get("member") == ["1", "2"]
        return [] if ok else [f"witness {w}"]

    def refuted(doc) -> list:
        if not doc.get("found"):
            return ["side strengthening not refuted"]
        problems = []
        if len(doc["model"]["worlds"]) > 2:
            problems.append("countermodel has more than two worlds")
        if doc["world"] in oracles.extension(doc["model"], doc["formula"]):
            problems.append("formula holds at the reported world")
        if not all(oracles.frame_conditions(doc["model"], "instantial").values()):
            problems.append("countermodel is no instantial frame")
        return problems

    def swept(doc) -> list:
        ok = not doc["violations"] and sum(doc["counts"].values()) == 22
        return [] if ok else ["soundness sweep report wrong"]

    table = [
        # (kind, args, expected exit, content check, seeded, known fault)
        ("powers", ["powers", f["pennies"], "--player", "A", "--kind", "basic"], 0,
         _members([["l", "w"]]), False, None),
        ("powers", ["powers", f["pennies"], "--player", "B", "--kind", "relational"], 0,
         _members([["l", "w"]]), False, None),
        ("powers", ["powers", f["rand"], "--player", "B", "--kind", "relational"], 0,
         _members(rand_rel_b), False, None),
        ("powers", ["powers", f["strat"], "--player", "B", "--kind", "basic"], 0,
         _members(oracles.col_sets(matrix)), False, None),
        ("powers", ["powers", f["strat"], "--player", "A", "--kind", "relational"], 0,
         _members(oracles.union_closure(oracles.row_sets(matrix), outcomes)), False, None),
        ("equiv", ["equiv", f["pennies"], f["flipped"], "--relation", "strong"], 0,
         verdict(True), False, None),
        ("equiv", ["equiv", f["early"], f["late"], "--relation", "power"], 0,
         verdict(True), False, None),
        ("equiv", ["equiv", f["early"], f["late"], "--relation", "strong"], 1,
         strong_witness, False, None),
        ("equiv", ["equiv", f["strat"], f["strat2"], "--relation", "strategic"], 0,
         verdict(True), False, None),
        ("equiv", ["equiv", f["pennies"], f["missing"], "--relation", "semi"], 2,
         _cli_error, False, None),
        ("bisim", ["bisim", f["inst1"], iw1, f["inst2"], iw2, "--kind", "instantial"], 0,
         verdict(True), False, None),
        ("bisim", ["bisim", f["game1"], gw1, f["game2"], gw2, "--kind", "power"], 0,
         verdict(True), False, None),
        ("frame", ["frame", f["inst1"], "--kind", "instantial"], 0,
         frame_ok(inst_model, "instantial"), False, None),
        ("frame", ["frame", f["game2"], "--kind", "game"], 0,
         frame_ok(game2.to_json(), "game"), False, None),
        ("mc", ["mc", f["inst1"], formula], None, mc_content, False, None),
        ("mc", ["mc", f["inst1"], "[A](p;"], 2, _cli_error, False, None),
        ("represent", ["represent", f["basic"], "--verify"], 0,
         represented("basic"), False, None),
        ("represent", ["represent", f["relational"], "--verify"], 0,
         represented("relational"), False, None),
        ("algebra", ["algebra", "x + y = y + x", "--equiv", "strong",
                     "--samples", "5", "--seed", s1], 0,
         lambda d: [] if d["verdict"] == "holds-on-sample" else ["law refuted"], True, None),
        ("algebra", ["algebra", "x * x = x", "--equiv", "strong",
                     "--samples", "0", "--seed", s2], 1,
         lambda d: [] if d["counterexample"] else ["no counterexample"], True, None),
        ("congruence", ["congruence", "+", "--equiv", "strong",
                        "--samples", "2", "--seed", s3], 0, None, True, None),
        ("congruence", ["congruence", "o", "--equiv", "strong",
                        "--samples", "1", "--seed", s3], 1, None, True, None),
        ("axioms", ["axioms", "--samples", "22", "--seed", s4], 0, swept, True, None),
        ("refute", ["refute", SIDE_STRENGTHENING, "--seed", s5], 1, refuted, True, None),
        ("refute", ["refute", "p | !p", "--seed", s5, "--budget", "20"], 0,
         lambda d: [] if d["found"] is False else ["tautology refuted"], True, None),
        ("frame", ["frame", f["badval"], "--kind", "instantial"], 2, _cli_error, False,
         ("frame on a model whose val is a list", "AttributeError")),
        ("powers", ["powers", f["deep"], "--player", "A", "--kind", "basic"], 2,
         _cli_error, False, ("powers on a game nested 3,000 deep", "RecursionError")),
        ("refute", ["refute", "!" * 5000 + "p", "--seed", "1"], 2, _cli_error, False,
         ("refute on '!'*5000+'p'", "RecursionError")),
    ]
    mc_code = 0 if oracles.extension(inst_model, formula) == sorted(inst1.worlds) else 1
    ops = []
    for kind, args, code, content, seeded, fault in table:
        if code is None:
            code = mc_code
        op = Op(
            kind, lambda args=args: run(args),
            lambda inv: f"exit {inv.code}\n{inv.stdout}",
            _cli_check(code, content), seeded=seeded,
        )
        if fault is not None:
            what, exc = fault
            op.known_fault = f"{what} raises {exc}, exit 1"
            op.fault_shows = _raised(exc)
        ops.append(op)
    return ops


BUILDERS = {
    "logic": logic_ops,
    "laws": laws_ops,
    "cli": cli_ops,
}


def cli_import_probe(root: str) -> float:
    """Seconds for a fresh interpreter to import gamepowers.cli, launch
    included, as every command-line invocation pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "import gamepowers.cli; print(repr(time.monotonic()))"
    )
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(root, "src")],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, check=True,
    ).stdout
    return float(out) - t0
