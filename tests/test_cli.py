"""Exit codes and JSON reports for every subcommand."""

import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamepowers.cli import main
from gamepowers.equivalence import strongly_equivalent
from gamepowers.games import game_to_json
from helpers import one_then_two_or_three, two_or_three_after_one


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def game_files(tmp_path):
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    p1.write_text(json.dumps(game_to_json(one_then_two_or_three())))
    p2.write_text(json.dumps(game_to_json(two_or_three_after_one())))
    return str(p1), str(p2)


def model_file(tmp_path, name, worlds, ra, rb, val):
    p = tmp_path / name
    p.write_text(json.dumps({"worlds": worlds, "RA": ra, "RB": rb, "val": val}))
    return str(p)


def test_powers_reports_the_family(capsys, game_files):
    code, out = run(capsys, "powers", game_files[0], "--player", "A", "--kind", "basic")
    assert code == 0
    report = json.loads(out)
    assert report["members"] == [["1"], ["2", "3"]]
    assert report["player"] == "A" and report["kind"] == "basic"


def test_equiv_exit_codes_and_witness(capsys, game_files):
    code, out = run(capsys, "equiv", *game_files, "--relation", "power")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out = run(capsys, "equiv", *game_files, "--relation", "strong")
    assert code == 1
    report = json.loads(out)
    # the report's witness is the library's own
    verdict = strongly_equivalent(one_then_two_or_three(), two_or_three_after_one())
    assert report["witness"] == verdict.witness
    assert report["witness"]["member"] == ["1", "2"]


def test_equiv_missing_file(capsys, game_files):
    code, out = run(capsys, "equiv", game_files[0], "/no/such.json", "--relation", "semi")
    assert code == 2
    assert "error" in json.loads(out)


def test_bisim_accepts_and_distinguishes(capsys, tmp_path):
    m1 = model_file(tmp_path, "m1.json", ["u"], [["u", ["u"]]], [["u", ["u"]]], {"p": ["u"]})
    m2 = model_file(tmp_path, "m2.json", ["v"], [["v", ["v"]]], [["v", ["v"]]], {"p": ["v"]})
    m3 = model_file(tmp_path, "m3.json", ["v"], [["v", ["v"]]], [["v", ["v"]]], {"p": []})
    for kind in ("power", "instantial"):
        code, out = run(capsys, "bisim", m1, "u", m2, "v", "--kind", kind)
        assert code == 0 and json.loads(out)["verdict"] is True
    code, out = run(capsys, "bisim", m1, "u", m3, "v", "--kind", "power")
    assert code == 1 and json.loads(out)["verdict"] is False


def test_bisim_input_errors(capsys, tmp_path):
    m1 = model_file(tmp_path, "m1.json", ["u"], [["u", ["u"]]], [["u", ["u"]]], {})
    # two-world model whose A-neighborhoods are not upward closed
    m2 = model_file(
        tmp_path,
        "m2.json",
        ["u", "v"],
        [["u", ["u"]], ["v", ["v"]]],
        [["u", ["u"]], ["v", ["v"]]],
        {},
    )
    code, _ = run(capsys, "bisim", m1, "zz", m1, "u", "--kind", "power")
    assert code == 2
    code, out = run(capsys, "bisim", m2, "u", m1, "u", "--kind", "power")
    assert code == 2
    assert "error" in json.loads(out)


def test_frame_validation_codes(capsys, tmp_path):
    good = model_file(tmp_path, "good.json", ["u"], [["u", ["u"]]], [["u", ["u"]]], {})
    bad = model_file(tmp_path, "bad.json", ["u"], [["u", []]], [["u", ["u"]]], {})
    code, out = run(capsys, "frame", good, "--kind", "instantial")
    assert code == 0 and json.loads(out)["valid"] is True
    code, out = run(capsys, "frame", bad, "--kind", "game")
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["conditions"]["Consistency"]["holds"] is False


def test_mc_extension_and_codes(capsys, tmp_path):
    m = model_file(tmp_path, "m.json", ["u"], [["u", ["u"]]], [["u", ["u"]]], {"p": ["u"]})
    code, out = run(capsys, "mc", m, "[A]true")
    assert code == 0
    assert json.loads(out)["extension"] == ["u"]
    code, out = run(capsys, "mc", m, "[A](false;true)")
    assert code == 1
    assert json.loads(out)["extension"] == []
    code, out = run(capsys, "mc", m, "[A](p;")
    assert code == 2
    assert "position" in json.loads(out)["error"]


def test_mc_warns_on_invalid_frames(capsys, tmp_path):
    m = model_file(
        tmp_path,
        "m.json",
        ["u", "v"],
        [["u", []], ["v", ["v"]]],
        [["u", ["u"]], ["v", ["v"]]],
        {},
    )
    code, out = run(capsys, "mc", m, "true")
    assert code == 0
    assert json.loads(out)["warnings"]


def test_represent_builds_and_verifies(capsys, tmp_path):
    p = tmp_path / "fam.json"
    p.write_text(
        json.dumps(
            {"outcomes": ["0", "1"], "FA": [["0"], ["1"]], "FB": [["0", "1"]], "mode": "basic"}
        )
    )
    code, out = run(capsys, "represent", str(p), "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["legal"] is True
    assert "cost" not in report
    assert report["roundtrip"]["ok"] is True
    assert report["roundtrip"]["strategies_exact"] is True
    assert report["game"]["rows"] == ["(0,0,0)", "(0,0,1)", "(1,1,0)", "(1,1,1)"]


def test_represent_verify_builds_and_checks_the_families_once(capsys, tmp_path, monkeypatch):
    import gamepowers.cli as cli
    import gamepowers.representation as rep

    p = tmp_path / "fam.json"
    p.write_text(json.dumps(
        {"outcomes": ["0", "1", "2"], "FA": [["0"], ["1", "2"]], "FB": [["0", "1"], ["0", "2"]]}
    ))
    _, before = run(capsys, "represent", str(p), "--verify")
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rep, "check_input", counted(rep.check_input))
    build = counted(rep.construct_game)
    monkeypatch.setattr(rep, "construct_game", build)
    monkeypatch.setattr(cli, "construct_game", build)
    code, out = run(capsys, "represent", str(p), "--verify")
    assert calls == {"construct_game": 1, "check_input": 1}
    assert code == 0 and out == before
    assert json.loads(out)["roundtrip"] == rep.verify_roundtrip(
        rep.load_representation_input(str(p))
    ).to_json()


def test_represent_flags_illegal_families(capsys, tmp_path):
    p = tmp_path / "fam.json"
    p.write_text(
        json.dumps({"outcomes": ["0"], "FA": [[]], "FB": [["0"]], "mode": "basic"})
    )
    code, out = run(capsys, "represent", str(p))
    assert code == 1
    report = json.loads(out)
    assert report["legal"] is False
    assert report["conditions"]["A"]["Consistency"]["holds"] is False


def test_represent_malformed_file(capsys, tmp_path):
    p = tmp_path / "fam.json"
    p.write_text("{not json")
    code, out = run(capsys, "represent", str(p))
    assert code == 2


def test_algebra_codes_and_determinism(capsys):
    code, first = run(capsys, "algebra", "x + y = y + x", "--equiv", "strong",
                      "--samples", "5", "--seed", "1")
    assert code == 0
    assert json.loads(first)["verdict"] == "holds-on-sample"
    code, again = run(capsys, "algebra", "x + y = y + x", "--equiv", "strong",
                      "--samples", "5", "--seed", "1")
    assert first == again
    code, out = run(capsys, "algebra", "x * x = x", "--equiv", "strong",
                    "--samples", "0", "--seed", "1")
    assert code == 1
    assert json.loads(out)["counterexample"]["binding"]["x"]


def test_algebra_rejects_non_equations(capsys):
    code, out = run(capsys, "algebra", "x + y", "--equiv", "strong", "--seed", "1")
    assert code == 2
    code, out = run(capsys, "algebra", "x + = y", "--equiv", "strong", "--seed", "1")
    assert code == 2


def test_congruence_codes(capsys):
    code, out = run(capsys, "congruence", "o", "--equiv", "strong",
                    "--samples", "1", "--seed", "0")
    assert code == 1
    assert json.loads(out)["counterexample"]["context"] == "left-of-branching"
    code, _ = run(capsys, "congruence", "+", "--equiv", "strong",
                  "--samples", "2", "--seed", "0")
    assert code == 0


def test_axioms_sweep(capsys):
    code, out = run(capsys, "axioms", "--samples", "22", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert sum(report["counts"].values()) == 22
    assert report["violations"] == []


def test_negative_sample_counts_are_input_errors(capsys):
    assert_input_error(capsys, "axioms", "--seed", "1", "--samples", "-5")
    assert_input_error(capsys, "congruence", "+", "--equiv", "strong",
                       "--seed", "0", "--samples", "-2")
    assert_input_error(capsys, "algebra", "x + y = y + x", "--equiv", "semi",
                       "--seed", "0", "--samples", "-1")
    code, out = run(capsys, "axioms", "--seed", "1", "--samples", "0")
    assert code == 0
    assert json.loads(out)["samples"] == 0


def test_budget_below_one_is_an_input_error(capsys):
    for budget in ("-5", "0"):
        assert_input_error(capsys, "refute", "[A]p -> p", "--seed", "0",
                           "--budget", budget)


def test_refute_codes(capsys):
    code, out = run(capsys, "refute", "[A](p;p|q) -> [A](p;p)", "--seed", "1")
    assert code == 1
    assert json.loads(out)["model"]["worlds"]
    code, out = run(capsys, "refute", "p | !p", "--seed", "1", "--budget", "20")
    assert code == 0
    assert json.loads(out)["found"] is False


def test_algebra_rejects_a_depth_cap_past_twelve(capsys):
    for depth in ("13", "40", "0"):
        assert_input_error(capsys, "algebra", "x + y = y + x", "--equiv", "strong",
                           "--seed", "0", "--samples", "5", "--max-depth", depth)
    code, _ = run(capsys, "algebra", "x + y = y + x", "--equiv", "strong",
                  "--seed", "0", "--samples", "1", "--max-depth", "12")
    assert code == 0


def test_refute_rejects_a_world_cap_past_eight(capsys):
    assert_input_error(capsys, "refute", "p", "--seed", "1", "--max-worlds", "9")
    assert_input_error(capsys, "refute", "p", "--seed", "1", "--max-worlds", "0")


def test_stochastic_commands_require_a_seed(capsys):
    assert run(capsys, "axioms")[0] == 2
    assert run(capsys, "refute", "p")[0] == 2
    assert run(capsys, "algebra", "x = x", "--equiv", "semi")[0] == 2
    assert run(capsys, "congruence", "+", "--equiv", "semi")[0] == 2


def assert_input_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.out)
    assert captured.err == ""


def test_list_valued_valuation_is_an_input_error(capsys, tmp_path):
    m = model_file(tmp_path, "m.json", ["w"], [["w", ["w"]]], [["w", ["w"]]], ["p"])
    assert_input_error(capsys, "frame", m, "--kind", "instantial")
    assert_input_error(capsys, "mc", m, "p")
    assert_input_error(capsys, "bisim", m, "w", m, "w", "--kind", "power")


@pytest.mark.parametrize(
    "worlds, ra",
    [
        (["w"], [[["w"], ["w"]]]),
        ([["w"]], []),
        (["w"], [[{"w": 1}, ["w"]]]),
        ([{"w": 1}], []),
        (["w"], [["w", [["w"]]]]),
    ],
)
def test_unhashable_world_labels_are_input_errors(capsys, tmp_path, worlds, ra):
    m = model_file(tmp_path, "m.json", worlds, ra, [], {})
    assert_input_error(capsys, "frame", m, "--kind", "game")


def test_deeply_nested_game_is_an_input_error(capsys, tmp_path):
    depth = 3000
    p = tmp_path / "deep.json"
    p.write_text(
        '{"outcomes": ["x"], "tree": '
        + '{"player": "A", "children": [' * depth
        + '{"outcome": "x"}'
        + "]}" * depth
        + "}"
    )
    assert_input_error(capsys, "powers", str(p), "--player", "A", "--kind", "basic")


def test_deeply_nested_model_and_family_files_are_input_errors(capsys, tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    m = tmp_path / "m.json"
    m.write_text('{"worlds": ["w"], "RA": [], "RB": [], "val": {"p": ' + deep + "}}")
    assert_input_error(capsys, "frame", str(m), "--kind", "game")
    f = tmp_path / "fam.json"
    f.write_text('{"outcomes": ["x"], "FA": ' + deep + ', "FB": [["x"]]}')
    assert_input_error(capsys, "represent", str(f))


POWERS = ("powers", "--player", "A", "--kind", "basic")
REPRESENT = ("represent",)
FRAME = ("frame", "--kind", "instantial")


@pytest.mark.parametrize(
    "command, data",
    [
        # labels that are lists
        (POWERS, {"outcomes": [["x"]],
                  "tree": {"player": "A", "children": [{"outcome": "x"}]}}),
        (POWERS, {"outcomes": ["x"],
                  "tree": {"player": "A", "info": ["c"],
                           "children": [{"outcome": "x"}]}}),
        (POWERS, {"outcomes": ["x"], "rows": [["r"]], "cols": ["c"],
                  "matrix": [["x"]]}),
        (REPRESENT, {"outcomes": ["x"], "FA": [[["x"]]], "FB": [["x"]]}),
        # family files whose contents are not lists of outcome lists
        (REPRESENT, {"outcomes": "xy", "FA": [["x"]], "FB": [["x", "y"]]}),
        (REPRESENT, {"outcomes": ["x", "y"], "FA": ["xy"], "FB": [["x", "y"]]}),
        (REPRESENT, {"outcomes": ["x", "y"], "FA": [["z"]], "FB": [["x", "y"]]}),
        # labels of mixed types, which canonical orders cannot sort
        (REPRESENT, {"outcomes": [1, "x"], "FA": [[1, "x"]], "FB": [[1, "x"]]}),
        (FRAME, {"worlds": [1, "a"], "RA": [[1, [1, "a"]]], "RB": [["a", ["a"]]]}),
        (FRAME, {"worlds": ["a"], "RA": [["a", ["a", 1]]], "RB": []}),
        (POWERS, {"outcomes": [1, "x"],
                  "tree": {"player": "A",
                           "children": [{"outcome": 1}, {"outcome": "x"}]}}),
        # strategic matrices whose rows are not lists
        (POWERS, {"outcomes": ["a", "b"], "rows": ["r0", "r1"], "cols": ["c"],
                  "matrix": "ab"}),
        (POWERS, {"outcomes": ["a", "b"], "rows": ["r0", "r1"], "cols": ["c"],
                  "matrix": ["a", "b"]}),
        # an outcome alphabet that repeats a label
        (REPRESENT, {"outcomes": ["0", "0"], "FA": [["0"]], "FB": [["0"]]}),
        # booleans, which sets and dicts would take for 0 and 1
        (POWERS, {"outcomes": [0, 1],
                  "tree": {"player": "A",
                           "children": [{"outcome": False}, {"outcome": True}]}}),
        (REPRESENT, {"outcomes": [0, 1], "FA": [[True], [False]], "FB": [[0, 1]]}),
    ],
    ids=["outcome-list", "info-list", "row-list", "member-label-list",
         "outcomes-string", "member-string", "unknown-outcome",
         "family-mixed-outcomes", "model-mixed-worlds", "neighborhood-mixed-world",
         "game-mixed-outcomes", "matrix-string", "matrix-row-strings",
         "family-duplicate-outcomes", "leaf-booleans", "member-booleans"],
)
def test_malformed_files_are_input_errors(capsys, tmp_path, command, data):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    assert_input_error(capsys, command[0], str(p), *command[1:])


def test_numeric_labels_are_accepted(capsys, tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"outcomes": [2, 1], "tree": {
        "player": "B", "children": [{"outcome": 2}, {"outcome": 1}]}}))
    code, out = run(capsys, "powers", str(g), "--player", "B", "--kind", "basic")
    assert code == 0 and json.loads(out)["members"] == [[1], [2]]
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"outcomes": [1, 2, 3], "FA": [[1, 2], [3]],
                             "FB": [[1, 3], [2, 3]]}))
    code, out = run(capsys, "represent", str(f), "--verify")
    assert code == 0 and json.loads(out)["roundtrip"]["ok"]
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"worlds": [1, 2], "RA": [[1, [1]], [2, [1, 2]]],
                             "RB": [[1, [1]], [2, [1, 2]]]}))
    code, out = run(capsys, "frame", str(m), "--kind", "instantial")
    assert code == 0 and json.loads(out)["valid"]


def test_bisim_points_at_numeric_world_labels(capsys, tmp_path):
    # pointed worlds arrive as strings and name the model's labels as printed
    m = model_file(tmp_path, "m.json", [1, 2], [[1, [1]], [2, [1, 2]]],
                   [[1, [1]], [2, [1, 2]]], {})
    code, out = run(capsys, "bisim", m, "1", m, "1", "--kind", "instantial")
    assert code == 0 and [1, 1] in json.loads(out)["witness"]["bisimulation"]
    code, out = run(capsys, "bisim", m, "3", m, "1", "--kind", "instantial")
    assert code == 2 and "error" in json.loads(out)


def test_deeply_nested_formula_is_an_input_error(capsys):
    # 500 levels parse, but would overflow the printer and the evaluator
    for depth in (500, 5000):
        assert_input_error(capsys, "refute", "!" * depth + "p", "--seed", "1")


def test_formula_at_the_nesting_bound_is_refuted(capsys):
    code, out = run(capsys, "refute", "!" * 200 + "p", "--seed", "1")
    assert code == 1
    assert json.loads(out)["found"] is True


def test_deeply_nested_term_is_an_input_error(capsys):
    assert_input_error(
        capsys, "algebra", "-" * 5000 + "x = x", "--equiv", "strong", "--seed", "1"
    )


def test_usage_errors(capsys):
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_pretty_reindents_without_changing_content(capsys, game_files):
    _, plain = run(capsys, "equiv", *game_files, "--relation", "power")
    _, pretty = run(capsys, "equiv", *game_files, "--relation", "power", "--pretty")
    assert plain != pretty
    assert json.loads(plain) == json.loads(pretty)


# -- malformed input, fuzzed --------------------------------------------------

LABELS = st.sampled_from(["x", "y", "u", "v", "A", "", 0, 1, True, None, 1.5])
KEYS = ("outcomes", "tree", "player", "children", "outcome", "info", "rows",
        "cols", "matrix", "worlds", "RA", "RB", "val", "FA", "FB", "mode")
JSON = st.recursive(
    LABELS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=10,
)


def _spoiled(drawn):
    doc, key, junk, drop = drawn
    if key is not None:
        if drop:
            del doc[key]
        else:
            doc[key] = junk
    return doc


def near(valid):
    # a document of the right shape, often with one part dropped or spoiled
    parts = st.fixed_dictionaries(valid)
    keys = st.sampled_from([None, *sorted(valid)])
    return st.tuples(parts, keys, JSON, st.booleans()).map(_spoiled)


WORDS = st.lists(st.sampled_from(["x", "y", "u"]), min_size=1, max_size=3)
TREES = st.recursive(
    st.fixed_dictionaries({"outcome": st.sampled_from(["x", "y"])}),
    lambda kids: near({"player": st.sampled_from(["A", "B"]),
                       "children": st.lists(kids, min_size=1, max_size=3)})
    | near({"player": st.sampled_from(["A", "B"]),
            "children": st.lists(kids, min_size=1, max_size=3),
            "info": st.sampled_from(["c", "d"])}),
    max_leaves=6,
)
GAMES = near({"outcomes": st.just(["x", "y"]), "tree": TREES})
STRATEGIC = near({"outcomes": st.just(["x", "y"]), "rows": st.just(["r0", "r1"]),
                  "cols": st.just(["c"]),
                  "matrix": st.lists(st.lists(st.sampled_from(["x", "y"]),
                                              min_size=1, max_size=1),
                                     min_size=2, max_size=2)})
NEIGHBOURHOODS = st.lists(
    st.tuples(st.sampled_from(["u", "v"]),
              st.lists(st.sampled_from(["u", "v"]), min_size=1, max_size=2)).map(list),
    max_size=4)
MODELS = near({"worlds": st.just(["u", "v"]), "RA": NEIGHBOURHOODS,
               "RB": NEIGHBOURHOODS,
               "val": st.dictionaries(st.sampled_from(["p", "q"]),
                                      st.lists(st.sampled_from(["u", "v"])))})
FAMILIES = near({"outcomes": st.just(["x", "y", "u"]),
                 "FA": st.lists(WORDS, min_size=1, max_size=3),
                 "FB": st.lists(WORDS, min_size=1, max_size=3),
                 "mode": st.sampled_from(["basic", "relational", "plain"])})
FORMULAS = st.text("pq[]AB();,!&|-> true", max_size=16) | st.recursive(
    st.sampled_from(["p", "q", "true"]),
    lambda f: f.map("!{}".format)
    | st.tuples(f, st.sampled_from(["&", "|", "->"]), f).map("({0[0]} {0[1]} {0[2]})".format)
    | st.tuples(st.sampled_from("AB"), f).map("[{0[0]}]{0[1]}".format)
    | st.tuples(st.sampled_from("AB"), f, f).map("[{0[0]}]({0[1]}; {0[2]})".format),
    max_leaves=4,
)
TERMS = st.recursive(
    st.sampled_from(["x", "y", "z"]),
    lambda t: t.map("-{}".format)
    | st.tuples(t, st.sampled_from(["+", "*", "o"]), t).map("({0[0]} {0[1]} {0[2]})".format),
    max_leaves=3,
)
EQUATIONS = st.text("xyo+-*()= ", max_size=16) | st.tuples(TERMS, TERMS).map(" = ".join)


def _files(docs):
    # a file argument is drawn as a 1-tuple holding its document
    return (JSON | docs).map(lambda obj: (obj,))


GAME_FILES = _files(GAMES | STRATEGIC)
MODEL_FILES = _files(MODELS)
# every command that reads a file or a string; "--" ends the options, so a
# formula or an equation may start with "-"
ARGVS = st.one_of(
    st.tuples(GAME_FILES, st.sampled_from(["basic", "plain", "relational"])).map(
        lambda a: ["powers", a[0], "--player", "A", "--kind", a[1]]),
    st.tuples(GAME_FILES, GAME_FILES, st.sampled_from(["power", "strong", "strategic"])).map(
        lambda a: ["equiv", a[0], a[1], "--relation", a[2]]),
    st.tuples(MODEL_FILES, st.sampled_from(["game", "instantial"])).map(
        lambda a: ["frame", a[0], "--kind", a[1]]),
    st.tuples(MODEL_FILES, FORMULAS).map(lambda a: ["mc", a[0], "--", a[1]]),
    st.tuples(MODEL_FILES, st.sampled_from(["u", "v", "x"]),
              st.sampled_from(["power", "instantial"])).map(
        lambda a: ["bisim", a[0], "u", a[0], a[1], "--kind", a[2]]),
    _files(FAMILIES).map(lambda f: ["represent", f, "--verify"]),
    FORMULAS.map(lambda f: ["refute", "--seed", "1", "--max-worlds", "2",
                            "--budget", "2", "--", f]),
    st.tuples(EQUATIONS, st.sampled_from(["power", "semi", "strong"])).map(
        lambda a: ["algebra", "--equiv", a[1], "--seed", "1", "--samples", "1",
                   "--max-depth", "2", "--", a[0]]),
)


@settings(max_examples=200, deadline=None)
@given(drawn=ARGVS)
def test_fuzzed_input_ends_in_one_json_report(tmp_path_factory, drawn):
    folder = tmp_path_factory.getbasetemp() / "fuzz"
    folder.mkdir(exist_ok=True)
    argv = []
    for i, arg in enumerate(drawn):
        if isinstance(arg, tuple):
            path = folder / f"{i}.json"
            path.write_text(json.dumps(arg[0]))
            arg = str(path)
        argv.append(arg)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_model_without_worlds_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    assert_input_error(capsys, "frame", str(p), "--kind", "game")
    assert_input_error(capsys, "mc", str(p), "p")
    assert_input_error(capsys, "bisim", str(p), "w", str(p), "w", "--kind", "power")
