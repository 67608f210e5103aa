"""Exit codes and JSON reports for every subcommand."""

import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamepowers
from gamepowers.algebra import OPERATIONS
from gamepowers.cli import build_parser, main
from gamepowers.equivalence import (
    BISIMULATIONS,
    EQUIVALENCES,
    POWER_EQUIVALENCES,
    strongly_equivalent,
)
from gamepowers.games import game_to_json
from gamepowers.models import FRAME_KINDS, ModelFormatError
from gamepowers.powers import POWER_KINDS
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


def test_an_equation_starting_with_a_dash_goes_after_double_dash(capsys):
    # without "--" argparse reads "-x=x" as an option
    code, out = run(capsys, "algebra", "--equiv", "semi", "--seed", "1", "--", "-x=x")
    assert code == 1
    report = json.loads(out)
    assert report["lhs"] == "-x" and report["verdict"] == "counterexample"
    assert report["counterexample"]["binding"]["x"]


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
    three_disjoint = "!([A](p; p) & [A](q; q) & ![A](p, q; true) & [A](!p & !q; true))"
    code, out = run(capsys, "refute", three_disjoint, "--seed", "1", "--budget", "4000")
    assert code == 1
    assert json.loads(out)["phase"] == "random"


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


def _choices(command: str, dest: str) -> list:
    sub = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices[command]
    return next(a.choices for a in sub._actions if a.dest == dest)


def test_choices_are_the_keys_of_the_library_tables():
    # the usage text lists each table's keys in the same order as before
    for command, dest, table, listed in [
        ("powers", "kind", POWER_KINDS, ["basic", "plain", "relational"]),
        ("equiv", "relation", EQUIVALENCES, ["power", "semi", "strategic", "strong"]),
        ("bisim", "kind", BISIMULATIONS, ["instantial", "power"]),
        ("frame", "kind", FRAME_KINDS, ["game", "instantial"]),
        ("algebra", "equiv", POWER_EQUIVALENCES, ["power", "semi", "strong"]),
        ("congruence", "equiv", POWER_EQUIVALENCES, ["power", "semi", "strong"]),
        ("congruence", "op", OPERATIONS, ["+", "*", "-", "o"]),
    ]:
        choices = _choices(command, dest)
        assert choices == listed, (command, dest)
        assert sorted(choices) == sorted(table), (command, dest)


def _not_json(literal):
    raise ValueError(f"{literal} is not JSON")


def strict_json(text):
    """The value of a JSON text, refusing the NaN and Infinity that
    json.loads accepts by default."""
    return json.loads(text, parse_constant=_not_json)


def assert_input_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    return json.loads(captured.out)["error"]


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


def _chain_game(path, depth):
    path.write_text(
        '{"outcomes": ["x"], "tree": '
        + '{"player": "A", "children": [' * depth
        + '{"outcome": "x"}'
        + "]}" * depth
        + "}"
    )
    return str(path)


def test_deeply_nested_game_is_an_input_error(capsys, tmp_path):
    # up to Python 3.12 the decoder gives out first, since each game level
    # nests JSON twice; on 3.13 the tree walk may, with the same report
    p = _chain_game(tmp_path / "deep.json", 3000)
    error = assert_input_error(capsys, "powers", p, "--player", "A", "--kind", "basic")
    assert error.endswith("JSON nested too deeply")


@pytest.mark.parametrize("module, decoder, argv", [
    (gamepowers.games, "game_from_json", ("powers", "--player", "A", "--kind", "basic")),
    (gamepowers.models.NeighborhoodModel, "from_json", ("frame", "--kind", "game")),
    (gamepowers.representation.RepresentationInput, "from_json", ("represent",)),
])
def test_decoder_out_of_stack_is_an_input_error(capsys, tmp_path, monkeypatch,
                                               module, decoder, argv):
    # a file the JSON decoder accepts may still nest deeper than a
    # recursive decoder can follow
    def recurse(obj):
        return recurse(obj)

    monkeypatch.setattr(module, decoder, recurse)
    p = _chain_game(tmp_path / "g.json", 2)
    error = assert_input_error(capsys, argv[0], p, *argv[1:])
    assert error == f"{p}: JSON nested too deeply"


def test_game_nested_400_levels_is_answered(capsys, tmp_path):
    p = _chain_game(tmp_path / "deep.json", 400)
    code, out = run(capsys, "powers", p, "--player", "A", "--kind", "basic")
    assert code == 0 and json.loads(out)["members"] == [["x"]]


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


@pytest.mark.parametrize("argv", [POWERS, FRAME, REPRESENT])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_its_path(capsys, tmp_path, argv):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{}")
    error = assert_input_error(capsys, argv[0], str(p), *argv[1:])
    assert error.startswith(f"{p}: ")


OUTCOME_LABELS = "'outcomes' must be a list of labels, all strings or all numbers"
FAMILY_LISTS = "'FA' must be a list of lists of outcomes"
MATRIX_LISTS = "'matrix' must be a list of lists of outcome labels"


@pytest.mark.parametrize(
    "command, data, message",
    [
        # labels that are lists
        (POWERS, {"outcomes": [["x"]],
                  "tree": {"player": "A", "children": [{"outcome": "x"}]}},
         OUTCOME_LABELS),
        (POWERS, {"outcomes": ["x"],
                  "tree": {"player": "A", "info": ["c"],
                           "children": [{"outcome": "x"}]}},
         "node at (): 'info' must be a label"),
        (POWERS, {"outcomes": ["x"], "rows": [["r"]], "cols": ["c"],
                  "matrix": [["x"]]},
         "'rows' must be a list of labels"),
        (REPRESENT, {"outcomes": ["x"], "FA": [[["x"]]], "FB": [["x"]]}, FAMILY_LISTS),
        # family files whose contents are not lists of outcome lists
        (REPRESENT, {"outcomes": "xy", "FA": [["x"]], "FB": [["x", "y"]]},
         OUTCOME_LABELS),
        (REPRESENT, {"outcomes": ["x", "y"], "FA": ["xy"], "FB": [["x", "y"]]},
         FAMILY_LISTS),
        (REPRESENT, {"outcomes": ["x", "y"], "FA": [["z"]], "FB": [["x", "y"]]},
         "'FA' names 'z', not an outcome"),
        # labels of mixed types, which canonical orders cannot sort
        (REPRESENT, {"outcomes": [1, "x"], "FA": [[1, "x"]], "FB": [[1, "x"]]},
         OUTCOME_LABELS),
        (FRAME, {"worlds": [1, "a"], "RA": [[1, [1, "a"]]], "RB": [["a", ["a"]]]},
         "'worlds' must be a nonempty list of labels, all strings or all numbers"),
        (FRAME, {"worlds": ["a"], "RA": [["a", ["a", 1]]], "RB": []},
         "neighborhood of 'a' names 1, not a world"),
        (POWERS, {"outcomes": [1, "x"],
                  "tree": {"player": "A",
                           "children": [{"outcome": 1}, {"outcome": "x"}]}},
         OUTCOME_LABELS),
        # strategic matrices whose rows are not lists
        (POWERS, {"outcomes": ["a", "b"], "rows": ["r0", "r1"], "cols": ["c"],
                  "matrix": "ab"}, MATRIX_LISTS),
        (POWERS, {"outcomes": ["a", "b"], "rows": ["r0", "r1"], "cols": ["c"],
                  "matrix": ["a", "b"]}, MATRIX_LISTS),
        # an outcome alphabet that repeats a label
        (REPRESENT, {"outcomes": ["0", "0"], "FA": [["0"]], "FB": [["0"]]},
         "duplicate outcome labels"),
        # booleans, which sets and dicts would take for 0 and 1
        (POWERS, {"outcomes": [0, 1],
                  "tree": {"player": "A",
                           "children": [{"outcome": False}, {"outcome": True}]}},
         "node at (0,): 'outcome' must be a label"),
        (REPRESENT, {"outcomes": [0, 1], "FA": [[True], [False]], "FB": [[0, 1]]},
         FAMILY_LISTS),
        # a mode that is a list, which no table of modes can hold
        (REPRESENT, {"outcomes": ["x"], "FA": [["x"]], "FB": [["x"]], "mode": ["basic"]},
         "unknown mode ['basic']"),
        # strategic games that break validate_strategic, or lack a part
        (POWERS, {"outcomes": ["x"], "rows": ["r", "r"], "cols": ["c"],
                  "matrix": [["x"], ["x"]]}, "duplicate-strategy-labels"),
        (POWERS, {"outcomes": ["x", "x"], "rows": ["r"], "cols": ["c"],
                  "matrix": [["x"]]}, "duplicate-outcome-labels"),
        (POWERS, {"outcomes": ["x"], "rows": ["r0", "r1"], "cols": ["c"],
                  "matrix": [["x"], ["x", "x"]]}, "matrix-shape"),
        (POWERS, {"outcomes": ["x"], "matrix": [["x"]]},
         "strategic game needs 'outcomes', 'rows', 'cols', 'matrix'"),
        # game trees whose file or nodes have the wrong shape
        (POWERS, [{"outcomes": ["x"]}], "top-level JSON object expected"),
        (POWERS, {"outcomes": ["x"], "tree": {"player": "A", "children": [1]}},
         "node at (0,): expected object, got 1"),
        (POWERS, {"outcomes": ["x"], "tree": {"outcome": "x", "player": "A"}},
         "node at (): leaf cannot carry player or children"),
        # models whose relation or valuation names a world outside them
        (FRAME, {"worlds": ["w"], "RA": [["zz", ["w"]]], "RB": []},
         "unknown world 'zz' in relation"),
        (FRAME, {"worlds": ["w"], "RA": [], "RB": [], "val": {"p": ["v"]}},
         "valuation of 'p' leaves the world set"),
        (FRAME, [{"worlds": ["w"]}], "model object with 'worlds' expected"),
        (REPRESENT, [{"outcomes": ["x"]}], "representation input must be an object"),
    ],
    ids=["outcome-list", "info-list", "row-list", "member-label-list",
         "outcomes-string", "member-string", "unknown-outcome",
         "family-mixed-outcomes", "model-mixed-worlds", "neighborhood-mixed-world",
         "game-mixed-outcomes", "matrix-string", "matrix-row-strings",
         "family-duplicate-outcomes", "leaf-booleans", "member-booleans",
         "mode-list", "strategic-duplicate-rows", "strategic-duplicate-outcomes",
         "strategic-ragged-matrix", "strategic-without-rows", "game-top-level-list",
         "game-child-number", "game-leaf-with-player", "model-unknown-world",
         "model-valuation-outside", "model-top-level-list", "family-top-level-list"],
)
def test_malformed_files_are_input_errors(capsys, tmp_path, command, data, message):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(data))
    error = assert_input_error(capsys, command[0], str(p), *command[1:])
    assert error == f"{p}: {message}"


@pytest.mark.parametrize(
    "command, text, literal",
    [
        (POWERS, '{"outcomes": [NaN], "tree": {"outcome": NaN}}', "NaN"),
        (POWERS, '{"outcomes": [1e400], "rows": ["r"], "cols": ["c"], '
                 '"matrix": [[1e400]]}', "1e400"),
        (FRAME, '{"worlds": [Infinity], "RA": [[Infinity, [Infinity]]], '
                '"RB": [[Infinity, [Infinity]]]}', "Infinity"),
        (REPRESENT, '{"outcomes": [-Infinity], "FA": [[-Infinity]], '
                    '"FB": [[-Infinity]]}', "-Infinity"),
    ],
    ids=["game", "strategic-game", "model", "families"],
)
def test_non_finite_numbers_are_input_errors(capsys, tmp_path, command, text, literal):
    # printed back, such a label would make the report invalid JSON
    p = tmp_path / "input.json"
    p.write_text(text)
    error = assert_input_error(capsys, command[0], str(p), *command[1:])
    assert error == f"{p}: {literal} is not a finite number"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize(
    "command, text",
    [
        (POWERS, '{"outcomes": [N], "tree": {"outcome": N}}'),
        (FRAME, '{"worlds": [N], "RA": [[N, [N]]], "RB": [[N, [N]]]}'),
    ],
    ids=["game", "model"],
)
def test_oversized_integers_are_input_errors(capsys, tmp_path, command, text):
    # past the interpreter's digit limit json.load raises a plain ValueError
    p = tmp_path / "input.json"
    p.write_text(text.replace("N", "1" + "0" * 5000))
    error = assert_input_error(capsys, command[0], str(p), *command[1:])
    assert error.startswith(f"{p}: ")


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


def test_long_flat_term_is_an_input_error(capsys):
    # the parser loops over a flat chain, but folding and printing recurse per level
    for op in ("+", "o"):
        equation = f" {op} ".join(["x"] * 601) + " = x"
        assert_input_error(capsys, "algebra", equation, "--equiv", "power", "--seed", "1")


def test_term_at_the_nesting_bound_is_checked(capsys):
    equation = " + ".join(["x"] * 201) + " = x"
    code, out = run(capsys, "algebra", equation, "--equiv", "power", "--seed", "1",
                    "--samples", "5")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds-on-sample"


def test_long_strong_composition_chain_is_answered(capsys):
    # strong equivalence folds basic powers through the continuation, so the
    # chain builds no composed tree; evaluating it would double one per o
    # (about 0.01 and 0.1 s on a 2-core machine)
    for k in (17, 201):
        equation = " o ".join(["x"] * k) + " = x"
        start = time.perf_counter()
        code, out = run(capsys, "algebra", equation, "--equiv", "strong", "--seed", "1",
                        "--samples", "2")
        assert time.perf_counter() - start < 1
        assert code == 1
        report = json.loads(out)
        assert (report["verdict"], report["samples"]) == ("counterexample", 6)


def test_the_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(gamepowers.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "gamepowers.cli", "refute", "[A]p -> p", "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    assert strict_json(lines[0])["found"] is True


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

LABELS = st.sampled_from(["x", "y", "u", "v", "A", "", 0, 1, True, None, 1.5,
                          float("nan"), float("inf")])
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


# integer options on and around their bounds: samples from 0, budget from 1,
# max-depth 1 to 12 and max-worlds 1 to 8
BOUNDS = st.sampled_from(["-1", "0", "1", "2", "9", "13"])
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
    st.tuples(FORMULAS, BOUNDS, BOUNDS).map(
        lambda a: ["refute", "--seed", "1", "--max-worlds", a[1], "--budget", a[2],
                   "--", a[0]]),
    st.tuples(EQUATIONS, st.sampled_from(["power", "semi", "strong"]), BOUNDS,
              BOUNDS).map(
        lambda a: ["algebra", "--equiv", a[1], "--seed", "1", "--samples", a[2],
                   "--max-depth", a[3], "--", a[0]]),
    st.tuples(st.sampled_from(list(OPERATIONS)),
              st.sampled_from(["power", "semi", "strong"]), BOUNDS).map(
        lambda a: ["congruence", a[0], "--equiv", a[1], "--seed", "1",
                   "--samples", a[2]]),
    BOUNDS.map(lambda n: ["axioms", "--seed", "1", "--samples", n]),
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
    strict_json(lines[0])


def test_a_value_error_from_the_program_is_not_an_input_error(capsys, monkeypatch):
    # exit 2 means the input; a fault of the program ends in a traceback,
    # with nothing on stdout
    def broken(seed, samples):
        return max([])

    monkeypatch.setattr("gamepowers.cli.axiom_soundness_suite", broken)
    with pytest.raises(ValueError, match="empty sequence"):
        main(["axioms", "--seed", "1"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("error", [
    gamepowers.GameFormatError, ModelFormatError, gamepowers.ParseError,
    gamepowers.TermParseError, gamepowers.IllegalFamilies, gamepowers.InvalidModelError,
])
def test_every_input_error_class_is_an_input_error(error):
    assert issubclass(error, gamepowers.InputError)
    assert issubclass(gamepowers.InputError, ValueError)


def test_model_without_worlds_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    assert_input_error(capsys, "frame", str(p), "--kind", "game")
    assert_input_error(capsys, "mc", str(p), "p")
    assert_input_error(capsys, "bisim", str(p), "w", str(p), "w", "--kind", "power")


# seeded commands whose work iterates sets of outcome sets
HASH_ORDER_COMMANDS = [
    ["algebra", "(x + y) o z = (x o z) + (y o z)", "--equiv", "semi", "--seed", "3"],
    ["congruence", "o", "--equiv", "strong", "--seed", "0"],
    ["refute", "[A](p;p|q) -> [A](p;p)", "--seed", "1"],
    ["axioms", "--samples", "60", "--seed", "2"],
    ["algebra", "x o (y o z) = (x o y) o z", "--equiv", "strong", "--seed", "0"],
]


def test_seeded_reports_do_not_depend_on_hash_order():
    code = (
        "import json, sys\n"
        "from gamepowers.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(main(argv))\n"
    )
    src = os.path.dirname(os.path.dirname(gamepowers.__file__))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code, json.dumps(HASH_ORDER_COMMANDS)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1::2] == ["0", "1", "1", "0", "0"]
