"""Batch command line: one analysis per invocation, one JSON report on stdout.

Exit codes: 0 when the checked property holds (equivalent, valid frame,
holds everywhere, no counterexample), 1 when the analysis produced a
distinguishing witness or refutation, 2 on bad usage or on an InputError,
which every unusable input raises.  Any other exception is a fault of the
program: a traceback on stderr, nothing on stdout.
Identical arguments, files, and seeds produce byte-identical output;
``--pretty`` re-indents without changing content.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import OPERATIONS, check_congruence, check_equation
from .axioms import axiom_soundness_suite, countermodel_search
from .equivalence import BISIMULATIONS, EQUIVALENCES, POWER_EQUIVALENCES
from .formulas import format_formula, parse_formula
from .games import InputError, Player, load_game, strategic_to_json
from .models import (
    FRAME_KINDS,
    GAME_FRAME,
    INSTANTIAL_FRAME,
    load_model,
    model_check,
    validate_frame,
)
from .powers import POWER_KINDS
from .representation import (
    IllegalFamilies,
    construct_game,
    load_representation_input,
    verify_roundtrip,
)

def _cmd_powers(args) -> tuple[int, dict]:
    fam = POWER_KINDS[args.kind](load_game(args.game), Player(args.player))
    report = {"player": args.player, "kind": args.kind}
    report.update(fam.to_json())
    return 0, report


def _cmd_equiv(args) -> tuple[int, dict]:
    verdict = EQUIVALENCES[args.relation](load_game(args.game1), load_game(args.game2))
    return (0 if verdict else 1), verdict.to_json()


def _world(m, arg: str):
    # a world is named by its label as printed, so a numeric label matches too
    return next((u for u in m.worlds if str(u) == arg), arg)


def _cmd_bisim(args) -> tuple[int, dict]:
    m1, m2 = load_model(args.model1), load_model(args.model2)
    w1, w2 = _world(m1, args.world1), _world(m2, args.world2)
    verdict = BISIMULATIONS[args.kind](m1, w1, m2, w2)
    return (0 if verdict else 1), verdict.to_json()


def _cmd_frame(args) -> tuple[int, dict]:
    profile = validate_frame(load_model(args.model), args.kind)
    report = {
        "kind": args.kind,
        "valid": profile.all_hold,
        "conditions": profile.to_json(),
    }
    return (0 if profile.all_hold else 1), report


def _cmd_mc(args) -> tuple[int, dict]:
    m = load_model(args.model)
    f = parse_formula(args.formula)
    warnings = []
    if not (
        validate_frame(m, INSTANTIAL_FRAME).all_hold
        or validate_frame(m, GAME_FRAME).all_hold
    ):
        warnings.append("model is not a valid game or instantial frame")
    extension = model_check(m, f)
    report = {
        "formula": format_formula(f),
        "extension": sorted(extension),
        "worlds": len(m.worlds),
        "warnings": warnings,
    }
    return (0 if extension == frozenset(m.worlds) else 1), report


def _cmd_represent(args) -> tuple[int, dict]:
    inp = load_representation_input(args.families)
    try:
        built = construct_game(inp)
    except IllegalFamilies as exc:
        report = {
            "legal": False,
            "mode": exc.mode,
            "conditions": {
                "A": exc.profile_a.to_json(),
                "B": exc.profile_b.to_json(),
            },
        }
        return 1, report
    report = {
        "legal": True,
        "mode": inp.mode,
        "game": strategic_to_json(built),
    }
    code = 0
    if args.verify:
        roundtrip = verify_roundtrip(inp, built)
        report["roundtrip"] = roundtrip.to_json()
        code = 0 if roundtrip.ok else 1
    return code, report


def _cmd_algebra(args) -> tuple[int, dict]:
    sides = args.equation.split("=")
    if len(sides) != 2:
        raise InputError(f"equation must contain exactly one '=': {args.equation!r}")
    report = check_equation(
        sides[0],
        sides[1],
        args.equiv,
        seed=args.seed,
        samples=args.samples,
        max_depth=args.max_depth,
    )
    return (0 if report else 1), report.to_json()


def _cmd_congruence(args) -> tuple[int, dict]:
    report = check_congruence(args.op, args.equiv, seed=args.seed, samples=args.samples)
    return (0 if report else 1), report.to_json()


def _cmd_axioms(args) -> tuple[int, dict]:
    report = axiom_soundness_suite(args.seed, args.samples)
    return (0 if report else 1), report.to_json()


def _cmd_refute(args) -> tuple[int, dict]:
    result = countermodel_search(
        args.formula, max_worlds=args.max_worlds, seed=args.seed, budget_ms=args.budget
    )
    return (1 if result.found else 0), result.to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamepowers",
        description="Finite-game power analysis with JSON reports.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("powers", parents=[common], help="power family of one player")
    p.add_argument("game")
    p.add_argument("--player", required=True, choices=["A", "B"])
    p.add_argument("--kind", required=True, choices=sorted(POWER_KINDS))
    p.set_defaults(handler=_cmd_powers)

    p = sub.add_parser("equiv", parents=[common], help="compare two games")
    p.add_argument("game1")
    p.add_argument("game2")
    p.add_argument("--relation", required=True, choices=sorted(EQUIVALENCES))
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("bisim", parents=[common], help="compare two pointed models")
    p.add_argument("model1")
    p.add_argument("world1")
    p.add_argument("model2")
    p.add_argument("world2")
    p.add_argument("--kind", required=True, choices=sorted(BISIMULATIONS))
    p.set_defaults(handler=_cmd_bisim)

    p = sub.add_parser("frame", parents=[common], help="validate model conditions")
    p.add_argument("model")
    p.add_argument("--kind", required=True, choices=sorted(FRAME_KINDS))
    p.set_defaults(handler=_cmd_frame)

    p = sub.add_parser("mc", parents=[common], help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("represent", parents=[common], help="build a game from families")
    p.add_argument("families")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_represent)

    p = sub.add_parser("algebra", parents=[common], help="check an equation on samples")
    p.add_argument("equation", help='e.g. "x + y = y + x"')
    p.add_argument("--equiv", required=True, choices=sorted(POWER_EQUIVALENCES))
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-depth", type=int, default=3, dest="max_depth")
    p.set_defaults(handler=_cmd_algebra)

    p = sub.add_parser("congruence", parents=[common], help="probe operation contexts")
    p.add_argument("op", choices=list(OPERATIONS))
    p.add_argument("--equiv", required=True, choices=sorted(POWER_EQUIVALENCES))
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_congruence)

    p = sub.add_parser("axioms", parents=[common], help="seeded soundness sweep")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_axioms)

    p = sub.add_parser("refute", parents=[common], help="search for a countermodel")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=5, dest="max_worlds",
                   help="largest random model, 1 to 8 worlds")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=int, default=1000, help="evaluation budget, ms scale")
    p.set_defaults(handler=_cmd_refute)

    return parser


def _emit(obj: dict, pretty: bool) -> None:
    indent = 2 if pretty else None
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=indent) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code, report = args.handler(args)
    except (OSError, InputError) as exc:
        _emit({"error": str(exc)}, getattr(args, "pretty", False))
        return 2
    _emit(report, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
