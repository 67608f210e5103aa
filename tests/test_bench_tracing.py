"""The benchmark's tracer finds every function it reports, and puts it back.

``perfbench/tracing.py`` wraps the library's functions by name, so a rename
or a deletion in the library would only surface in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import gamepowers
import gamepowers.cli  # noqa: F401  (imports every module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reachable_wrappers():
    # every tracer wrapper bound where the program can reach it
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("gamepowers"):
            continue
        for value in vars(module).values():
            values = [value]
            if isinstance(value, dict):
                values += value.values()
            elif isinstance(value, type):
                values += vars(value).values()
            found += [
                v for v in values
                if getattr(v, "__qualname__", "").startswith("Tracer._wrap.")
            ]
    return found


def test_tracer_wraps_every_reported_name_and_uninstalls():
    tracing = _load_tracing()
    traced = tracing.REPORTED + tracing.COUNTED_ONLY
    assert all(f"gamepowers.{layer}" in sys.modules for layer, _ in traced)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {w.__wrapped__ for w in _reachable_wrappers()}
    finally:
        tracer.uninstall()
    assert len(wrapped) == len(traced)
    assert _reachable_wrappers() == []


def test_every_model_draw_is_a_traced_span():
    # the sampler decides its tries without the condition checker, so the
    # bench's tries_per_draw, which counts check_conditions spans directly
    # under random_family_pair, reads 0; test_powers pins the try count
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        for seed in range(40):
            for kind in (gamepowers.GAME_FRAME, gamepowers.INSTANTIAL_FRAME):
                gamepowers.random_model(seed, kind)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["calls"]["models.random_model"] == 80
    assert summary["calls"]["powers.random_family_pair"] == 250
    assert summary["calls"]["powers.check_conditions"] == summary["tries_in_draws"] == 0


def test_sequential_law_check_builds_each_game_once():
    # the law is decided on the bound games' power families, so no composed
    # tree is built and each pool game and random draw is built once, a draw
    # with shared cells too; when each such draw was built again after its
    # cells merged, this check made 48 constructions, and when every binding
    # was evaluated as trees, 198 seq_compose calls and 1,038 constructions
    # (2,058 before games were built once).  The pool is built once per
    # process: the first check builds its 12 games and the 18 of its draws,
    # a second identical check only the draws.
    gamepowers.algebra._pool_pairs.cache_clear()
    tracer = _load_tracing().Tracer()
    built = []
    try:
        tracer.install()
        for _ in range(2):
            report = gamepowers.check_equation(
                "(x + y) o z", "(x o z) + (y o z)", "semi", seed=3, samples=2)
            calls = tracer.summary()["calls"]
            assert report.samples == 66
            assert calls["algebra.seq_compose"] == 0
            built.append(calls["games.ExtensiveGame.init"])
    finally:
        tracer.uninstall()
    assert built == [30, 30 + 18]
