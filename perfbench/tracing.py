"""Spans around gamepowers' public functions, recorded from outside the package.

`Tracer.install` wraps each traced function once and rebinds the wrapper
everywhere the program can reach the original: the defining module, every
``gamepowers.*`` namespace that did ``from .x import f``, and the values of
module-level registries such as ``cli._POWER_FNS``.  Modules are resolved
through ``sys.modules`` because the package-level function ``powers``
shadows the ``gamepowers.powers`` submodule.  `uninstall` puts every
original back.

A span is (function, parent span, start, end), kept in flat arrays in
memory and summarised when a traced round ends.  A function that is already
on the span stack (recursion, direct or through other traced calls) records
no inner span, so its span covers the outermost call only.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer, name) of every function whose spans the trace reports.  A layer is
# a module of gamepowers; a dotted name is a method, "init" meaning __init__.
REPORTED = (
    ("games", "ExtensiveGame.init"),
    ("games", "enumerate_strategies"),
    ("games", "outcome_set"),
    ("games", "to_strategic_form"),
    ("games", "StrategicGame.col_set"),
    ("games", "load_game"),
    ("powers", "basic_powers"),
    ("powers", "relational_basic_powers"),
    ("powers", "powers"),
    ("powers", "upward_closure"),
    ("powers", "union_closure"),
    ("powers", "check_conditions"),
    ("powers", "random_family_pair"),
    ("models", "NeighborhoodModel.init"),
    ("models", "random_model"),
    ("models", "model_check"),
    ("models", "validate_frame"),
    ("models", "load_model"),
    ("formulas", "parse_formula"),
    ("formulas", "random_formula"),
    ("equivalence", "power_equivalent"),
    ("equivalence", "strongly_equivalent"),
    ("equivalence", "semi_strongly_equivalent"),
    ("equivalence", "strategic_form_equivalent"),
    ("equivalence", "power_bisimilar"),
    ("equivalence", "instantial_bisimilar"),
    ("algebra", "evaluate"),
    ("algebra", "random_game"),
    ("algebra", "random_dynamic_game"),
    ("algebra", "seq_compose"),
    ("axioms", "countermodel_search"),
    ("axioms", "axiom_soundness_suite"),
    ("representation", "sample_legal_families"),
    ("representation", "construct_game"),
    ("representation", "verify_roundtrip"),
    ("cli", "main"),
)

# spanned only so that their reports can be counted
COUNTED_ONLY = (
    ("algebra", "check_equation"),
    ("algebra", "check_congruence"),
)

COUNTERS = (
    "games.strategies_enumerated",
    "powers.family_members",
    "axioms.evaluations",
    "algebra.bindings_checked",
    "representation.choice_maps",
    "representation.matrix_cells",
)


def span_name(layer: str, name: str) -> str:
    return f"{layer}.{name}"


def _module(layer: str):
    return sys.modules[f"gamepowers.{layer}"]


def _program_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "gamepowers" or n.startswith("gamepowers."))
    ]


class Tracer:
    def __init__(self):
        self.names = [span_name(*e) for e in REPORTED + COUNTED_ONLY]
        self._restore: list = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay valid."""
        for arr in (self.fid, self.parent, self.start, self.end):
            del arr[:]
        self._stack.clear()
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- rebinding --------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        cost = _module("representation").construction_cost
        # counter increments from a recorded call's result and arguments
        posts = {
            "games.enumerate_strategies": lambda r, a: {
                "games.strategies_enumerated": len(r)},
            "powers.basic_powers": lambda r, a: {"powers.family_members": len(r)},
            "powers.relational_basic_powers": lambda r, a: {
                "powers.family_members": len(r)},
            "powers.powers": lambda r, a: {"powers.family_members": len(r)},
            "axioms.countermodel_search": lambda r, a: {
                "axioms.evaluations": r.evaluations},
            "algebra.check_equation": lambda r, a: {
                "algebra.bindings_checked": r.samples},
            "algebra.check_congruence": lambda r, a: {
                "algebra.bindings_checked": r.samples},
            "representation.construct_game": lambda r, a: {
                "representation.matrix_cells": len(r.rows) * len(r.cols),
                "representation.choice_maps": cost(a[0])},
        }
        modules = _program_modules()
        for fid, (layer, name) in enumerate(REPORTED + COUNTED_ONLY):
            if f"gamepowers.{layer}" not in sys.modules:
                continue  # never imported, so never called
            post = posts.get(span_name(layer, name))
            if "." in name:
                cls_name, meth = name.split(".")
                owner = getattr(_module(layer), cls_name)
                attr = "__init__" if meth == "init" else meth
                orig = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(fid, orig, post))
                continue
            orig = getattr(_module(layer), name)
            wrapper = self._wrap(fid, orig, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._restore.append((value, k, orig, True))
                                value[k] = wrapper

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr], False))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, is_item in reversed(self._restore):
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore = []

    def _wrap(self, fid: int, orig, post):
        active = [False]
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[0]:
                return orig(*args, **kwargs)
            active[0] = True
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[0] = False
                starts[idx] = t0
                ends[idx] = t1
            if post is not None:
                for name, amount in post(result, args).items():
                    self.counters[name] += amount
            return result

        traced.__wrapped__ = orig
        return traced

    # -- summaries --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self seconds, counters, and nested shares."""
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        total = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.fid[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            total[name] += dur[i]
        fid_of = {name: k for k, name in enumerate(self.names)}
        checks, rfp = fid_of["powers.check_conditions"], fid_of["powers.random_family_pair"]
        tries = sum(
            1 for i in range(n)
            if self.fid[i] == checks and self.parent[i] >= 0
            and self.fid[self.parent[i]] == rfp
        )
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total,
            "counters": dict(self.counters),
            "tries_in_draws": tries,
            "nested_s": {
                "powers.check_conditions<models.random_model": self._under(
                    dur, "powers.check_conditions", "models.random_model"),
                "games.outcome_set<powers.relational_basic_powers": self._under(
                    dur, "games.outcome_set", "powers.relational_basic_powers"),
            },
        }

    def _under(self, dur, name: str, ancestor: str) -> float:
        """Seconds spent in spans of name that have a span of ancestor above."""
        want = self.names.index(name)
        anc = self.names.index(ancestor)
        total = 0.0
        for i in range(len(self.fid)):
            if self.fid[i] != want:
                continue
            p = self.parent[i]
            while p >= 0 and self.fid[p] != anc:
                p = self.parent[p]
            if p >= 0:
                total += dur[i]
        return total

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def merge(summaries: list[dict]) -> dict:
    """Add up summaries of several traced processes."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "counters": {},
           "tries_in_draws": 0, "nested_s": {}}
    for s in summaries:
        for key in ("calls", "self_s", "total_s", "counters", "nested_s"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["tries_in_draws"] += s["tries_in_draws"]
    return out
