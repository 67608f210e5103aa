"""Brute-force oracles that check gamepowers' outputs from the definitions.

Nothing here imports gamepowers.  Each oracle reads plain data (formula
text, model JSON, outcome matrices, families as collections of outcome
collections) and decides its question by direct enumeration, so a check
never leans on the code it is checking.
"""

from __future__ import annotations

import re
from itertools import combinations

# -- formulas -------------------------------------------------------------------
#
# Same concrete syntax as the program: atoms, true, false, !, &, |, ->
# (right associative), [A]phi and [A](psi, ... ; phi).  A parenthesised group
# after a box is instantial exactly when it holds ';' or ',' at its own depth.

_TOKEN = re.compile(r"\s*(->|[A-Za-z_][A-Za-z0-9_]*|[()\[\],;&|!])")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad formula text at {pos}: {text!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out + ["<end>"]


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str:
        return self.toks[self.i]

    def take(self, want: str | None = None) -> str:
        tok = self.toks[self.i]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.formula())
        return left

    def disjunction(self):
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = ("or", f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = ("and", f, self.unary())
        return f

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return ("not", self.unary())
        if tok == "[":
            self.take()
            player = self.take()
            if player not in ("A", "B"):
                raise ValueError(f"bad player {player!r}")
            self.take("]")
            if self.peek() == "(" and self._instantial_group():
                self.take("(")
                sides = []
                if self.peek() != ";":
                    sides.append(self.formula())
                    while self.peek() == ",":
                        self.take()
                        sides.append(self.formula())
                self.take(";")
                scope = self.formula()
                self.take(")")
                return ("box", player, tuple(sides), scope)
            return ("box", player, (), self.unary())
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        if tok == "<end>" or not (tok[0].isalpha() or tok[0] == "_"):
            raise ValueError(f"unexpected {tok!r}")
        self.take()
        if tok == "true":
            return ("top",)
        if tok == "false":
            return ("not", ("top",))
        return ("atom", tok)

    def _instantial_group(self) -> bool:
        depth = 0
        for tok in self.toks[self.i:]:
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif tok in (";", ",") and depth == 1:
                return True
        return False


def parse_formula(text: str):
    reader = _Reader(text)
    f = reader.formula()
    reader.take("<end>")
    return f


class Model:
    """A neighbourhood model read from the program's JSON layout."""

    def __init__(self, obj: dict):
        self.worlds = list(obj["worlds"])
        self.neigh = {
            p: {w: set() for w in self.worlds} for p in ("A", "B")
        }
        for p, key in (("A", "RA"), ("B", "RB")):
            for u, z in obj.get(key, []):
                self.neigh[p][u].add(frozenset(z))
        self.val = {a: set(ws) for a, ws in obj.get("val", {}).items()}


def holds(m: Model, f, w: str) -> bool:
    """Truth of parsed formula f at world w, straight from the semantics."""
    tag = f[0]
    if tag == "atom":
        return w in m.val.get(f[1], ())
    if tag == "top":
        return True
    if tag == "not":
        return not holds(m, f[1], w)
    if tag == "and":
        return holds(m, f[1], w) and holds(m, f[2], w)
    if tag == "or":
        return holds(m, f[1], w) or holds(m, f[2], w)
    if tag == "imp":
        return (not holds(m, f[1], w)) or holds(m, f[2], w)
    _, player, sides, scope = f
    return any(
        all(holds(m, scope, x) for x in z)
        and all(any(holds(m, s, x) for x in z) for s in sides)
        for z in m.neigh[player][w]
    )


def extension(model_json: dict, formula_text: str) -> list[str]:
    """Sorted worlds of the model where the formula holds."""
    m = Model(model_json)
    f = parse_formula(formula_text)
    return sorted(w for w in m.worlds if holds(m, f, w))


# -- sets and families -----------------------------------------------------------


def _subsets(universe) -> list[frozenset]:
    items = sorted(universe)
    return [
        frozenset(c) for k in range(len(items) + 1) for c in combinations(items, k)
    ]


def family(members) -> frozenset[frozenset]:
    return frozenset(frozenset(m) for m in members)


def union_closure(fam, universe) -> frozenset[frozenset]:
    """Every nonempty union of members, found by running over all subsets S:
    S is such a union exactly when the members inside S cover S."""
    fam = family(fam)
    out = {frozenset()} if frozenset() in fam else set()
    for s in _subsets(universe):
        inside = [x for x in fam if x <= s]
        if s and inside and frozenset().union(*inside) == s:
            out.add(s)
    return frozenset(out)


def row_sets(matrix) -> frozenset[frozenset]:
    return frozenset(frozenset(row) for row in matrix)


def col_sets(matrix) -> frozenset[frozenset]:
    if not matrix:
        return frozenset()
    return frozenset(
        frozenset(row[j] for row in matrix) for j in range(len(matrix[0]))
    )


# -- the six family conditions -----------------------------------------------------

MODE_CONDITIONS = {
    "plain": ("NonEmptiness", "Monotonicity", "Consistency"),
    "basic": ("NonEmptiness", "Instantiatedness", "Consistency"),
    "relational": ("NonEmptiness", "Instantiatedness", "Consistency", "UnionClosure"),
}


def family_conditions(outcomes, fa, fb) -> dict[str, dict[str, bool]]:
    """The six conditions read from each player's side, by enumeration."""
    universe = frozenset(outcomes)
    fa, fb = family(fa), family(fb)
    subsets = _subsets(universe)
    consistency = all(x & y for x in fa for y in fb)

    def side(mine, other):
        return {
            "NonEmptiness": bool(mine),
            "Monotonicity": all(s in mine for x in mine for s in subsets if x <= s),
            "Consistency": consistency,
            "Determinacy": all(s in mine or (universe - s) in other for s in subsets),
            "Instantiatedness": all(
                any(e in y for y in other) for x in mine for e in x
            ),
            "UnionClosure": union_closure(mine, universe) <= mine,
        }

    return {"A": side(fa, fb), "B": side(fb, fa)}


def legal_pair(outcomes, fa, fb, mode: str) -> bool:
    conds = family_conditions(outcomes, fa, fb)
    return all(conds[p][name] for p in "AB" for name in MODE_CONDITIONS[mode])


# -- the three frame conditions ------------------------------------------------------


def frame_conditions(model_json: dict, kind: str) -> dict[str, bool]:
    """Game frames: NonEmptiness, Monotonicity, Consistency at every world;
    instantial frames swap Monotonicity for Instantiatedness."""
    m = Model(model_json)
    subsets = _subsets(m.worlds)
    out = {"NonEmptiness": True, "Consistency": True}
    if kind == "game":
        out["Monotonicity"] = True
    else:
        out["Instantiatedness"] = True
    for u in m.worlds:
        for p, q in (("A", "B"), ("B", "A")):
            mine, other = m.neigh[p][u], m.neigh[q][u]
            if not mine:
                out["NonEmptiness"] = False
            if kind == "game":
                if any(s not in mine for z in mine for s in subsets if z <= s):
                    out["Monotonicity"] = False
            elif any(not any(x in y for y in other) for z in mine for x in z):
                out["Instantiatedness"] = False
        if any(not (za & zb) for za in m.neigh["A"][u] for zb in m.neigh["B"][u]):
            out["Consistency"] = False
    return out
