"""A bounded universe of conditions, listed exhaustively.

Every function of horizon H with values below V, every family of at most
k distinct such functions, every identity-width slalom of horizon at most
H with cell values below V, and the valid loc, hechler and e conditions
built from them (stems of horizon at most H, sides of horizon H).  Laws
that quantify over all conditions are checked here on all of them.
"""

from __future__ import annotations

from itertools import combinations, product

from cichon import ECond, Family, FinFunc, HechlerCond, LocCond, Slalom


def functions(horizon, values):
    return [FinFunc(v) for v in product(range(values), repeat=horizon)]


def stems(horizon, values):
    """The functions of every horizon up to the given one."""
    return [f for h in range(horizon + 1) for f in functions(h, values)]


def families(horizon, values, members):
    """Families of at most `members` distinct functions; members that
    repeat add nothing to any order, so they are left out."""
    pool = functions(horizon, values)
    return [
        Family(chosen, horizon)
        for k in range(members + 1)
        for chosen in combinations(pool, k)
    ]


def identity_slaloms(horizon, values):
    """Identity-width slaloms of horizon at most the given one: cell n
    holds at most n values below `values`."""
    cells = [
        [frozenset(c) for k in range(n + 1) for c in combinations(range(values), k)]
        for n in range(horizon)
    ]
    return [
        Slalom.identity_width(prefix)
        for h in range(horizon + 1)
        for prefix in product(*cells[:h])
    ]


def loc_conditions(horizon, values, members):
    """The valid loc conditions: |F| <= |s|."""
    return [
        LocCond(s, fam)
        for s in identity_slaloms(horizon, values)
        for fam in families(horizon, values, members)
        if len(fam) <= s.horizon
    ]


def hechler_conditions(horizon, values):
    return [
        HechlerCond(stem, side)
        for stem in stems(horizon, values)
        for side in functions(horizon, values)
    ]


def e_conditions(horizon, values, members):
    return [
        ECond(stem, fam)
        for stem in stems(horizon, values)
        for fam in families(horizon, values, members)
    ]
