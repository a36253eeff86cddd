"""A bounded universe of conditions, listed exhaustively.

Every function of horizon H with values below V, every family of at most
k distinct such functions, every identity-width slalom of horizon at most
H with cell values below V, the width profiles of positive widths whose
consecutive blocks cover 1 to H positions with every block slalom over
them, and the valid loc, hechler and e conditions built from them (stems
of horizon at most H, sides of horizon H).  Laws that quantify over all
conditions are checked here on all of them.
"""

from __future__ import annotations

from itertools import combinations, product

from cichon import (
    BlockSlalom,
    ECond,
    Family,
    FinFunc,
    HechlerCond,
    LocCond,
    Slalom,
    WidthProfile,
)


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


def compositions(total):
    """The tuples of positive widths that sum to `total`."""
    if total == 0:
        return [()]
    return [(first, *rest) for first in range(1, total + 1) for rest in compositions(total - first)]


def partitions(horizon):
    """The width profiles of positive widths that cover 1 to `horizon`
    positions: each is a partition into consecutive blocks."""
    return [WidthProfile(widths) for total in range(1, horizon + 1) for widths in compositions(total)]


def block_slaloms(width, values):
    """Every block slalom over the width: block n holds at most h(n) codes,
    each h(n) values below `values`, in order."""
    entries = []
    for h in width.widths:
        codes = list(product(range(values), repeat=h))
        entries.append([e for k in range(h + 1) for e in product(codes, repeat=k)])
    return [BlockSlalom(chosen, width) for chosen in product(*entries)]


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
