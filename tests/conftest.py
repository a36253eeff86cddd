"""Shared seeded generators for the randomized suites.

Everything draws from an explicit random.Random so runs are reproducible;
the acceptance suite fixes its seeds in one place.
"""

from __future__ import annotations

import random

import pytest

from cichon import (
    CohenCond,
    ECond,
    Family,
    FinFunc,
    FiniteTree,
    HechlerCond,
    LocCond,
    Slalom,
    WidthProfile,
    proj_loc_to_d,
    proj_loc_to_e,
    reduce_e,
)


@pytest.fixture
def rng():
    return random.Random(0xC1C)


# ---------------------------------------------------------------------------
# Core objects


def make_finfunc(rng, horizon, max_value=256):
    return FinFunc(tuple(rng.randrange(max_value) for _ in range(horizon)))


def make_width(rng, horizon, max_width=4):
    return WidthProfile(tuple(rng.randint(0, max_width) for _ in range(horizon)))


def make_slalom(rng, horizon, max_value=256, width=None):
    if width is None:
        width = make_width(rng, horizon)
    cells = []
    for n in range(horizon):
        size = rng.randint(0, min(width[n], max_value))
        cells.append(frozenset(rng.sample(range(max_value), size)))
    return Slalom(tuple(cells), width)


def make_identity_slalom(rng, horizon, max_value=256):
    return make_slalom(rng, horizon, max_value, WidthProfile.identity(horizon))


def make_family(rng, horizon, count, max_value=256):
    return Family(
        tuple(make_finfunc(rng, horizon, max_value) for _ in range(count)), horizon
    )


# ---------------------------------------------------------------------------
# Localization conditions and strengthenings


def make_loc(rng, max_prefix=5, max_value=16, slack=4, family_cap=None):
    plen = rng.randint(1, max_prefix)
    cells = [
        frozenset(rng.sample(range(max_value), rng.randint(0, min(n, max_value))))
        for n in range(plen)
    ]
    horizon = plen + rng.randint(1, slack)
    cap = plen if family_cap is None else min(plen, family_cap)
    fam = make_family(rng, horizon, rng.randint(0, cap), max_value)
    return LocCond(Slalom.identity_width(cells), fam)


def extend_loc(rng, cond, max_new=3, max_value=16):
    """A random strengthening: extend the prefix (capturing the side family
    at every new position) and possibly grow the family."""
    s, fam = cond.prefix, cond.side
    new_count = rng.randint(0, min(max_new, fam.horizon - s.horizon))
    cells = list(s.cells)
    for n in range(s.horizon, s.horizon + new_count):
        cell = {f[n] for f in fam}
        for _ in range(rng.randint(0, n - len(cell))):
            value = rng.randrange(max_value)
            if len(cell | {value}) <= n:
                cell.add(value)
        cells.append(frozenset(cell))
    room = len(cells) - len(fam)
    extra = rng.randint(0, max(room, 0))
    side = Family(
        fam.functions
        + tuple(make_finfunc(rng, fam.horizon, max_value) for _ in range(extra)),
        fam.horizon,
    )
    return LocCond(Slalom.identity_width(cells), side)


def make_liftable_d(rng, max_value=16):
    """A (c, q) pair meeting every precondition of the loc->hechler lift."""
    plen = rng.randint(1, 4)
    horizon = plen + rng.randint(1, 3)
    cells = [
        frozenset(rng.sample(range(max_value), rng.randint(0, n)))
        for n in range(plen)
    ]
    fam = make_family(rng, horizon, rng.randint(0, plen - 1), max_value)
    c = LocCond(Slalom.identity_width(cells), fam)
    # the family max at n: the least value q may take there, stem or side
    least = [max((f[n] for f in fam), default=0) for n in range(horizon)]
    stem = list(proj_loc_to_d(c).stem.values)
    for n in range(plen, plen + rng.randint(0, horizon - plen)):
        stem.append(least[n] + rng.randrange(max_value))
    side = tuple(least[n] + rng.randrange(max_value) for n in range(horizon))
    return c, HechlerCond(FinFunc(tuple(stem)), FinFunc(side))


def make_liftable_e(rng, max_value=16):
    """A (c, q) pair for the loc->e lift, repaired through reduce_e."""
    plen = rng.randint(1, 4)
    horizon = plen + rng.randint(1, 3)
    cells = [
        frozenset(rng.sample(range(max_value), rng.randint(0, n)))
        for n in range(plen)
    ]
    fam = make_family(rng, horizon, rng.randint(0, plen - 1), max_value)
    c = LocCond(Slalom.identity_width(cells), fam)
    projected = proj_loc_to_e(c)
    stem = list(projected.stem.values)
    for n in range(plen, plen + rng.randint(0, horizon - plen)):
        v = rng.randrange(max_value)
        while any(f[n] == v for f in fam):
            v += 1
        stem.append(v)
    extra = rng.randint(0, max(plen - 1 - len(fam), 0))
    side = Family(
        fam.functions
        + tuple(make_finfunc(rng, horizon, max_value) for _ in range(extra)),
        horizon,
    )
    q = ECond(FinFunc(tuple(stem)), side)
    return c, reduce_e(q, plen)


# ---------------------------------------------------------------------------
# Stem-type conditions and strengthenings


def make_hechler(rng, max_value=16):
    horizon = rng.randint(1, 8)
    stem_len = rng.randint(0, horizon)
    return HechlerCond(
        make_finfunc(rng, stem_len, max_value), make_finfunc(rng, horizon, max_value)
    )


def strengthen_hechler(rng, cond, max_value=16):
    new = rng.randint(0, cond.side.horizon - cond.stem.horizon)
    stem = cond.stem.values + tuple(
        cond.side[n] + rng.randrange(max_value)
        for n in range(cond.stem.horizon, cond.stem.horizon + new)
    )
    side = tuple(v + rng.randrange(max_value) for v in cond.side.values)
    return HechlerCond(FinFunc(stem), FinFunc(side))


def make_e(rng, max_value=16):
    horizon = rng.randint(1, 8)
    stem_len = rng.randint(0, horizon)
    return ECond(
        make_finfunc(rng, stem_len, max_value),
        make_family(rng, horizon, rng.randint(0, 3), max_value),
    )


def strengthen_e(rng, cond, max_value=16):
    new = rng.randint(0, cond.side.horizon - cond.stem.horizon)
    stem = list(cond.stem.values)
    for n in range(cond.stem.horizon, cond.stem.horizon + new):
        v = rng.randrange(max_value)
        while any(f[n] == v for f in cond.side):
            v += 1
        stem.append(v)
    extra = tuple(
        make_finfunc(rng, cond.side.horizon, max_value)
        for _ in range(rng.randint(0, 2))
    )
    return ECond(
        FinFunc(tuple(stem)), Family(cond.side.functions + extra, cond.side.horizon)
    )


def make_cohen(rng, max_value=16):
    return CohenCond(make_finfunc(rng, rng.randint(0, 6), max_value))


def strengthen_cohen(rng, cond, max_value=16):
    extra = tuple(rng.randrange(max_value) for _ in range(rng.randint(0, 3)))
    return CohenCond(FinFunc(cond.stem.values + extra))


# ---------------------------------------------------------------------------
# Trees


def make_sacks(rng, depth=4):
    nodes = {()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            kids = (0, 1) if rng.random() < 0.7 else (rng.choice((0, 1)),)
            for k in kids:
                child = node + (k,)
                nodes.add(child)
                nxt.append(child)
        frontier = nxt
    return FiniteTree("sacks", frozenset(nodes))


def make_laver(rng, stem_len=2, depth_above=3, budget=3, alphabet=5):
    stem = tuple(rng.randrange(alphabet) for _ in range(stem_len))
    nodes = {stem[:i] for i in range(stem_len + 1)}
    frontier = [stem]
    for _ in range(depth_above):
        nxt = []
        for node in frontier:
            for v in rng.sample(range(alphabet), rng.randint(1, budget)):
                child = node + (v,)
                nodes.add(child)
                nxt.append(child)
        frontier = nxt
    return FiniteTree("laver", frozenset(nodes))


def oracle_children(tree, node):
    """Brute-force children: a full scan of the node set, independent of
    the tree's own child index."""
    return sorted(
        m for m in tree.nodes if len(m) == len(node) + 1 and m[: len(node)] == node
    )


def prune_tree(rng, tree, keep_probability=0.75):
    """A random subtree: keep the root, and a nonempty child subset at
    every kept node, so leaf depth stays uniform."""
    keep = {()}
    frontier = [()]
    while frontier:
        node = frontier.pop()
        kids = oracle_children(tree, node)
        if not kids:
            continue
        chosen = [k for k in kids if rng.random() < keep_probability]
        if not chosen:
            chosen = [rng.choice(kids)]
        keep.update(chosen)
        frontier.extend(chosen)
    return FiniteTree(tree.kind, frozenset(keep))
