"""Seeded input generators for the three benchmark workloads.

Each generator writes its input files into a work directory and returns
the op list of one pass: every op is one `cichon` CLI call, given as an
argv plus the exit code the generator built it to produce.  The seed only
changes values; the op mix, horizons, family sizes, tree node counts and
fusion indices are fixed per scale, so per-op cost does not depend on the
seed.  Nothing here imports `cichon`.
"""

from __future__ import annotations

import json
import os
import random

SCALES = ("full", "tiny")
WORKLOADS = ("reals", "trees", "conditions")

# Forcing names the knowledge base records.
KB_FORCINGS = ("cohen", "e", "hechler", "laver", "loc", "random", "sacks")


class Inputs:
    """Writes input files and collects the ops of one pass."""

    def __init__(self, root: str):
        self.root = root
        self.ops: list[dict] = []
        self.files = 0
        os.makedirs(root, exist_ok=True)

    def file(self, obj) -> str:
        path = os.path.join(self.root, f"in{self.files:04d}.json")
        self.files += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle, separators=(",", ":"))
        return path

    def op(self, kind: str, argv: list[str], expect: int, **props):
        self.ops.append(
            {"id": len(self.ops), "type": kind, "argv": argv, "expect": expect, "props": props}
        )


def generate(workload: str, seed: int, root: str, scale: str = "full") -> list[dict]:
    """Write the inputs of one workload and return its op list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs = Inputs(root)
    {"reals": _reals, "trees": _trees, "conditions": _conditions}[workload](
        rng, inputs, scale == "tiny"
    )
    return inputs.ops


def describe(ops: list[dict]) -> dict:
    """Input properties of a pass: sizes by op type and the exit-code shares."""
    shares = {str(code): 0 for code in (0, 1, 2)}
    for op in ops:
        shares[str(op["expect"])] += 1
    props: dict[str, set] = {}
    for op in ops:
        for key, value in op["props"].items():
            props.setdefault(key, set()).add(value)
    return {
        "ops_per_pass": len(ops),
        "op_types": sorted({op["type"] for op in ops}),
        "exit_share": {code: round(count / len(ops), 4) for code, count in shares.items()},
        **{key: sorted(values) for key, values in sorted(props.items())},
    }


# ---------------------------------------------------------------------------
# reals: threshold relations and family constructions at horizons 10^3..10^4

VALUE_RANGE = 1000


def _func(rng, horizon):
    return [rng.randrange(VALUE_RANGE) for _ in range(horizon)]


def _check_pair(rng, relation, horizon, threshold):
    """(f, g) whose least threshold for the relation is exactly `threshold`;
    threshold == horizon makes the last position fail (vacuous, exit 1)."""
    f = _func(rng, horizon)
    if relation == "in":
        g = []
        for l in range(horizon):
            others = rng.sample(range(VALUE_RANGE), 3)
            cell = {v for v in others if v != f[l]}
            if l >= threshold:
                cell.add(f[l])
            g.append(sorted(cell))
        return f, {"width": [4] * horizon, "cells": g}
    g = []
    for l in range(horizon):
        if relation == "leq":
            ok = f[l] + rng.randrange(VALUE_RANGE)
            bad = rng.randrange(f[l]) if f[l] > 0 else None
        else:  # neq
            ok = (f[l] + 1 + rng.randrange(VALUE_RANGE - 1)) % VALUE_RANGE
            bad = f[l]
        if l == threshold - 1 and bad is None:
            f[l] = 1 + rng.randrange(VALUE_RANGE - 1)
            bad = rng.randrange(f[l])
        g.append(bad if l == threshold - 1 else ok)
    return f, g


def _reals(rng, inputs: Inputs, tiny: bool):
    if tiny:
        horizons, thresholds, shapes = (40, 30), (0, 1), ((40, 4, 30),)
    else:
        horizons, thresholds = (1000, 2000, 4000, 7000, 10000), (0, 1 / 3, 1)
        # (horizon, members, --horizon truncation); at most 8e4 member x
        # position pairs per op
        shapes = tuple(
            (h, m, h * 3 // 5 if m == 8 else None)
            for h, ms in ((1000, (4, 8, 16, 24)), (2500, (4, 8, 16, 24)),
                          (5000, (4, 8, 16)), (10000, (4, 8)))
            for m in ms
        )
    for relation in ("leq", "neq", "in"):
        for horizon in horizons:
            for share in thresholds:
                # share 1 puts the threshold at the horizon: the relation fails
                threshold = int(horizon * share)
                f, g = _check_pair(rng, relation, horizon, threshold)
                inputs.op(
                    f"check-{relation}",
                    ["check", "--relation", relation, "--f", inputs.file(f), "--g", inputs.file(g)],
                    0 if threshold < horizon else 1,
                    horizon=horizon,
                )
    for horizon, members, cut in shapes:
        family = {"horizon": horizon, "functions": [_func(rng, horizon) for _ in range(members)]}
        path = inputs.file(family)
        for kind in ("dominator", "ioe", "evdiff", "slalom"):
            argv = ["construct", "--kind", kind, "--family", path]
            if cut is not None:
                argv += ["--horizon", str(cut)]
            inputs.op(f"construct-{kind}", argv, 0, horizon=cut or horizon, members=members)
        cells = [sorted(rng.sample(range(VALUE_RANGE), min(l, 4))) for l in range(horizon)]
        argv = ["construct", "--kind", "evader", "--family", inputs.file({"cells": cells})]
        if cut is not None:
            argv += ["--horizon", str(cut)]
        inputs.op("construct-evader", argv, 0, horizon=cut or horizon)


# ---------------------------------------------------------------------------
# trees: Sacks, Laver and product trees under the plain and fusion orders


def _widths(depth, final, stem=0):
    """Level widths growing geometrically from 1 to `final` after a linear
    stem; the stem's last node always splits."""
    out = [1] * (stem + 1)
    for d in range(depth - stem):
        target = round(final ** ((d + 1) / (depth - stem)))
        out.append(max(2 if d == 0 else out[-1], min(2 * out[-1], target)))
    return out


def sacks_tree(rng, depth, final):
    """A binary tree with fixed level widths; which nodes split is seeded."""
    widths = _widths(depth, final)
    level, nodes = [()], [()]
    for d in range(depth):
        splits = set(rng.sample(range(len(level)), widths[d + 1] - len(level)))
        nxt = []
        for i, node in enumerate(level):
            if i in splits:
                nxt += [node + (0,), node + (1,)]
            else:
                nxt.append(node + (rng.randrange(2),))
        level = nxt
        nodes += nxt
    return nodes


def laver_tree(rng, depth, final, stem):
    """A natural-branching tree with a linear stem and fixed level widths."""
    widths = _widths(depth, final, stem)
    level, nodes = [()], [()]
    for d in range(depth):
        extra = widths[d + 1] - len(level)
        counts = [1] * len(level)
        for _ in range(extra):
            counts[rng.choice([i for i, c in enumerate(counts) if c < 6])] += 1
        nxt = []
        for node, count in zip(level, counts):
            nxt += [node + (v,) for v in sorted(rng.sample(range(9), count))]
        level = nxt
        nodes += nxt
    return nodes


def _children(nodes):
    kids: dict[tuple, list] = {}
    for node in nodes:
        if node:
            kids.setdefault(node[:-1], []).append(node)
    return kids


def _remove_subtree(nodes, top):
    return [n for n in nodes if n[: len(top)] != top]


def _split_levels(nodes):
    """Splitting level (splitting proper predecessors) of each splitting node."""
    kids = _children(nodes)
    split = {n for n in nodes if len(kids.get(n, ())) >= 2}
    return {n: sum(1 for i in range(len(n)) if n[:i] in split) for n in split}


def _laver_stem(nodes):
    kids, stem = _children(nodes), ()
    while len(kids.get(stem, ())) == 1:
        stem = kids[stem][0]
    return stem


def prune_sacks(rng, nodes, above_level):
    """Drop one branch at a splitting node of splitting level > above_level
    (fusion orders up to above_level still hold); None if there is none."""
    levels = _split_levels(nodes)
    candidates = sorted(n for n, lvl in levels.items() if lvl > above_level)
    if not candidates:
        return None
    node = rng.choice(candidates)
    return _remove_subtree(nodes, node + (rng.choice(_children(nodes)[node])[-1],))


def prune_laver(rng, nodes, keep):
    """Drop a subtree whose top sits past the first `keep` canonical nodes
    without changing the stem; None if there is none."""
    stem = _laver_stem(nodes)
    kids = _children(nodes)
    canonical = sorted(
        (n for n in nodes if len(n) > len(stem) and n[: len(stem)] == stem),
        key=lambda n: (len(n), n),
    )
    candidates = [
        n
        for n in canonical[keep:]
        if len(kids[n[:-1]]) >= (3 if n[:-1] == stem else 2)
    ]
    if not candidates:
        return None
    return _remove_subtree(nodes, rng.choice(candidates))


def _tree_obj(kind, nodes, **budgets):
    return {"kind": kind, "nodes": [list(n) for n in sorted(nodes)], **budgets}


def _trees(rng, inputs: Inputs, tiny: bool):
    # (depth, leaves[, stem length], fusion indices or None for the plain
    # order); fusion indices run past the depth
    if tiny:
        sacks_shapes = ((4, 4, (0, 6)), (5, 6, None))
        laver_shapes = ((4, 6, 1, (0, 7)), (4, 6, 1, None))
    else:
        sacks_shapes = (
            (7, 16, (0, 3, 6, 9)), (9, 40, (1, 5, 8, 11)),
            (11, 60, None), (12, 90, None), (14, 170, None),
        )
        laver_shapes = (
            (6, 30, 2, (0, 3, 9)), (8, 80, 2, (1, 4, 40)),
            (9, 100, 2, None), (10, 180, 3, None),
        )
    for depth, final, fusion in sacks_shapes:
        b = sacks_tree(rng, depth, final)
        for name, a, n in _sacks_variants(rng, b, fusion):
            _tree_op(inputs, "sacks", _tree_obj("sacks", a), _tree_obj("sacks", b), n, name, len(b))
    for depth, final, stem, fusion in laver_shapes:
        b = laver_tree(rng, depth, final, stem)
        for name, a, n in _laver_variants(rng, b, fusion):
            _tree_op(
                inputs, "laver",
                _tree_obj("laver", a, branching_budget=6),
                _tree_obj("laver", b, branching_budget=6),
                n, name, len(b),
            )
    if tiny:
        product_shapes = ((3, 3, 3, 4, 1, (0, 5)),)
    else:
        product_shapes = ((7, 20, 6, 30, 1, (0, 2, 5, 9)), (9, 40, 7, 60, 2, (1, 5, 10)))
    for sd, sf, ld, lf, stem, fusion in product_shapes:
        sb, lb = sacks_tree(rng, sd, sf), laver_tree(rng, ld, lf, stem)
        for n in fusion:
            for (name, sa, _), (_, la, _) in zip(
                _sacks_variants(rng, sb, (n,)), _laver_variants(rng, lb, (n,))
            ):
                a = {"kind": "product", "sacks": _tree_obj("sacks", sa), "laver": _tree_obj("laver", la)}
                b = {"kind": "product", "sacks": _tree_obj("sacks", sb), "laver": _tree_obj("laver", lb)}
                _tree_op(inputs, "product", a, b, n, name, len(sb) + len(lb))


def _sacks_variants(rng, b, fusion):
    """(variant, a, fusion index or None) pairs against the tree b."""
    out = []
    for n in fusion or (None,):
        level = 0 if n is None else n
        deep = prune_sacks(rng, b, level)
        out.append(("equal", list(b), n))
        out.append(("prune-deep" if deep else "equal", deep or list(b), n))
        out.append(("prune-root", prune_sacks(rng, b, -1) if n is None else _prune_level0(b), n))
        out.append(("extended", _extend(rng, b, (0, 1)), n))
    return out


def _prune_level0(nodes):
    """Drop the smaller branch at the first splitting node, so every
    splitting level of the result moves and all fusion orders fail."""
    root_split = min(_split_levels(nodes), key=len)
    branches = _children(nodes)[root_split]
    size = {top: sum(1 for n in nodes if n[: len(top)] == top) for top in branches}
    return _remove_subtree(nodes, min(branches, key=lambda top: (size[top], top)))


def _extend(rng, nodes, alphabet):
    """Add a branch at a node that has a free symbol, down to the working
    depth, so the result is not below the original tree."""
    depth = max(len(n) for n in nodes)
    kids = _children(nodes)
    free = {
        n: [v for v in alphabet if n + (v,) not in kids.get(n, ())]
        for n in nodes
        if len(n) < depth
    }
    node = rng.choice(sorted(n for n, values in free.items() if values))
    top = node + (rng.choice(free[node]),)
    return list(nodes) + [top + (0,) * k for k in range(depth - len(top) + 1)]


def _laver_variants(rng, b, fusion):
    """(variant, a, fusion index or None) pairs against the tree b."""
    out = []
    for n in fusion or (None,):
        keep = 1 if n is None else n + 1
        deep = prune_laver(rng, b, keep)
        out.append(("equal", list(b), n))
        out.append(("prune-deep" if deep else "equal", deep or list(b), n))
        out.append(("prune-first", _prune_first(b), n))
        out.append(("extended", _extend(rng, b, range(9)), n))
    return out


def _prune_first(nodes):
    """Drop the first canonical node's subtree, so all fusion orders fail."""
    stem = _laver_stem(nodes)
    return _remove_subtree(nodes, _children(nodes)[stem][0])


def _tree_op(inputs, kind, a, b, n, variant, nodes):
    argv = ["poset", "--kind", kind, "--op", "leq" if n is None else "fusion",
            "--a", inputs.file(a), "--b", inputs.file(b)]
    props = {"tree_nodes": nodes}
    if n is not None:
        argv += ["--n", str(n)]
        props["fusion_n"] = n
    holds = variant in ("equal", "prune-deep") or (variant != "extended" and n is None)
    inputs.op(f"poset-{kind}-{'leq' if n is None else 'fusion'}", argv, 0 if holds else 1, **props)


# ---------------------------------------------------------------------------
# conditions: small forcing conditions, projections and the diagram


def _small(rng, horizon, top=16):
    return [rng.randrange(top) for _ in range(horizon)]


def _loc(rng, plen, horizon, members):
    """A valid localization condition with |s| = plen and |F| = members."""
    side = [_small(rng, horizon) for _ in range(members)]
    prefix = [sorted(rng.sample(range(16), (n + 1) // 2)) for n in range(plen)]
    return {"kind": "loc", "prefix": prefix, "side": {"horizon": horizon, "functions": side}}


def _kth_outside(excluded, k):
    v = 0
    while True:
        if v not in excluded:
            if k == 0:
                return v
            k -= 1
        v += 1


def _conditions(rng, inputs: Inputs, tiny: bool):
    # the set-up probe runs the first op, so start with one that loads the KB
    inputs.op("kb-list", ["kb", "--list"], 0)
    for r in range(1 if tiny else 6):
        # sizes cycle with the round, so only values depend on the seed
        _stem_orders(rng, inputs, 4 + r % 5)
        _loc_order(rng, inputs, 2 + r % 3, r)
        _projections(rng, inputs, 3 + r % 3, 6 + r % 3, r)
    inputs.op("cuts", ["cuts"], 0)
    inputs.op("diagram-dot", ["diagram"], 0)
    forcings = KB_FORCINGS[:2] if tiny else KB_FORCINGS
    for i, name in enumerate(forcings):
        fmt = ("json", "dot")[i % 2]
        inputs.op(f"diagram-{fmt}", ["diagram", "--forcing", name, "--format", fmt], 0)


def _poset_op(inputs, kind, a, b, holds, horizon):
    argv = ["poset", "--kind", kind, "--op", "leq", "--a", inputs.file(a), "--b", inputs.file(b)]
    inputs.op(f"poset-{kind}-leq", argv, 0 if holds else 1, horizon=horizon)


def _stem_orders(rng, inputs, h):
    stem = _small(rng, h // 2)
    longer = stem + _small(rng, h - len(stem))
    bad = list(longer)
    bad[0] += 1
    for a, holds in ((longer, True), (bad, False)):
        _poset_op(inputs, "cohen", {"kind": "cohen", "stem": a}, {"kind": "cohen", "stem": stem}, holds, h)

    side = _small(rng, h)
    b = {"kind": "hechler", "stem": stem, "side": side}
    a_stem = stem + [side[n] + rng.randrange(4) for n in range(len(stem), h)]
    a_side = [v + rng.randrange(4) for v in side]
    low = list(a_side)
    low[-1] = side[-1] - 1 if side[-1] > 0 else None
    _poset_op(inputs, "hechler", {"kind": "hechler", "stem": a_stem, "side": a_side}, b, True, h)
    if low[-1] is None:
        low_stem = list(a_stem)
        low_stem[0] += 1  # stem no longer extends b's stem
        _poset_op(inputs, "hechler", {"kind": "hechler", "stem": low_stem, "side": a_side}, b, False, h)
    else:
        _poset_op(inputs, "hechler", {"kind": "hechler", "stem": a_stem, "side": low}, b, False, h)

    fam = [_small(rng, h) for _ in range(2)]
    b = {"kind": "e", "stem": stem, "side": {"horizon": h, "functions": fam}}
    a_stem = list(stem)
    for n in range(len(stem), h):
        a_stem.append(_kth_outside({f[n] for f in fam}, rng.randrange(3)))
    bigger = fam + [_small(rng, h)]
    a = {"kind": "e", "stem": a_stem, "side": {"horizon": h, "functions": bigger}}
    hit = dict(a, stem=a_stem[:-1] + [fam[0][h - 1]])
    _poset_op(inputs, "e", a, b, True, h)
    _poset_op(inputs, "e", hit, b, False, h)


def _loc_order(rng, inputs, plen, r):
    h = 8
    b = _loc(rng, plen, h, r % plen)
    fam = b["side"]["functions"]
    prefix = list(b["prefix"])
    for n in range(plen, h):
        cell = {f[n] for f in fam}
        while len(cell) < min(n, len(fam) + 2):
            cell.add(rng.randrange(16))
        prefix.append(sorted(cell))
    a = {"kind": "loc", "prefix": prefix, "side": {"horizon": h, "functions": fam + [_small(rng, h)]}}
    _poset_op(inputs, "loc", a, b, True, h)
    if fam:
        missed = [list(c) for c in prefix]
        missed[-1] = sorted(set(range(16)) - {f[h - 1] for f in fam})[: h - 1]
        _poset_op(inputs, "loc", dict(a, prefix=missed), b, False, h)
    else:
        _poset_op(inputs, "loc", b, a, False, h)  # the weaker one is not below


def _projections(rng, inputs, plen, h, r):
    c = _loc(rng, plen, h, r % plen)
    cond = inputs.file(c)
    for name in ("loc-d", "loc-e"):
        inputs.op(f"project-{name}", ["project", "--map", name, "--cond", cond], 0, horizon=h)

    # loc-d lift: target side above the family sum and new stem values above
    # n + sum and the side value, so the lift preconditions hold whether the
    # projected side is the family sum or the family max.
    fam = c["side"]["functions"]
    sums = [sum(f[n] for f in fam) for n in range(h)]
    side = [sums[n] + 1 + rng.randrange(8) for n in range(h)]
    stem = [max(cell, default=0) for cell in c["prefix"]]
    stem += [max(n + sums[n] + 1, side[n]) + rng.randrange(8) for n in range(plen, h)]
    target = {"kind": "hechler", "stem": stem, "side": side}
    inputs.op("project-loc-d-lift",
              ["project", "--map", "loc-d", "--cond", cond, "--lift", inputs.file(target)], 0, horizon=h)
    wrong = dict(target, stem=[stem[0] + 1] + stem[1:])  # not below the projection
    inputs.op("project-loc-d-lift",
              ["project", "--map", "loc-d", "--cond", inputs.file({"loc": c, "target": wrong})], 2, horizon=h)
    full = _loc(rng, plen, h, plen)  # |F| = |s|: the family is too large to lift
    full_target = {"kind": "hechler", "stem": [max(x, default=0) for x in full["prefix"]],
                   "side": [10 ** 6] * h}
    inputs.op("project-loc-d-lift",
              ["project", "--map", "loc-d", "--cond", inputs.file({"loc": full, "target": full_target})],
              2, horizon=h)

    # loc-e lift: new stem values avoid the side family; rank 0 lifts as is,
    # a rank >= n needs --reduce and fails without it.
    e_stem = _proj_e_stem(c["prefix"])
    easy = list(e_stem)
    hard = list(e_stem)
    for n in range(plen, h):
        taken = {f[n] for f in fam}
        easy.append(_kth_outside(taken, 0))
        hard.append(_kth_outside(taken, n + rng.randrange(3)))
    side_obj = c["side"]
    easy_file = inputs.file({"kind": "e", "stem": easy, "side": side_obj})
    hard_file = inputs.file({"kind": "e", "stem": hard, "side": side_obj})
    inputs.op("project-loc-e-lift", ["project", "--map", "loc-e", "--cond", cond, "--lift", easy_file], 0, horizon=h)
    inputs.op("project-loc-e-lift", ["project", "--map", "loc-e", "--cond", cond, "--lift", hard_file], 2, horizon=h)
    inputs.op("project-loc-e-reduce",
              ["project", "--map", "loc-e", "--cond", cond, "--lift", hard_file, "--reduce"], 0, horizon=h)


def _proj_e_stem(prefix):
    """The loc -> e stem on the prefix positions (arXiv 1801.06497, the
    residue-ranked map): position n >= 1 takes the (sum s(n) mod n)-th
    natural outside s(n); position 0 is 0."""
    out = []
    for n, cell in enumerate(prefix):
        out.append(0 if n == 0 else _kth_outside(set(cell), sum(cell) % n))
    return out
