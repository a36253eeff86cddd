"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  All randomized volumes run on fixed seeds.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import operator
import random
import time
from collections import Counter

from cichon import (
    BlockSlalom,
    Contradiction,
    ECond,
    Family,
    FinFunc,
    LocCond,
    ProductCond,
    Slalom,
    block_encode,
    enumerate_cuts,
    family_dominator,
    family_slalom,
    fusion_leq,
    hit_count,
    kb_lookup,
    kb_names,
    least_threshold,
    leq,
    lift_loc_to_d,
    lift_loc_to_e,
    proj_loc_to_d,
    proj_loc_to_e,
    propagate,
    round_robin_ioe,
    sum_evader_bound,
    validate,
)
from cichon.diagram import EDGES, MORPHISMS, NODES, is_upward_closed
from cichon.errors import CichonError
from conftest import (
    extend_loc,
    make_cohen,
    make_e,
    make_family,
    make_finfunc,
    make_hechler,
    make_laver,
    make_liftable_d,
    make_liftable_e,
    make_loc,
    make_sacks,
    make_slalom,
    make_width,
    prune_tree,
    strengthen_cohen,
    strengthen_e,
    strengthen_hechler,
)
from test_diagram import EXPECTED_EDGES, EXPECTED_PROFILES, brute_force_cuts
from test_posets import ref_leq
from universe import (
    block_slaloms,
    e_conditions,
    functions,
    hechler_conditions,
    identity_slaloms,
    loc_conditions,
    partitions,
)


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Criterion: cut enumeration


def test_criterion_cut_enumeration():
    started = time.monotonic()
    cuts = enumerate_cuts()
    elapsed = time.monotonic() - started
    ok = (
        len(cuts) == 11
        and {cut.nonempty for cut in cuts} == brute_force_cuts()
        and sorted(cut.realized_by for cut in cuts) == sorted(kb_names())
        and all(
            kb_lookup(cut.realized_by).nonempty_set() == cut.nonempty
            for cut in cuts
        )
        and elapsed < 1.0
    )
    report("cut enumeration (11 cuts, brute-force bijection, < 1 s)", ok,
           f"{len(cuts)} cuts in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Criterion: diagram shape


def test_criterion_diagram_shape():
    nodes, edges = NODES, EDGES
    closure = {node: set() for node in nodes}
    for a, b in edges:
        closure[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in nodes:
            for b in list(closure[a]):
                extra = closure[b] - closure[a]
                if extra:
                    closure[a] |= extra
                    changed = True
    ok = (
        len(nodes) == 8
        and len(edges) == 9
        and "DNeq" in closure["BIn"]
        and "DNeq" not in closure["BLeq"]
        and "DNeq" not in closure["BNeq"]
    )
    report("diagram shape (8 nodes, 9 edges, DNeq reachable only via BIn)", ok)


# ---------------------------------------------------------------------------
# Criterion: knowledge-base soundness


def test_criterion_kb_soundness():
    names = kb_names()
    ok = len(names) == 11 and set(names) == set(EXPECTED_PROFILES)
    for name in names:
        state = kb_lookup(name)
        closed = propagate(state)
        expected_nonempty, expected_classes, expected_separators = EXPECTED_PROFILES[name]
        ok = ok and not isinstance(closed, Contradiction)
        ok = ok and closed.emptiness == state.emptiness
        ok = ok and is_upward_closed(state.nonempty_set())
        ok = ok and state.nonempty_set() == frozenset(expected_nonempty)
        ok = ok and [list(cls) for cls in state.classes] == expected_classes
        ok = ok and list(state.separators) == expected_separators
        ok = ok and state.class_violations() == []
    report("knowledge base (11 profiles, fixpoints, upward closed, region-for-region)", ok)


# ---------------------------------------------------------------------------
# Criterion: inclusion analogues (randomized, horizon <= 64, values < 256)


def test_criterion_inclusion_analogues():
    rng = random.Random(1001)
    started = time.monotonic()
    counterexamples = 0
    for _ in range(1000):
        horizon = rng.randint(0, 64)
        sigma = make_slalom(rng, horizon, max_value=256)
        bound = sum_evader_bound(sigma)
        for n in range(horizon):
            if bound[n] in sigma[n]:
                counterexamples += 1
    elapsed = time.monotonic() - started
    ok = counterexamples == 0 and elapsed < 10.0
    report("inclusion analogues (1000 evader bounds, zero counterexamples, < 10 s)", ok,
           f"{counterexamples} counterexamples in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion: every arrow's witness carries its finite implication


# Each relation by its name, as its test at one position.
HOLDS = {"eq": operator.eq, "in": lambda v, cell: v in cell, "leq": operator.le, "neq": operator.ne}
# The instances whose premise an identity row reads, by its relation R.
PREMISE_KIND = {"eq": "pairs", "in": "captures", "leq": "pairs"}


def threshold(rel, x, y):
    """The least k with x(n) rel y(n) at every n in [k, N)."""
    k = x.horizon
    while k and HOLDS[rel](x[k - 1], y[k - 1]):
        k -= 1
    return k


def tukey_law(r, s, plus, x, y):
    """Where x R y on [k, N) with k < N: x S plus(y) from k on, or, when S
    is the dual "T*" of a relation T, plus(y)(n) T x(n) fails at every n in
    [k, N).  One verdict per instance meeting the premise."""
    k = threshold(r, x, y)
    if k < x.horizon:
        image = plus(y)
        if s.endswith("*"):
            yield not any(HOLDS[s[:-1]](image[n], x[n]) for n in range(k, x.horizon))
        else:
            yield threshold(s, x, image) <= k


def block_law(encode, glue, f, sigma):
    """Where encode(f, S.width)[n] is code j of S[n], padded with constant-0
    codes, glue(S) meets f at the j-th position of J_n: one verdict per such code."""
    code, g = encode(f, sigma.width), glue(sigma)
    start = 0
    for h, entry, own in zip(sigma.width.widths, sigma.entries, code):
        for j, member in enumerate([*entry, *[(0,) * h] * (h - len(entry))]):
            if member == own:
                yield g[start + j] == f[start + j]
        start += h


def edge_instances(rng):
    """The H = 3, V = 2 universe, then seeded random instances up to
    horizon 64 and values below 256, with planted captures and matches."""
    fs = [functions(h, 2) for h in range(4)]
    cases = {
        "pairs": [(f, g) for same in fs for f in same for g in same],
        "captures": [(f, s) for s in identity_slaloms(3, 2) for f in fs[s.horizon]],
        "blocks": [(f, sigma) for width in partitions(3) for sigma in block_slaloms(width, 2) for f in fs[3]],
    }
    for _ in range(300):
        horizon = rng.randint(0, 64)
        f = make_finfunc(rng, horizon)
        cases["pairs"].append((f, make_finfunc(rng, horizon)))
        # a near copy of f, so that equal, lower and higher values all occur
        near = FinFunc(tuple(max(v + rng.randint(-1, 2), 0) for v in f.values))
        cases["pairs"].append((f, near))
        sigma = make_slalom(rng, horizon)
        captured = [min(c) if c and rng.random() < 0.8 else v for c, v in zip(sigma.cells, f.values)]
        cases["captures"].append((FinFunc(captured), sigma))
        width = make_width(rng, rng.randint(1, 4), 3)  # zero widths give empty blocks
        f = make_finfunc(rng, sum(width.widths), 8)
        entries = [
            tuple(
                own if planted else tuple(rng.randrange(8) for _ in own)
                for planted in (rng.random() < 0.4 for _ in range(rng.randint(0, len(own))))
            )
            for own in block_encode(f, width)
        ]
        cases["blocks"].append((f, BlockSlalom(entries, width)))
    return cases


def test_criterion_edge_witnesses():
    """Every morphism row of EDGES carries its finite implication: the
    Tukey law for an identity phi-, the block law for the weave, on every
    instance meeting its premise, and on at least one."""
    started = time.monotonic()
    cases = edge_instances(random.Random(1002))
    ok = set(EDGES) == set(EXPECTED_EDGES) and set(EDGES.values()) == set(MORPHISMS)
    counts = {}
    for r, s, plus, minus, link in MORPHISMS:
        if minus is None:
            verdicts = [v for case in cases[PREMISE_KIND[r]] for v in tukey_law(r, s, plus, *case)]
        else:
            verdicts = [v for case in cases["blocks"] for v in block_law(minus, plus, *case)]
        counts[f"{r}->{s}"] = f"{verdicts.count(False)} of {len(verdicts)}"
        ok = ok and link and verdicts and all(verdicts)
    elapsed = time.monotonic() - started
    report("edge witnesses (5 morphism rows, H = 3, V = 2 universe and random, < 2 s)",
           bool(ok) and elapsed < 2.0, f"counterexamples {counts}; {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# Criterion: projection laws


def test_criterion_projection_order_preservation_loc_e():
    rng = random.Random(1004)
    counterexamples = 0
    for _ in range(500):
        weaker = make_loc(rng)
        stronger = extend_loc(rng, weaker)
        if not leq("e", proj_loc_to_e(stronger), proj_loc_to_e(weaker)):
            counterexamples += 1
    report("projection laws: loc->e order preservation (500 pairs)",
           counterexamples == 0, f"{counterexamples} counterexamples")


def test_criterion_projection_order_preservation_loc_d():
    """At a new position the localization order forces each side value
    into the new cell, so the projected stem (the cell maximum) reaches
    the projected side (the family max) there; the law holds over
    arbitrary pairs, families of any size included.
    """
    rng = random.Random(1005)
    counterexamples = 0
    for _ in range(500):
        weaker = make_loc(rng)
        stronger = extend_loc(rng, weaker)
        if not leq("hechler", proj_loc_to_d(stronger), proj_loc_to_d(weaker)):
            counterexamples += 1
    report("projection laws: loc->d order preservation (500 pairs)",
           counterexamples == 0, f"{counterexamples} counterexamples")


def test_criterion_projection_lift_laws():
    rng = random.Random(1006)
    counterexamples = 0
    for _ in range(200):
        c, q = make_liftable_d(rng)
        lifted = lift_loc_to_d(c, q)
        reproj = proj_loc_to_d(lifted)
        if validate(lifted) or not leq("loc", lifted, c):
            counterexamples += 1
        if reproj.stem != q.stem or reproj.side != q.side:
            counterexamples += 1
    for _ in range(200):
        c, q = make_liftable_e(rng)
        lifted = lift_loc_to_e(c, q)
        reproj = proj_loc_to_e(lifted)
        if validate(lifted) or not leq("loc", lifted, c):
            counterexamples += 1
        if reproj.stem.values[: q.stem.horizon] != q.stem.values:
            counterexamples += 1
    report("projection laws: 2 x 200 lifts (below, re-projection, validity)",
           counterexamples == 0, f"{counterexamples} counterexamples")


def test_criterion_projection_rank_regression():
    from cichon.errors import RankTooLarge

    c = LocCond(Slalom.identity_width([frozenset()]), Family((), 4))
    q = ECond(FinFunc((0, 3)), Family((), 4))
    try:
        lift_loc_to_e(c, q)
        ok = False
    except RankTooLarge:
        ok = True
    report("projection laws: rank-3-at-position-1 regression expects RankTooLarge", ok)


# Lift outcomes over the H = 3, V = 2 universe: the pairs (p, q) with
# q <= proj(p), p with at most one side member and q's e side with at most
# one; a refusal names only a precondition of the lift itself.
UNIVERSE_OUTCOMES = {
    "loc-d": {None: 764, "FamilyTooLarge": 267},
    "loc-e": {None: 228, "FamilyTooLarge": 198, "RankTooLarge": 27},
}


def test_criterion_projection_universe():
    """Both projections over every loc condition of the H = 3, V = 2
    universe with at most two side members: order preserved on every pair
    p' <= p; for every p with at most one side member and every q <= proj(p),
    the lift is valid, below p and re-projects to q on q's domain, or it is
    refused, and the refusals that some p' of the universe with
    proj(p') <= q shows to be avoidable are counted per class."""
    started = time.monotonic()
    universe = loc_conditions(3, 2, 2)
    below = [[j for j, x in enumerate(universe) if ref_leq("loc", x, p)] for p in universe]
    maps = {
        "loc-d": ("hechler", proj_loc_to_d, lift_loc_to_d, hechler_conditions(3, 2)),
        "loc-e": ("e", proj_loc_to_e, lift_loc_to_e, e_conditions(3, 2, 1)),
    }
    failures, counts = Counter(), {}
    for name, (kind, project, lift, targets) in maps.items():
        projected = [project(x) for x in universe]
        outcomes, avoidable = Counter(), Counter()
        for p, pi, strengthenings in zip(universe, projected, below):
            failures["order"] += sum(not leq(kind, projected[j], pi) for j in strengthenings)
            if len(p.side) > 1:
                continue
            for q in targets:
                if not ref_leq(kind, q, pi):
                    continue
                try:
                    lifted = lift(p, q)
                except CichonError as refused:
                    outcomes[type(refused).__name__] += 1
                    if any(ref_leq(kind, projected[j], q) for j in strengthenings):
                        avoidable[type(refused).__name__] += 1
                    continue
                outcomes[None] += 1
                back = project(lifted)
                failures["lift"] += bool(
                    validate(lifted)
                    or not ref_leq("loc", lifted, p)
                    or back.stem.values[: q.stem.horizon] != q.stem.values
                    or back.side != q.side
                )
        failures["outcomes"] += outcomes != UNIVERSE_OUTCOMES[name]
        refusals = sorted(cls for cls in outcomes if cls)
        counts[name] = ", ".join(
            [f"{cls} {avoidable[cls]} of {outcomes[cls]} have a p'" for cls in refusals]
            + [f"{outcomes[None]} lifted"]
        )
    elapsed = time.monotonic() - started
    report(
        "projection laws: H = 3, V = 2 universe (order, lifts, refusals, < 2 s)",
        not any(failures.values()) and elapsed < 2.0,
        f"{len(universe)} loc conditions; {dict(failures)}; "
        + "; ".join(f"{name}: {text}" for name, text in counts.items())
        + f"; {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# Criterion: fusion orders


def test_criterion_fusion_orders():
    rng = random.Random(1007)
    counterexamples = 0
    for kind in ("sacks", "laver", "product"):
        for _ in range(200):
            if kind == "sacks":
                weaker = make_sacks(rng)
                stronger = prune_tree(rng, weaker)
            elif kind == "laver":
                weaker = make_laver(rng)
                stronger = prune_tree(rng, weaker)
            else:
                ps, pl = make_sacks(rng), make_laver(rng)
                weaker = ProductCond(ps, pl)
                stronger = ProductCond(prune_tree(rng, ps), prune_tree(rng, pl))
            for n in range(3):
                if fusion_leq(kind, stronger, weaker, n + 1) and not fusion_leq(
                    kind, stronger, weaker, n
                ):
                    counterexamples += 1
                if fusion_leq(kind, stronger, weaker, n) and not leq(
                    kind, stronger, weaker
                ):
                    counterexamples += 1
            if not all(fusion_leq(kind, weaker, weaker, n) for n in range(3)):
                counterexamples += 1
    report("fusion orders (3 x 200 pairs, nesting and reflexivity)",
           counterexamples == 0, f"{counterexamples} counterexamples")


def test_criterion_leq_reflexive_transitive():
    rng = random.Random(1008)
    counterexamples = 0
    stem_kinds = (
        ("cohen", make_cohen, strengthen_cohen),
        ("hechler", make_hechler, strengthen_hechler),
        ("e", make_e, strengthen_e),
        ("loc", make_loc, extend_loc),
    )
    for kind, make, strengthen in stem_kinds:
        for _ in range(200):
            a = make(rng)
            b = strengthen(rng, a)
            c = strengthen(rng, b)
            if not (leq(kind, a, a) and leq(kind, b, a) and leq(kind, c, b)):
                counterexamples += 1
            if not leq(kind, c, a):
                counterexamples += 1
    for kind, make in (("sacks", make_sacks), ("laver", make_laver)):
        for _ in range(200):
            a = make(rng)
            b = prune_tree(rng, a)
            c = prune_tree(rng, b)
            if not (leq(kind, a, a) and leq(kind, b, a) and leq(kind, c, b)):
                counterexamples += 1
            if not leq(kind, c, a):
                counterexamples += 1
    for _ in range(200):
        a = ProductCond(make_sacks(rng), make_laver(rng))
        b = ProductCond(prune_tree(rng, a.sacks_part), prune_tree(rng, a.laver_part))
        c = ProductCond(prune_tree(rng, b.sacks_part), prune_tree(rng, b.laver_part))
        if not (leq("product", a, a) and leq("product", b, a) and leq("product", c, b)):
            counterexamples += 1
        if not leq("product", c, a):
            counterexamples += 1
    report("order laws (reflexivity and transitivity, 7 kinds x 200 triples)",
           counterexamples == 0, f"{counterexamples} counterexamples")


# ---------------------------------------------------------------------------
# Criterion: construction bounds


def test_criterion_construction_bounds():
    rng = random.Random(1009)
    counterexamples = 0
    for _ in range(300):
        fam = make_family(rng, rng.randint(0, 32), rng.randint(0, 5), 64)
        d = family_dominator(fam)
        for f in fam:
            if least_threshold("leq", f, d).threshold != 0:
                counterexamples += 1
        sigma, thresholds = family_slalom(fam)
        for i, f in enumerate(fam):
            if thresholds[i] > i + 1:
                counterexamples += 1
            if least_threshold("in", f, sigma).threshold > i + 1:
                counterexamples += 1
        if len(fam) > 0:
            g = round_robin_ioe(fam)
            floor = fam.horizon // len(fam)
            for f in fam:
                if hit_count("eq", g, f) < floor:
                    counterexamples += 1
    report("construction bounds (dominator, round robin, capture)",
           counterexamples == 0, f"{counterexamples} counterexamples")
