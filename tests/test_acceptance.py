"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  All randomized volumes run on fixed seeds.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

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
    WidthProfile,
    avoider_witness,
    block_encode,
    block_partition,
    enumerate_cuts,
    evasion_target,
    family_dominator,
    family_slalom,
    fusion_leq,
    hit_count,
    kb_lookup,
    kb_names,
    least_threshold,
    length_range,
    leq,
    lift_loc_to_d,
    lift_loc_to_e,
    proj_loc_to_d,
    proj_loc_to_e,
    propagate,
    round_robin_ioe,
    slalom_dominator,
    string_encode,
    sum_evader_bound,
    validate,
    weave,
)
from cichon.diagram import EDGES, NODES, is_upward_closed
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
    prune_tree,
    strengthen_cohen,
    strengthen_e,
    strengthen_hechler,
)
from test_diagram import EXPECTED_PROFILES, brute_force_cuts
from test_posets import ref_leq
from universe import e_conditions, hechler_conditions, loc_conditions


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
        f = make_finfunc(rng, horizon, max_value=256)
        z = slalom_dominator(sigma)
        if least_threshold("leq", f, z).threshold > least_threshold("in", f, sigma).threshold:
            counterexamples += 1
    for _ in range(1000):
        horizon = rng.randint(0, 64)
        f = make_finfunc(rng, horizon, max_value=256)
        g = make_finfunc(rng, horizon, max_value=256)
        if least_threshold("neq", f, g).threshold > least_threshold("leq", f.successor(), g).threshold:
            counterexamples += 1
    for _ in range(1000):
        horizon = rng.randint(0, 64)
        sigma = make_slalom(rng, horizon, max_value=256)
        bound = sum_evader_bound(sigma)
        for n in range(horizon):
            if bound[n] in sigma[n]:
                counterexamples += 1
    elapsed = time.monotonic() - started
    ok = counterexamples == 0 and elapsed < 10.0
    report("inclusion analogues (3 x 1000 instances, zero counterexamples, < 10 s)", ok,
           f"{counterexamples} counterexamples in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion: weave agreement core


def test_criterion_weave_agreement():
    rng = random.Random(1002)
    counterexamples = 0
    matches = 0
    for _ in range(500):
        blocks = rng.randint(1, 4)
        width = WidthProfile(tuple(rng.randint(1, 3) for _ in range(blocks)))
        partition = block_partition(width, blocks, cell_size=rng.randint(1, 2))
        f = make_finfunc(rng, partition.covered_horizon, 8)
        entries = []
        for n in range(blocks):
            positions = sorted(partition.block(n))
            members = []
            for _ in range(rng.randint(0, width[n])):
                if rng.random() < 0.4:
                    members.append({x: f[x] for x in positions})
                else:
                    members.append({x: rng.randrange(8) for x in positions})
            entries.append(tuple(members))
        sigma = BlockSlalom(tuple(entries), width)
        g = weave(sigma, partition)
        encoded = block_encode(f, partition)
        for n in range(blocks):
            positions = sorted(partition.block(n))
            zero = {x: 0 for x in positions}
            padded = list(sigma[n]) + [zero] * (width[n] - len(sigma[n]))
            for k, member in enumerate(padded):
                if member == encoded[n]:
                    matches += 1
                    cell = partition.cells[n][k]
                    if not any(g[x] == f[x] for x in cell):
                        counterexamples += 1
    ok = counterexamples == 0 and matches > 0
    report("weave agreement (500 triples, brute-force block scan)", ok,
           f"{matches} matching blocks, {counterexamples} counterexamples")


# ---------------------------------------------------------------------------
# Criterion: rank-column core


def test_criterion_rank_invariant():
    rng = random.Random(1003)
    counterexamples = 0
    for _ in range(500):
        blocks = rng.randint(1, 4)
        width = WidthProfile(tuple(rng.randint(1, 3) for _ in range(blocks)))
        partition = block_partition(width, blocks, cell_size=rng.randint(1, 2))
        sigma = make_slalom(rng, partition.covered_horizon, 32)
        g = avoider_witness(sigma, partition)
        for n in range(blocks):
            for k, cell in enumerate(partition.cells[n], start=1):
                for x in cell:
                    ranked = sorted(sigma[x], reverse=True)
                    expected = ranked[k - 1] if len(ranked) >= k else 0
                    if g[x] != expected:
                        counterexamples += 1
    report("rank invariant (500 avoider witnesses, every position)",
           counterexamples == 0, f"{counterexamples} counterexamples")


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
    for _ in range(300):
        horizon = rng.randint(0, 8)
        cells = []
        for n in range(horizon):
            pool = list(length_range(n))
            cells.append(frozenset(rng.sample(pool, rng.randint(0, min(n, len(pool))))))
        sigma = Slalom(tuple(cells), WidthProfile.identity(horizon))
        encoded = string_encode(evasion_target(sigma))
        for n in range(horizon):
            if encoded[n] in sigma[n]:
                counterexamples += 1
    report("construction bounds (dominator, round robin, capture, evasion)",
           counterexamples == 0, f"{counterexamples} counterexamples")
