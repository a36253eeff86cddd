"""Condition validity, the six orders, splitting machinery, and the
fusion orders with their nesting law."""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import cichon

from cichon import (
    CohenCond,
    ECond,
    Family,
    FinFunc,
    FiniteTree,
    HechlerCond,
    LocCond,
    ProductCond,
    Slalom,
    canonical_enum,
    fusion_leq,
    leq,
    splitting_nodes,
    validate,
)
from cichon.combinatorics import MAX_NATURAL
from cichon.errors import HorizonMismatch, InvalidCondition, KindMismatch, MalformedInput
from cichon.posets import condition_from_obj, condition_to_obj
from conftest import (
    make_cohen,
    make_e,
    make_hechler,
    make_laver,
    make_loc,
    make_sacks,
    extend_loc,
    oracle_children,
    prune_tree,
    strengthen_cohen,
    strengthen_e,
    strengthen_hechler,
)


def full_binary(depth):
    nodes = {()}
    frontier = [()]
    for _ in range(depth):
        frontier = [n + (b,) for n in frontier for b in (0, 1)]
        nodes.update(frontier)
    return FiniteTree("sacks", frozenset(nodes))


def loc(cells, functions, horizon):
    return LocCond(
        Slalom.identity_width([frozenset(c) for c in cells]),
        Family(tuple(FinFunc(tuple(f)) for f in functions), horizon),
    )


def spaced_binary(depth, gap, stem=0, spine_only=False):
    """A sacks tree whose nodes split at lengths stem, stem + gap, ... below
    depth (only along the all-zero spine if spine_only, a comb) and else
    extend by 0, so splitting nodes lie gap - 1 non-splitting steps apart."""
    nodes, frontier = {()}, [()]
    for length in range(depth):
        splits = length >= stem and (length - stem) % gap == 0
        frontier = [
            node + (bit,)
            for node in frontier
            for bit in ((0, 1) if splits and not (spine_only and any(node)) else (0,))
        ]
        nodes.update(frontier)
    return FiniteTree("sacks", frozenset(nodes))


SPACED_TREES = [
    spaced_binary(9, 3, spine_only=True),
    spaced_binary(11, 4, stem=1, spine_only=True),
    spaced_binary(10, 3),
    spaced_binary(12, 5, stem=2),
    spaced_binary(14, 20, stem=11),  # one split deep under a long stem
    spaced_binary(6, 20, stem=6),  # no split at all: a chain
    FiniteTree("sacks", frozenset({(), (1,), (1, 0), (1, 0, 1)})),
    FiniteTree("sacks", frozenset({()})),
]


# ---------------------------------------------------------------------------
# Validity


def test_validate_cohen():
    assert validate(CohenCond(FinFunc((1, 2, 3)))) == []


def test_validate_loc_cell_too_big():
    cond = loc([[], [1, 2]], [], 2)
    assert any("n=1" in v for v in validate(cond))


def test_validate_loc_family_too_big():
    cond = loc([[]], [[1, 1], [2, 2]], 2)
    assert "|F| <= |s|" in validate(cond)


def test_validate_hechler_horizons():
    """A stem longer than the side names the clause: the side of a Hechler
    condition, the family of an e condition."""
    stem = FinFunc((1, 2, 3))
    bad = HechlerCond(stem, FinFunc((1,))), ECond(stem, Family((), 1))
    assert list(map(validate, bad)) == [
        ["stem horizon <= side horizon"], ["stem horizon <= family horizon"]
    ]


def test_validate_tree_prefix_closure():
    bad = FiniteTree("sacks", frozenset({(), (0, 1)}))
    assert any("prefix-closed" in v for v in validate(bad))
    assert validate(ProductCond(bad, FiniteTree("laver", {()}))) == validate(bad)


def test_validate_tree_uniform_leaves():
    bad = FiniteTree("sacks", frozenset({(), (0,), (1,), (0, 0)}))
    assert any("working depth" in v for v in validate(bad))
    assert FiniteTree("sacks", ()).depth == 0  # no node, no leaf


def test_validate_chain_tree():
    chain = FiniteTree("sacks", frozenset({(), (0,), (0, 0)}))
    assert validate(chain) == []


def test_tree_entries_below_max_natural():
    """An entry of magnitude 10**4000 or more is malformed, so every node of
    a tree that is built prints; a smaller negative entry is a violation."""
    for kind, entry in (("sacks", 10**5000), ("laver", -(10**5000)), ("laver", MAX_NATURAL)):
        with pytest.raises(MalformedInput, match=r"entries must be below 10\*\*4000"):
            validate(FiniteTree(kind, {(), (entry,)}))
    assert validate(FiniteTree("laver", {(), (MAX_NATURAL - 1,)})) == []
    low = FiniteTree("laver", {(), (1 - MAX_NATURAL,)})
    assert validate(low) == [f"natural alphabet violated at [{1 - MAX_NATURAL}]"]


def test_validate_tree_alphabet():
    bad = FiniteTree("sacks", frozenset({(), (2,)}))
    assert any("binary" in v for v in validate(bad))
    # the natural-alphabet clause is the laver kind's alone
    assert validate(FiniteTree("sacks", {(), (-1,)})) == ["binary alphabet violated at [-1]"]


def test_validate_product_non_tree_part():
    cohen, laver = CohenCond(FinFunc(())), FiniteTree("laver", {()})
    assert validate(ProductCond(cohen, laver)) == ["first component must be a sacks tree"]
    assert validate(ProductCond(laver, cohen)) == [
        "first component must be a sacks tree",
        "second component must be a laver tree",
    ]


# ---------------------------------------------------------------------------
# Orders


def test_loc_order_example():
    weaker = loc([[], [2]], [[1, 1, 1, 1]], 4)
    stronger = loc([[], [2], [1, 9]], [[1, 1, 1, 1]], 4)
    assert leq("loc", stronger, weaker)


def test_loc_order_capture_required():
    weaker = loc([[], [2]], [[1, 1, 1, 1]], 4)
    missing = loc([[], [2], [0, 9]], [[1, 1, 1, 1]], 4)
    assert not leq("loc", missing, weaker)


def test_e_order_example():
    weaker = ECond(FinFunc((1,)), Family((FinFunc((1, 2, 3)),), 3))
    clash = ECond(FinFunc((1, 2)), Family((FinFunc((1, 2, 3)),), 3))
    assert not leq("e", clash, weaker)
    fine = ECond(FinFunc((1, 5)), Family((FinFunc((1, 2, 3)),), 3))
    assert leq("e", fine, weaker)


def test_hechler_order():
    weaker = HechlerCond(FinFunc((4,)), FinFunc((2, 3, 1)))
    stronger = HechlerCond(FinFunc((4, 3, 1)), FinFunc((2, 3, 2)))
    assert leq("hechler", stronger, weaker)
    low_stem = HechlerCond(FinFunc((4, 2)), FinFunc((2, 3, 2)))
    assert not leq("hechler", low_stem, weaker)
    low_side = HechlerCond(FinFunc((4,)), FinFunc((2, 2, 1)))
    assert not leq("hechler", low_side, weaker)


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        leq("cohen", CohenCond(FinFunc((1,))), HechlerCond(FinFunc(()), FinFunc((1,))))


def test_invalid_condition_rejected():
    bad = loc([[], [1, 2]], [], 2)
    with pytest.raises(InvalidCondition):
        leq("loc", bad, bad)


def _generators():
    return [
        ("cohen", make_cohen, strengthen_cohen),
        ("hechler", make_hechler, strengthen_hechler),
        ("e", make_e, strengthen_e),
        ("loc", make_loc, extend_loc),
    ]


def test_reflexive_and_transitive_stem_kinds(rng):
    for kind, make, strengthen in _generators():
        for _ in range(100):
            a = make(rng)
            assert leq(kind, a, a)
            b = strengthen(rng, a)
            c = strengthen(rng, b)
            assert leq(kind, b, a)
            assert leq(kind, c, b)
            assert leq(kind, c, a)


def test_reflexive_and_transitive_trees(rng):
    for _ in range(60):
        p = make_sacks(rng)
        q = prune_tree(rng, p)
        r = prune_tree(rng, q)
        assert leq("sacks", p, p)
        assert leq("sacks", q, p) and leq("sacks", r, q) and leq("sacks", r, p)
        pl = make_laver(rng)
        ql = prune_tree(rng, pl)
        rl = prune_tree(rng, ql)
        assert leq("laver", pl, pl)
        assert leq("laver", ql, pl) and leq("laver", rl, ql) and leq("laver", rl, pl)
        prod = ProductCond(p, pl)
        sub = ProductCond(q, ql)
        assert leq("product", prod, prod)
        assert leq("product", sub, prod)


def test_loc_prefix_agreement(rng):
    for _ in range(100):
        b = make_loc(rng)
        a = extend_loc(rng, b)
        assert leq("loc", a, b)
        assert a.prefix.cells[: b.prefix.horizon] == b.prefix.cells


# ---------------------------------------------------------------------------
# The stem-type orders against one definition per kind


def ref_extends(longer, shorter):
    return (
        longer.horizon >= shorter.horizon
        and longer.values[: shorter.horizon] == shorter.values
    )


def ref_family_contains(big, small):
    members = {f.values for f in big}
    return all(f.values in members for f in small)


def ref_leq(kind, a, b):
    """The cohen, hechler, e and loc orders, each written out on its own."""
    if kind == "cohen":
        return ref_extends(a.stem, b.stem)
    if kind == "hechler":
        if a.side.horizon != b.side.horizon:
            raise HorizonMismatch("hechler sides live on different horizons")
        if not ref_extends(a.stem, b.stem):
            return False
        new = range(b.stem.horizon, a.stem.horizon)
        if any(a.stem[n] < b.side[n] for n in new):
            return False
        return all(a.side[n] >= b.side[n] for n in range(b.side.horizon))
    if kind == "e":
        if a.side.horizon != b.side.horizon:
            raise HorizonMismatch("e-condition families live on different horizons")
        if not ref_extends(a.stem, b.stem):
            return False
        if not ref_family_contains(a.side, b.side):
            return False
        new = range(b.stem.horizon, a.stem.horizon)
        return all(a.stem[n] != f[n] for n in new for f in b.side)
    if a.side.horizon != b.side.horizon:
        raise HorizonMismatch("loc-condition families live on different horizons")
    s, t = b.prefix, a.prefix
    if t.horizon < s.horizon or t.cells[: s.horizon] != s.cells:
        return False
    if not ref_family_contains(a.side, b.side):
        return False
    new = range(s.horizon, t.horizon)
    return all(f[n] in t[n] for n in new for f in b.side)


def head_length(cond):
    return cond.prefix.horizon if cond.kind == "loc" else cond.stem.horizon


def mutate(rng, cond):
    """cond with one head entry or side value redrawn, or one side member
    dropped; None if that leaves no valid condition."""
    obj = condition_to_obj(cond)
    head = obj.get("stem", obj.get("prefix"))
    side = obj.get("side", [])  # hechler's values, or a family's members
    side = side["functions"] if isinstance(side, dict) else side
    choice = rng.randrange(3)
    if choice == 0 and head:
        n = rng.randrange(len(head))
        if cond.kind == "loc":
            head[n] = sorted(set(head[n]) ^ {rng.randrange(4)})
        else:
            head[n] = rng.randrange(4)
    elif choice == 1 and side and cond.kind == "hechler":
        side[rng.randrange(len(side))] = rng.randrange(4)
    elif choice == 1 and side:
        member = rng.choice(side)
        member[rng.randrange(len(member))] = rng.randrange(4)
    elif choice == 2 and side and cond.kind != "hechler":
        side.pop(rng.randrange(len(side)))
    changed = condition_from_obj(obj)
    return None if validate(changed) else changed


def test_stem_orders_match_their_definitions(rng):
    """Random valid pairs whose heads differ in length, a strengthening, its
    reverse, or either with one entry changed, give the reference's answer."""
    outcomes = Counter()
    for kind, make, strengthen in _generators():
        for _ in range(300):
            b = make(rng, max_value=4)
            a = strengthen(rng, b, max_value=4)
            pairs = [(a, b), (b, a), (mutate(rng, a), b), (a, mutate(rng, b))]
            for x, y in pairs:
                if x is None or y is None or head_length(x) == head_length(y):
                    continue
                got = leq(kind, x, y)
                assert got == ref_leq(kind, x, y), (kind, x, y)
                outcomes[kind, got] += 1
    for kind, _, _ in _generators():
        assert outcomes[kind, True] >= 50 and outcomes[kind, False] >= 50, outcomes


SIDE_HORIZON_MESSAGES = {
    "hechler": "hechler sides live on different horizons",
    "e": "e-condition families live on different horizons",
    "loc": "loc-condition families live on different horizons",
}


def test_side_horizon_mismatch_messages(rng):
    for kind, make, _ in _generators()[1:]:
        checked = 0
        while checked < 20:
            a, b = make(rng), make(rng)
            if a.side.horizon == b.side.horizon:
                continue
            with pytest.raises(HorizonMismatch) as want:
                ref_leq(kind, a, b)
            with pytest.raises(HorizonMismatch) as got:
                leq(kind, a, b)
            assert str(got.value) == str(want.value) == SIDE_HORIZON_MESSAGES[kind]
            checked += 1


# ---------------------------------------------------------------------------
# Splitting nodes and canonical enumeration


def oracle_splitting(tree, n):
    return BruteTree(tree).splitting(n)


def test_splitting_nodes_full_tree():
    t = full_binary(3)
    assert splitting_nodes(t, 0) == [()]
    assert splitting_nodes(t, 1) == [(0,), (1,)]
    assert splitting_nodes(t, 2) == sorted(
        [(0, 0), (0, 1), (1, 0), (1, 1)]
    )


def test_splitting_nodes_chain():
    chain = FiniteTree("sacks", frozenset({(), (1,), (1, 0)}))
    for n in range(4):
        assert splitting_nodes(chain, n) == []
    for t in SPACED_TREES[-3:]:
        assert not any(splitting_nodes(t, n) for n in range(t.depth + 2))


def test_splitting_nodes_across_non_splitting_steps():
    comb = SPACED_TREES[0]
    assert [splitting_nodes(comb, n) for n in range(4)] == [[()], [(0,) * 3], [(0,) * 6], []]
    assert splitting_nodes(SPACED_TREES[4], 0) == [(0,) * 11]


def test_splitting_nodes_match_oracle(rng):
    for _ in range(100):
        t = make_sacks(rng, depth=rng.randint(1, 5))
        for n in range(4):
            assert splitting_nodes(t, n) == oracle_splitting(t, n)


def test_canonical_enum_examples():
    two = FiniteTree("laver", frozenset({(), (0,), (1,)}))
    assert canonical_enum(two) == [(0,), (1,)]
    bare = FiniteTree("laver", frozenset({(), (3,), (3, 1)}))
    assert canonical_enum(bare) == []
    # numeric order within a length: (2,) before (10,)
    numeric = FiniteTree("laver", frozenset({(), (2,), (10,), (2, 10), (2, 3), (10, 0)}))
    assert canonical_enum(numeric) == [(2,), (10,), (2, 3), (2, 10), (10, 0)]


def test_canonical_enum_ancestors_first(rng):
    for _ in range(60):
        t = make_laver(rng)
        order = {node: i for i, node in enumerate(canonical_enum(t))}
        stem = BruteTree(t).stem()
        for node, i in order.items():
            for cut in range(len(stem) + 1, len(node)):
                assert order[node[:cut]] < i


# ---------------------------------------------------------------------------
# Fusion


def test_fusion_first_bit_example():
    p = full_binary(3)
    q_nodes = {node for node in p.nodes if not node or node[0] == 0}
    q = FiniteTree("sacks", frozenset(q_nodes))
    assert leq("sacks", q, p)
    assert not fusion_leq("sacks", q, p, 0)


def test_fusion_reflexive(rng):
    for _ in range(40):
        t = make_sacks(rng)
        for n in range(3):
            assert fusion_leq("sacks", t, t, n)
        tl = make_laver(rng)
        for n in range(3):
            assert fusion_leq("laver", tl, tl, n)
        prod = ProductCond(t, tl)
        for n in range(3):
            assert fusion_leq("product", prod, prod, n)


def test_fusion_nesting(rng):
    for kind, make in (("sacks", make_sacks), ("laver", make_laver)):
        for _ in range(120):
            p = make(rng)
            q = prune_tree(rng, p)
            for n in range(3):
                if fusion_leq(kind, q, p, n + 1):
                    assert fusion_leq(kind, q, p, n)
                if fusion_leq(kind, q, p, n):
                    assert leq(kind, q, p)


def test_fusion_product_componentwise(rng):
    for _ in range(60):
        ps, pl = make_sacks(rng), make_laver(rng)
        qs, ql = prune_tree(rng, ps), prune_tree(rng, pl)
        prod_p = ProductCond(ps, pl)
        prod_q = ProductCond(qs, ql)
        for n in range(3):
            expected = fusion_leq("sacks", qs, ps, n) and fusion_leq("laver", ql, pl, n)
            assert fusion_leq("product", prod_q, prod_p, n) == expected


# ---------------------------------------------------------------------------
# Oracle equivalence: the tree's child index and the tables derived from it
# against brute-force scans of the node set


class BruteTree:
    """A tree read through full scans of its node set: every child list
    comes from oracle_children, and the rest follows the definitions."""

    def __init__(self, tree):
        self.tree = tree
        self.kids = {node: oracle_children(tree, node) for node in tree.nodes}

    def leaves(self):
        return sorted(node for node, kids in self.kids.items() if not kids)

    def stem(self):
        stem = ()
        if stem in self.kids:
            while len(self.kids[stem]) == 1:
                stem = self.kids[stem][0]
        return stem

    def validate(self):
        t = self.tree
        if () not in t.nodes:
            return ["tree must contain the root"]
        out = []
        for node in sorted(t.nodes):
            if node and node[:-1] not in t.nodes:
                out.append(f"not prefix-closed at {list(node)}")
            if t.kind == "sacks" and any(v not in (0, 1) for v in node):
                out.append(f"binary alphabet violated at {list(node)}")
            if t.kind == "laver" and any(v < 0 for v in node):
                out.append(f"natural alphabet violated at {list(node)}")
        depth = max(len(node) for node in t.nodes)
        out += [
            f"leaf {list(leaf)} at depth {len(leaf)} != working depth {depth}"
            for leaf in self.leaves()
            if len(leaf) != depth
        ]
        return out

    def splitting(self, n):
        """Independent walk counting splitting predecessors along each path."""
        out = []

        def walk(node, count):
            kids = self.kids[node]
            splits = len(kids) >= 2
            if splits and count == n:
                out.append(node)
            for kid in kids:
                walk(kid, count + (1 if splits else 0))

        walk((), 0)
        return sorted(out)

    def canonical(self):
        stem = self.stem()
        above = [
            node
            for node in self.tree.nodes
            if len(node) > len(stem) and node[: len(stem)] == stem
        ]
        return sorted(above, key=lambda node: (len(node), node))


def oracle_fusion(kind, a, b, n):
    """The per-level definition of the tree fusion orders, on BruteTrees."""
    if not a.tree.nodes <= b.tree.nodes:
        return False
    if kind == "sacks":
        return all(set(a.splitting(i)) <= set(b.splitting(i)) for i in range(n + 1))
    return a.canonical()[: n + 1] == b.canonical()[: n + 1]


def as_laver(tree):
    return FiniteTree("laver", tree.nodes)


def sample_trees(rng):
    """Random sacks and laver trees, random subtrees of them, and the
    1,023-node full binary tree read as either kind."""
    big = full_binary(9)
    assert len(big.nodes) == 1023
    trees = [big, as_laver(big), prune_tree(rng, big), prune_tree(rng, as_laver(big))]
    for _ in range(40):
        s = make_sacks(rng, depth=rng.randint(1, 6))
        l = make_laver(rng, stem_len=rng.randint(0, 3), depth_above=rng.randint(1, 4))
        trees += [s, prune_tree(rng, s), l, prune_tree(rng, l)]
    return trees


# Where a fan-out count goes wrong by one: the root, whose [:-1] is itself,
# and nodes whose parent is missing.
EDGE_TREES = [
    FiniteTree(kind, nodes)
    for nodes in ({()}, set(), {(), (0,)}, {(), (0,), (0, 1), (0, 1, 1)}, {(0,)}, {(), (0, 0)})
    for kind in ("sacks", "laver")
]


def damage(rng, tree):
    """An invalid variant: some nodes dropped (breaking prefix closure or
    leaf depth) and some off-alphabet nodes added."""
    nodes = set(rng.sample(sorted(tree.nodes), max(1, len(tree.nodes) * 3 // 4)))
    bad = 2 if tree.kind == "sacks" else -1
    for _ in range(rng.randint(0, 3)):
        node = rng.choice(sorted(tree.nodes))
        nodes.add(node + (bad,))
    return FiniteTree(tree.kind, frozenset(nodes))


def test_tree_index_matches_oracle(rng):
    trees = [t for tree in sample_trees(rng) for t in (tree, damage(rng, tree))]
    for t in trees + EDGE_TREES:
        brute = BruteTree(t)
        for node, kids in brute.kids.items():
            assert t.children(node) == kids
        absent = [node + (7,) for node in sorted(t.nodes)[:5]] + [(0,) * 11]
        absent += {node[:-1] for node in t.nodes if node} - t.nodes
        for node in absent:
            assert t.children(node) == oracle_children(t, node)
        assert validate(t) == brute.validate()
        if validate(t):
            with pytest.raises(InvalidCondition):
                leq(t.kind, t, t)


DAMAGED_VIOLATIONS = """
import json, random
from cichon import FiniteTree, validate
from test_posets import damage, sample_trees
rng = random.Random(7)
for tree in sample_trees(rng):
    bad = damage(rng, tree)
    nodes = sorted(bad.nodes)
    shapes = (nodes, nodes[::-1], frozenset(nodes))
    print(json.dumps([validate(FiniteTree(bad.kind, s)) for s in shapes]))
"""


def test_tree_violations_independent_of_node_order():
    """The violations of a damaged tree, read off set differences of the
    child index, come in one order whatever the hash seed and however the
    nodes were given."""
    paths = [os.path.dirname(os.path.dirname(cichon.__file__)), os.path.dirname(__file__)]
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", DAMAGED_VIOLATIONS],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    rows = [json.loads(line) for line in outputs[0].splitlines()]
    assert len(rows) == 164
    assert all(row[0] == row[1] == row[2] for row in rows)
    assert sum(bool(row[0]) for row in rows) > 150


def test_tree_tables_match_oracle(rng):
    for t in sample_trees(rng) + EDGE_TREES + SPACED_TREES:
        brute = BruteTree(t)
        if brute.validate():
            with pytest.raises(InvalidCondition):
                splitting_nodes(t, 0) if t.kind == "sacks" else canonical_enum(t)
        elif t.kind == "sacks":
            for n in range(t.depth + 2):
                assert splitting_nodes(t, n) == brute.splitting(n)
        else:
            assert canonical_enum(t) == brute.canonical()


def test_fusion_matches_oracle(rng):
    trees = sample_trees(rng)
    pairs = [(t, prune_tree(rng, t)) for t in trees] + list(zip(trees, trees[1:]))
    pairs += [(t, prune_tree(rng, t)) for t in SPACED_TREES for _ in range(6)]
    for b, a in pairs:
        if a.kind != b.kind:
            continue
        ba, bb = BruteTree(a), BruteTree(b)
        for n in range(max(a.depth, b.depth) + 2):
            assert fusion_leq(a.kind, a, b, n) == oracle_fusion(a.kind, ba, bb, n)
            assert fusion_leq(a.kind, b, a, n) == oracle_fusion(a.kind, bb, ba, n)
    one_sided = 0
    for _ in range(30):
        ps, pl = make_sacks(rng), make_laver(rng)
        qs, ql = prune_tree(rng, ps), prune_tree(rng, pl)
        for n in range(6):
            expected = oracle_fusion("sacks", BruteTree(qs), BruteTree(ps), n) and (
                oracle_fusion("laver", BruteTree(ql), BruteTree(pl), n)
            )
            assert fusion_leq("product", ProductCond(qs, ql), ProductCond(ps, pl), n) == expected
        # components drawn independently, so that some pairs fail on one only
        for xs, xl in ((qs, make_laver(rng)), (make_sacks(rng), ql), (qs, ql)):
            q, p = ProductCond(xs, xl), ProductCond(ps, pl)
            below = (xs.nodes <= ps.nodes, xl.nodes <= pl.nodes)
            one_sided += below[0] != below[1]
            assert leq("product", q, p) == all(below)
            expected = oracle_fusion("sacks", BruteTree(xs), BruteTree(ps), 0) and (
                oracle_fusion("laver", BruteTree(xl), BruteTree(pl), 0)
            )
            assert fusion_leq("product", q, p, 0) == expected
    assert one_sided >= 20


def last_level(kind, a, b):
    """The fusion index past which the order stops changing: the depth for
    sacks (splitting levels past it are empty), the node count for laver
    (the canonical enumeration is shorter)."""
    if kind == "product":
        return max(last_level("sacks", a.sacks_part, b.sacks_part),
                   last_level("laver", a.laver_part, b.laver_part))
    if kind == "sacks":
        return max(a.depth, b.depth)
    return max(len(a.nodes), len(b.nodes))


def test_fusion_index_past_last_level(rng):
    for kind, make in (("sacks", make_sacks), ("laver", make_laver)):
        for _ in range(60):
            b = make(rng)
            a = prune_tree(rng, b)
            for x, y in ((a, b), (b, b), (b, a)):
                last = last_level(kind, x, y)
                expected = fusion_leq(kind, x, y, last)
                for n in (last + 1, last + 2, last + 7, 10**20):
                    assert fusion_leq(kind, x, y, n) == expected
    for _ in range(30):
        p = ProductCond(make_sacks(rng), make_laver(rng))
        q = ProductCond(prune_tree(rng, p.sacks_part), prune_tree(rng, p.laver_part))
        last = last_level("product", q, p)
        for n in (last + 1, 10**20):
            assert fusion_leq("product", q, p, n) == fusion_leq("product", q, p, last)


def test_laver_fusion_counts_canonical_nodes():
    """Laver fusion indices count canonical nodes, not levels, so an index
    past the depth can still tell two trees apart."""
    b = as_laver(full_binary(2))
    a = FiniteTree("laver", b.nodes - {(1, 1)})
    assert fusion_leq("laver", a, b, b.depth)
    assert not fusion_leq("laver", a, b, len(b.nodes))


# ---------------------------------------------------------------------------
# JSON codec


def test_condition_json_round_trip(rng):
    conditions = [
        make_cohen(rng),
        make_hechler(rng),
        make_e(rng),
        make_loc(rng),
        make_sacks(rng),
        make_laver(rng),
        ProductCond(make_sacks(rng), make_laver(rng)),
    ]
    for cond in conditions:
        assert condition_from_obj(condition_to_obj(cond)) == cond


def test_condition_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        condition_from_obj({"kind": "mystery"})


@pytest.mark.parametrize("cls", [CohenCond, HechlerCond, ECond, LocCond], ids=lambda c: c.__name__)
def test_stem_field_table_names_the_init_fields_in_order(cls):
    """The one table the field check and the codec read is the class body's."""
    init_fields = [f.name for f in dataclasses.fields(cls) if f.init]
    assert list(cls._FIELDS) == init_fields
