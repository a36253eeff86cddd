"""Constructive witnesses: frozen examples plus the inclusion analogues
and the two block-construction laws, checked by brute force."""

import itertools

import pytest

from cichon import (
    BlockPartition,
    BlockSlalom,
    Family,
    FinFunc,
    Slalom,
    WidthProfile,
    block_encode,
    block_partition,
    family_dominator,
    family_slalom,
    hit_count,
    least_avoider,
    least_threshold,
    round_robin_ioe,
    singleton_slalom,
    slalom_dominator,
    sum_evader_bound,
    weave,
)
from cichon.combinatorics import MAX_VALUES
from cichon.errors import (
    EmptyFamily,
    HorizonTooShort,
    MalformedInput,
    ShapeMismatch,
    ZeroWidth,
)
from conftest import make_family, make_finfunc, make_slalom


def S(*cells):
    return Slalom(
        tuple(frozenset(c) for c in cells),
        WidthProfile(tuple(len(c) for c in cells)),
    )


# ---------------------------------------------------------------------------
# Pointwise witnesses


def test_slalom_dominator_examples():
    assert slalom_dominator(S({1, 2, 9})).values == (9,)
    assert slalom_dominator(S(set())).values == (0,)
    assert slalom_dominator(S(set(), {1}, {0, 4})).values == (0, 1, 4)


def test_sum_evader_bound_examples():
    assert sum_evader_bound(S({1, 2, 9})).values == (13,)
    assert sum_evader_bound(S(set())).values == (1,)


def test_sum_bound_avoids(rng):
    for _ in range(200):
        sigma = make_slalom(rng, rng.randint(0, 10), max_value=40)
        bound = sum_evader_bound(sigma)
        for n in range(sigma.horizon):
            assert bound[n] not in sigma[n]


def test_family_dominator_examples():
    assert family_dominator(Family((FinFunc((1, 2)), FinFunc((3, 0))), 2)).values == (4, 3)
    assert family_dominator(Family((), 2)).values == (1, 1)
    assert family_dominator(Family((FinFunc((0, 0)),), 2)).values == (1, 1)


def test_family_dominator_threshold_zero(rng):
    for _ in range(100):
        fam = make_family(rng, rng.randint(0, 8), rng.randint(0, 4), 32)
        d = family_dominator(fam)
        for f in fam:
            assert least_threshold("leq", f, d).threshold == 0


def test_round_robin_examples():
    fam = Family((FinFunc((5, 5, 5, 5)), FinFunc((7, 7, 7, 7))), 4)
    assert round_robin_ioe(fam).values == (5, 7, 5, 7)
    single = Family((FinFunc((1, 2, 3)),), 3)
    assert round_robin_ioe(single) == single.functions[0]
    fam2 = Family((FinFunc((1, 2)), FinFunc((3, 4))), 2)
    g = round_robin_ioe(fam2)
    assert g.values == (1, 4)
    assert [hit_count("eq", g, f) for f in fam2] == [1, 1]


def test_round_robin_empty_family():
    with pytest.raises(EmptyFamily):
        round_robin_ioe(Family((), 3))


def test_round_robin_hit_floor(rng):
    for _ in range(100):
        fam = make_family(rng, rng.randint(1, 12), rng.randint(1, 4), 8)
        g = round_robin_ioe(fam)
        floor = fam.horizon // len(fam)
        for f in fam:
            assert hit_count("eq", g, f) >= floor


def test_least_avoider(rng):
    fam = Family((FinFunc((0, 1)), FinFunc((1, 1))), 2)
    assert least_avoider(fam).values == (2, 0)
    for _ in range(50):
        random_fam = make_family(rng, rng.randint(0, 8), rng.randint(0, 4), 8)
        g = least_avoider(random_fam)
        for f in random_fam:
            assert hit_count("eq", g, f) == 0
        assert all(v <= len(random_fam) for v in g.values)


def test_singleton_slalom():
    sigma = singleton_slalom(FinFunc((2, 4)))
    assert sigma.cells == (frozenset({2}), frozenset({4}))
    assert sigma.width.widths == (1, 1)
    assert singleton_slalom(FinFunc((0,))).cells == (frozenset({0}),)
    g = FinFunc((3, 1, 4))
    assert slalom_dominator(singleton_slalom(g)) == g


def test_family_slalom_example():
    fam = Family((FinFunc((1, 1, 1)), FinFunc((2, 2, 2))), 3)
    sigma, thresholds = family_slalom(fam)
    assert [sorted(c) for c in sigma.cells] == [[], [1], [1, 2]]
    assert thresholds == (1, 2)


def test_family_slalom_empty():
    sigma, thresholds = family_slalom(Family((), 3))
    assert all(not c for c in sigma.cells)
    assert thresholds == ()


def test_family_slalom_width_and_capture(rng):
    for _ in range(100):
        fam = make_family(rng, rng.randint(0, 10), rng.randint(0, 5), 16)
        sigma, thresholds = family_slalom(fam)
        for n in range(sigma.horizon):
            assert len(sigma[n]) <= n
        for i, f in enumerate(fam):
            assert thresholds[i] <= min(i + 1, fam.horizon)
            for n in range(min(i + 1, fam.horizon), fam.horizon):
                assert f[n] in sigma[n]


def test_family_witnesses_match_definitions(rng):
    """The column-wise witnesses against their per-position definitions, on
    the empty family, horizon 0, random families (round robin needs a
    member), one-member families, families whose every column holds
    0..|F| - 1 (so the avoider reaches |F|), families with an all-zero
    member (every column holds 0), families with no 0 in any column,
    one-member all-zero families and one 200 x 200 family."""
    shapes = [(0, 0), (0, 3), (6, 0)] + [
        (rng.randint(0, 10), rng.randint(0, 5)) for _ in range(200)
    ]
    families = [make_family(rng, horizon, count, 6) for horizon, count in shapes]
    families += [make_family(rng, rng.randint(0, 10), 1, 6) for _ in range(20)]
    families += [
        Family(tuple(FinFunc(tuple((i + n) % count for n in range(7))) for i in range(count)), 7)
        for count in range(1, 6)
    ]
    for _ in range(30):
        horizon, count = rng.randint(0, 10), rng.randint(0, 5)
        zero = FinFunc((0,) * horizon)
        families.append(Family(make_family(rng, horizon, count, 6).functions + (zero,), horizon))
        no_zero = (FinFunc(tuple(rng.randint(1, 6) for _ in range(horizon))) for _ in range(count))
        families.append(Family(tuple(no_zero), horizon))
    families += [Family((FinFunc((0,) * horizon),), horizon) for horizon in range(6)]
    families.append(make_family(rng, 200, 200, 200))
    for fam in families:
        members, horizon, count = fam.functions, fam.horizon, len(fam)
        positions = range(horizon)
        dominator = tuple(1 + max([f[n] for f in members], default=0) for n in positions)
        avoider = tuple(
            next(v for v in itertools.count() if all(f[n] != v for f in members))
            for n in positions
        )
        cells = tuple(
            frozenset(members[i][n] for i in range(min(n, count))) for n in positions
        )
        assert family_dominator(fam).values == dominator
        assert least_avoider(fam).values == avoider
        sigma, thresholds = family_slalom(fam)
        assert sigma.cells == cells
        assert thresholds == tuple(
            min(k for k in range(horizon + 1) if all(f[l] in cells[l] for l in range(k, horizon)))
            for f in members
        )
        assert sum_evader_bound(sigma).values == tuple(1 + sum(cells[n]) for n in positions)
        if count:
            robin = tuple(members[n % count][n] for n in positions)
            assert round_robin_ioe(fam).values == robin


# ---------------------------------------------------------------------------
# Inclusion analogues


def test_dominator_threshold_inclusion(rng):
    for _ in range(200):
        horizon = rng.randint(0, 12)
        sigma = make_slalom(rng, horizon, 32)
        f = make_finfunc(rng, horizon, 32)
        z = slalom_dominator(sigma)
        assert (
            least_threshold("leq", f, z).threshold
            <= least_threshold("in", f, sigma).threshold
        )
        # tight: z(n) is a member of a nonempty sigma(n), and 0 where it is empty
        assert all(z[n] in sigma[n] if sigma[n] else z[n] == 0 for n in range(horizon))


def test_successor_trick(rng):
    for _ in range(200):
        horizon = rng.randint(0, 12)
        f = make_finfunc(rng, horizon, 32)
        g = make_finfunc(rng, horizon, 32)
        assert (
            least_threshold("neq", f, g).threshold
            <= least_threshold("leq", f.successor(), g).threshold
        )


def test_domination_kills_successor_hits(rng):
    for _ in range(200):
        horizon = rng.randint(0, 12)
        f = make_finfunc(rng, horizon, 32)
        g = make_finfunc(rng, horizon, 32)
        k = least_threshold("leq", f, g).threshold
        succ = g.successor()
        assert all(f[l] != succ[l] for l in range(k, horizon))


# ---------------------------------------------------------------------------
# Block machinery


def test_block_partition_example():
    p = block_partition(WidthProfile((1, 2, 3)), 3)
    listed = BlockPartition([list(block) for block in p.cells], p.width)
    assert listed == p and hash(listed) == hash(p)
    assert p.cells[0] == (frozenset({0}),)
    assert p.cells[1] == (frozenset({1}), frozenset({2}))
    assert p.cells[2] == (frozenset({3}), frozenset({4}), frozenset({5}))
    assert p.covered_horizon == 6


def test_block_partition_single():
    p = block_partition(WidthProfile((1,)), 1)
    assert p.cells == ((frozenset({0}),),)
    assert block_partition(WidthProfile((1,)), 0).covered_horizon == 0
    # a hand-built partition may reach, not pass, MAX_VALUES positions
    last = BlockPartition(((frozenset(range(MAX_VALUES)),),), WidthProfile((1,)))
    assert last.covered_horizon == MAX_VALUES


@pytest.mark.parametrize(
    "cells, width, horizon",
    [
        # weave would keep only the last member's value at position 0
        (((frozenset({0}), frozenset({0})),), (2,), 1),
        # as many positions as the horizon, one repeated and one missing
        (((frozenset({0}), frozenset({0, 2})),), (2,), 3),
        (((frozenset({0}), frozenset()),), (2,), 1),
        # weave would read position 0 as 0
        (((frozenset({1}),),), (1,), 2),
        (((frozenset({0}),), (frozenset({3}),)), (1, 1), 4),
    ],
    ids=["overlapping", "overlapping-and-uncovered", "empty-cell", "uncovered-0", "uncovered-gap"],
)
def test_block_partition_refuses_cells_that_do_not_partition(cells, width, horizon):
    message = f"block partition cells must be nonempty, disjoint and cover [0, {horizon})"
    with pytest.raises(MalformedInput) as refusal:
        BlockPartition(cells, WidthProfile(width))
    assert str(refusal.value) == message


def test_block_partition_zero_width():
    with pytest.raises(ZeroWidth, match=r"^h\(1\) = 0; blocks need width >= 1$"):
        block_partition(WidthProfile((1, 0)), 2)


def test_block_partition_intervals():
    p = block_partition(WidthProfile((2, 1)), 2, cell_size=3)
    assert p.cells[0] == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert p.cells[1] == (frozenset({6, 7, 8}),)
    assert p.covered_horizon == 9


def test_block_encode():
    p = block_partition(WidthProfile((1, 2, 3)), 3)
    f = FinFunc((9, 8, 7, 6, 5, 4))
    encoded = block_encode(f, p)
    assert encoded[1] == {1: 8, 2: 7}
    assert encoded[0] == {0: 9}
    glued = {}
    for entry in encoded:
        glued.update(entry)
    assert [glued[x] for x in range(p.covered_horizon)] == list(f.values)


def test_block_encode_short_horizon():
    p = block_partition(WidthProfile((1, 2)), 2)
    with pytest.raises(HorizonTooShort):
        block_encode(FinFunc((1, 2)), p)


def test_weave_example():
    width = WidthProfile((1, 2))
    p = block_partition(width, 2)
    sigma = BlockSlalom(
        (
            ({0: 5},),
            ({1: 8, 2: 7}, {1: 3, 2: 2}),
        ),
        width,
    )
    g = weave(sigma, p)
    assert g[1] == 8
    assert g[2] == 2


def test_weave_pads_with_zero():
    width = WidthProfile((2,))
    p = block_partition(width, 1)
    sigma = BlockSlalom(((),), width)
    assert weave(sigma, p).values == (0, 0)


def test_weave_matches_definition(rng):
    """For x in J_{n,k}, g(x) = entry[k][x] if the block entry has a k-th
    member and 0 otherwise, on partially filled blocks too."""
    for _ in range(300):
        blocks = rng.randint(1, 4)
        width = WidthProfile(tuple(rng.randint(1, 3) for _ in range(blocks)))
        p = block_partition(width, blocks, cell_size=rng.randint(1, 2))
        entries = tuple(
            tuple(
                {x: rng.randint(1, 9) for x in p.block(n)}
                for _ in range(rng.randint(0, width[n]))
            )
            for n in range(blocks)
        )
        g = weave(BlockSlalom(entries, width), p)
        expected = {}
        for n, cells in enumerate(p.cells):
            for k, cell in enumerate(cells):
                for x in cell:
                    expected[x] = entries[n][k][x] if k < len(entries[n]) else 0
        assert g.values == tuple(expected[x] for x in range(p.covered_horizon))


def test_weave_shape_errors():
    width = WidthProfile((1,))
    p = block_partition(width, 1)
    over = BlockSlalom((({0: 1}, {0: 2}),), width)
    with pytest.raises(ShapeMismatch):
        weave(over, p)
    bad_domain = BlockSlalom((({5: 1},),), width)
    with pytest.raises(ShapeMismatch):
        weave(bad_domain, p)


def weave_agreement_holds(f, sigma, partition):
    """The weave-agreement law: a block entry equal to f's restriction
    forces agreement inside the matching cell."""
    g = weave(sigma, partition)
    encoded = block_encode(f, partition)
    for n in range(partition.block_count):
        block_positions = sorted(partition.block(n))
        zero = {x: 0 for x in block_positions}
        entry = list(sigma[n]) + [zero] * (partition.width[n] - len(sigma[n]))
        for k, member in enumerate(entry):
            if member == encoded[n]:
                cell = partition.cells[n][k]
                if not any(g[x] == f[x] for x in cell):
                    return False
    return True


def test_weave_agreement_planted(rng):
    """Dedicated run with planted matches so the hypothesis is exercised."""
    for _ in range(200):
        blocks = rng.randint(1, 4)
        width = WidthProfile(tuple(rng.randint(1, 3) for _ in range(blocks)))
        p = block_partition(width, blocks, cell_size=rng.randint(1, 2))
        f = make_finfunc(rng, p.covered_horizon, 8)
        entries = []
        matched = False
        for n in range(blocks):
            block_positions = sorted(p.block(n))
            members = []
            for _ in range(rng.randint(0, width[n])):
                if rng.random() < 0.5:
                    members.append({x: f[x] for x in block_positions})
                    matched = True
                else:
                    members.append({x: rng.randrange(8) for x in block_positions})
            entries.append(tuple(members))
        sigma = BlockSlalom(tuple(entries), width)
        assert weave_agreement_holds(f, sigma, p)
    assert matched

