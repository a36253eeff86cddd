"""Constructive witnesses: frozen examples plus the inclusion analogues,
and the blocks that follow from a width profile with the weave law,
checked by brute force."""

import itertools

import pytest

from cichon import (
    BlockSlalom,
    Family,
    FinFunc,
    Slalom,
    WidthProfile,
    block_encode,
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
from cichon.errors import EmptyFamily, HorizonTooShort, MalformedInput, ShapeMismatch
from conftest import make_family, make_finfunc, make_slalom, make_width


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


def test_block_encode():
    """J_n is the h(n) positions after J_{n-1}; a zero width is an empty block."""
    f = FinFunc((9, 8, 7, 6, 5, 4))
    assert block_encode(f, WidthProfile((1, 2, 3))) == ((9,), (8, 7), (6, 5, 4))
    assert block_encode(f, WidthProfile((0, 2, 0, 1))) == ((), (9, 8), (), (7,))
    assert block_encode(f, WidthProfile(())) == ()
    encoded = block_encode(f, WidthProfile((2, 1, 3)))
    assert tuple(v for code in encoded for v in code) == f.values


def test_block_encode_short_horizon():
    with pytest.raises(HorizonTooShort, match=r"^horizon 2 < 3 block positions$"):
        block_encode(FinFunc((1, 2)), WidthProfile((1, 2)))


def test_zero_width_block_is_empty():
    """A block of width 0 encodes as (), holds no code and weaves nothing."""
    width = WidthProfile((1, 0, 1))
    assert block_encode(FinFunc((4, 6)), width) == ((4,), (), (6,))
    assert weave(BlockSlalom((((5,),), (), ((7,),)), width)).values == (5, 7)
    assert weave(BlockSlalom(((),), WidthProfile((0,)))).values == ()
    with pytest.raises(ShapeMismatch, match=r"^block 0 has 1 codes, width is 0$"):
        BlockSlalom((((),),), WidthProfile((0,)))


def test_blocks_reach_but_do_not_pass_max_values():
    width = WidthProfile((MAX_VALUES - 1, 1))
    f = FinFunc((0,) * (MAX_VALUES + 1))
    assert tuple(map(len, block_encode(f, width))) == (MAX_VALUES - 1, 1)
    assert weave(BlockSlalom(((), ()), width)).horizon == MAX_VALUES
    over = WidthProfile((MAX_VALUES, 1))
    with pytest.raises(MalformedInput, match=r"^block encode width needs 1000001 positions, over 1000000$"):
        block_encode(f, over)
    with pytest.raises(MalformedInput, match=r"^block slalom width needs 1000001 positions, over 1000000$"):
        BlockSlalom(((), ()), over)


def test_block_slalom_stores_tuples():
    """Entries from any iterable, and codes given as lists, are stored as
    tuples, so equal slaloms compare and hash alike; code values are naturals."""
    width = WidthProfile((1, 2))
    listed = BlockSlalom([[[5]], [[8, 7], [3, 2]]], width)
    assert listed == BlockSlalom(iter((((5,),), ((8, 7), (3, 2)))), width)
    assert hash(listed) == hash(BlockSlalom((((5,),), ((8, 7), (3, 2))), width))
    assert listed.entries[1] == ((8, 7), (3, 2))
    with pytest.raises(MalformedInput, match=r"^block slalom codes must be natural numbers, got -1$"):
        BlockSlalom((((-1,),), ()), width)


def test_weave_example():
    """The diagonal: the k-th code of entry n gives the k-th position of J_n."""
    sigma = BlockSlalom((((5,),), ((8, 7), (3, 2))), WidthProfile((1, 2)))
    assert weave(sigma) == FinFunc((5, 8, 2))


def test_weave_pads_with_zero():
    width = WidthProfile((2,))
    assert weave(BlockSlalom(((),), width)).values == (0, 0)
    assert weave(BlockSlalom((((4, 5),),), width)).values == (4, 0)


def test_weave_matches_definition(rng):
    """At the k-th position of J_n, g is entry n's k-th code there if the
    entry has a k-th code and 0 otherwise, on partially filled blocks too."""
    for _ in range(300):
        width = make_width(rng, rng.randint(1, 4), 3)
        entries = tuple(
            tuple(tuple(rng.randint(1, 9) for _ in range(h)) for _ in range(rng.randint(0, h)))
            for h in width.widths
        )
        expected = [
            entry[k][k] if k < len(entry) else 0
            for h, entry in zip(width.widths, entries)
            for k in range(h)
        ]
        assert weave(BlockSlalom(entries, width)).values == tuple(expected)


def test_weave_shape_errors():
    """A block slalom that weave could not read is refused when it is built."""
    width = WidthProfile((1, 2))
    with pytest.raises(ShapeMismatch, match=r"^block 0 has 2 codes, width is 1$"):
        BlockSlalom((((1,), (2,)), ()), width)
    with pytest.raises(ShapeMismatch, match=r"^block 1 has a code of 1 values, width is 2$"):
        BlockSlalom(((), ((1, 2), (3,))), width)
    with pytest.raises(ShapeMismatch, match=r"^1 entries for 2 blocks$"):
        BlockSlalom(((),), width)
    with pytest.raises(ShapeMismatch, match=r"^3 entries for 2 blocks$"):
        BlockSlalom(((), (), ()), width)


def weave_agreement_holds(f, sigma):
    """The weave-agreement law: code k of entry n equal to f on J_n, the
    missing codes counted as constant 0, forces g = f at J_n's k-th position."""
    g = weave(sigma)
    start = 0
    for h, entry, own in zip(sigma.width.widths, sigma.entries, block_encode(f, sigma.width)):
        for k, code in enumerate(entry + ((0,) * h,) * (h - len(entry))):
            if code == own and g[start + k] != f[start + k]:
                return False
        start += h
    return True


def test_weave_agreement_planted(rng):
    """Dedicated run with planted matches so the hypothesis is exercised."""
    matched = False
    for _ in range(200):
        width = make_width(rng, rng.randint(1, 4), 3)
        f = make_finfunc(rng, sum(width.widths), 8)
        entries = []
        for own in block_encode(f, width):
            planted = [rng.random() < 0.5 for _ in range(rng.randint(0, len(own)))]
            matched = matched or any(planted)
            entries.append(tuple(own if p else tuple(rng.randrange(8) for _ in own) for p in planted))
        assert weave_agreement_holds(f, BlockSlalom(entries, width))
    assert matched
