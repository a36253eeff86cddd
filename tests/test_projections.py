"""Projection formulas, lift laws, and the repair step."""

from collections import Counter

import pytest

from cichon import (
    ECond,
    Family,
    FinFunc,
    HechlerCond,
    LocCond,
    Slalom,
    leq,
    lift_loc_to_d,
    lift_loc_to_e,
    proj_loc_to_d,
    proj_loc_to_e,
    reduce_e,
    slalom_dominator,
    validate,
)
from cichon.errors import (
    CichonError,
    FamilyTooLarge,
    HorizonMismatch,
    InvalidCondition,
    NotBelowProjection,
    RankTooLarge,
)
from cichon.posets import condition_from_obj, condition_to_obj
from conftest import make_liftable_d, make_liftable_e
from test_posets import ref_leq


def loc(cells, functions, horizon):
    return LocCond(
        Slalom.identity_width([frozenset(c) for c in cells]),
        Family(tuple(FinFunc(tuple(f)) for f in functions), horizon),
    )


# ---------------------------------------------------------------------------
# loc -> hechler


def test_proj_d_example():
    c = loc([[], [3], [1, 4]], [[1, 1, 1], [0, 2, 3]], 3)
    projected = proj_loc_to_d(c)
    assert projected.stem.values == (0, 3, 4)
    assert projected.side.values == (1, 2, 3)


def test_proj_d_empty_family():
    c = loc([[], [5]], [], 3)
    assert proj_loc_to_d(c).side.values == (0, 0, 0)
    # the stem is the prefix's cell maximum, 0 for the empty cell
    c = loc([[], [0], [0, 1]], [], 3)
    assert proj_loc_to_d(c).stem == slalom_dominator(c.prefix)
    assert slalom_dominator(c.prefix).values == (0, 0, 1)


def test_proj_d_top_to_top():
    top = loc([], [], 3)
    projected = proj_loc_to_d(top)
    assert projected.stem.horizon == 0
    assert projected.side.values == (0, 0, 0)


def test_lift_d_worked_example():
    c = loc([[], [2]], [[1, 1, 1, 1]], 4)
    q = HechlerCond(FinFunc((0, 2, 9, 9)), FinFunc((2, 2, 9, 9)))
    lifted = lift_loc_to_d(c, q)
    assert [sorted(cell) for cell in lifted.prefix.cells] == [[], [2], [1, 9], [1, 9]]
    assert [f.values for f in lifted.side] == [(1, 1, 1, 1), (2, 2, 9, 9)]
    reproj = proj_loc_to_d(lifted)
    assert reproj.stem == q.stem and reproj.side == q.side
    assert leq("loc", lifted, c)


def test_lift_d_no_new_positions():
    c = loc([[], [2]], [[1, 1, 1, 1]], 4)
    q = proj_loc_to_d(c)
    bumped = HechlerCond(q.stem, FinFunc(tuple(v + 1 for v in q.side.values)))
    lifted = lift_loc_to_d(c, bumped)
    assert lifted.prefix == c.prefix
    assert len(lifted.side) == len(c.side) + 1


def test_lift_d_growth_boundary():
    """A new stem value may sit as low as the family values there: the new
    cell holds only those values and the stem value, so stem(3) = 1 below
    3 - 1 lifts to the one-member cell {1}."""
    c = loc([[], [2]], [[1, 1, 1, 1]], 4)
    q = HechlerCond(FinFunc((0, 2, 9, 1)), FinFunc((2, 2, 9, 9)))
    lifted = lift_loc_to_d(c, q)
    assert [sorted(cell) for cell in lifted.prefix.cells] == [[], [2], [1, 9], [1]]
    assert validate(lifted) == [] and leq("loc", lifted, c)
    assert proj_loc_to_d(lifted) == q


def test_lift_d_side_too_small():
    """A side equal to the family max lifts; one below it at any position
    does not strengthen the projection."""
    c = loc([[], [2]], [[1, 1, 1, 1]], 4)
    q = HechlerCond(FinFunc((0, 2, 9, 9)), FinFunc((1, 1, 1, 1)))
    assert proj_loc_to_d(lift_loc_to_d(c, q)).side == q.side
    q = HechlerCond(FinFunc((0, 2, 9, 9)), FinFunc((1, 1, 1, 0)))
    with pytest.raises(NotBelowProjection):
        lift_loc_to_d(c, q)


def test_lift_d_family_too_large():
    c = loc([[], [2]], [[1, 1, 1, 1], [0, 0, 0, 0]], 4)
    q = HechlerCond(FinFunc((0, 2, 9, 9)), FinFunc((2, 2, 9, 9)))
    with pytest.raises(FamilyTooLarge):
        lift_loc_to_d(c, q)


def test_lift_d_not_below():
    c = loc([[], [2]], [[1, 1, 1, 1]], 4)
    q = HechlerCond(FinFunc((1, 2, 9, 9)), FinFunc((2, 2, 9, 9)))
    with pytest.raises(NotBelowProjection):
        lift_loc_to_d(c, q)


def lifted_d_cell(c, q, n):
    """The loc-d lift's cell at new position n, as documented: the family
    values and q.stem(n), nothing more."""
    return frozenset({f[n] for f in c.side} | {q.stem[n]})


def test_lift_d_randomized_laws(rng):
    for _ in range(300):
        c, q = make_liftable_d(rng)
        lifted = lift_loc_to_d(c, q)
        assert validate(lifted) == []
        assert leq("loc", lifted, c)
        reproj = proj_loc_to_d(lifted)
        assert reproj.stem == q.stem and reproj.side == q.side
        new = range(c.prefix.horizon, q.stem.horizon)
        assert lifted.prefix.cells == c.prefix.cells + tuple(lifted_d_cell(c, q, n) for n in new)


def long_lift_pair(n):
    """A one-cell prefix with no side family, and the loc-d target with
    stem horizon n and stem(m) = m - 1 at every new position m."""
    c = loc([[]], [], n)
    return c, HechlerCond(FinFunc((0,) + tuple(range(n - 1))), FinFunc((0,) * n))


def test_lift_size_bound():
    """A lift's new cells hold only values read from its input, one per
    new position when the family is empty, so it needs no bound of its own:
    the targets of 1,415 positions lift with 1,414 new members."""
    c, q = long_lift_pair(1415)
    lifted = lift_loc_to_d(c, q)
    assert sum(map(len, lifted.prefix.cells)) == 1414
    assert proj_loc_to_d(lifted) == q
    q = ECond(FinFunc((0,) * 1415), Family((), 1415))
    lifted = lift_loc_to_e(c, q)
    assert lifted.prefix.cells[1:] == tuple(frozenset({n}) for n in range(1, 1415))
    assert proj_loc_to_e(lifted) == q


# ---------------------------------------------------------------------------
# loc -> e


def test_proj_e_example():
    c = loc([[], [0], [1, 4]], [], 3)
    assert proj_loc_to_e(c).stem.values == (0, 1, 2)


def test_proj_e_all_empty_prefix():
    c = loc([[], [], []], [], 3)
    assert proj_loc_to_e(c).stem.values == (0, 0, 0)


def test_proj_e_top_to_top():
    top = loc([], [], 3)
    projected = proj_loc_to_e(top)
    assert projected.stem.horizon == 0
    assert len(projected.side) == 0


def test_lift_e_worked_example():
    c = loc([[], [0]], [], 4)
    q = ECond(FinFunc((0, 1, 0, 1)), Family((FinFunc((7, 7, 7, 7)),), 4))
    lifted = lift_loc_to_e(c, q)
    assert [sorted(cell) for cell in lifted.prefix.cells] == [[], [0], [7, 9], [7, 9]]
    assert lifted.side == q.side
    assert proj_loc_to_e(lifted).stem == q.stem
    assert leq("loc", lifted, c)


def test_lift_e_no_new_positions():
    c = loc([[], [0]], [], 4)
    q = proj_loc_to_e(c)
    lifted = lift_loc_to_e(c, q)
    assert lifted.prefix == c.prefix
    assert lifted.side == q.side


def test_lift_e_rank_too_large():
    c = loc([[], [0]], [], 4)
    q = ECond(FinFunc((0, 1, 2)), Family((), 4))
    with pytest.raises(RankTooLarge):
        lift_loc_to_e(c, q)


def test_lift_e_rank_regression_n1():
    """Documented gap: at position 1 the residue encodes only rank 0, so a
    rank-3 stem value cannot be lifted."""
    c = loc([[]], [], 4)
    q = ECond(FinFunc((0, 3)), Family((), 4))
    with pytest.raises(RankTooLarge):
        lift_loc_to_e(c, q)


def test_lift_e_family_too_large():
    c = loc([[], [0]], [], 4)
    q = ECond(
        FinFunc((0, 1, 5)),
        Family((FinFunc((9, 9, 9, 9)), FinFunc((8, 8, 8, 8))), 4),
    )
    with pytest.raises(FamilyTooLarge, match=r"^\|side\| = 2 must be < new position 2$"):
        lift_loc_to_e(c, q)


def test_lift_e_family_too_large_without_new_positions():
    """With no new position the side may hold up to |s| members, one more
    is refused."""
    c = loc([[], [0]], [], 4)
    members = [FinFunc((v,) * 4) for v in (7, 8, 9)]
    q = ECond(FinFunc((0, 1)), Family(tuple(members[:2]), 4))
    assert lift_loc_to_e(c, q) == LocCond(c.prefix, q.side)
    q = ECond(FinFunc((0, 1)), Family(tuple(members), 4))
    with pytest.raises(FamilyTooLarge, match=r"^\|side\| = 3 must be <= \|s\| = 2$"):
        lift_loc_to_e(c, q)


def test_lift_e_not_below():
    c = loc([[], [0]], [], 4)
    q = ECond(FinFunc((1, 1, 0)), Family((), 4))
    with pytest.raises(NotBelowProjection):
        lift_loc_to_e(c, q)


def lifted_e_cell(q, n):
    """The loc-e lift's cell at new position n, as documented: the side
    values and the least value above max(stem value, side values) that
    brings the cell sum to the stem value's avoidance rank mod n."""
    side = {f[n] for f in q.side}
    rank = sum(v not in side for v in range(q.stem[n]))
    bound = max(side | {q.stem[n]})
    first = next(v for v in range(bound + 1, bound + 1 + n) if (sum(side) + v) % n == rank % n)
    return frozenset(side | {first})


def test_lift_e_randomized_laws(rng):
    for _ in range(300):
        c, q = make_liftable_e(rng)
        lifted = lift_loc_to_e(c, q)
        assert validate(lifted) == []
        assert leq("loc", lifted, c)
        reproj = proj_loc_to_e(lifted)
        assert reproj.stem.values[: q.stem.horizon] == q.stem.values
        new = range(c.prefix.horizon, q.stem.horizon)
        assert lifted.prefix.cells == c.prefix.cells + tuple(lifted_e_cell(q, n) for n in new)


# ---------------------------------------------------------------------------
# Lift preconditions against a brute-force oracle


def test_lift_target_on_another_working_horizon():
    """The order against the projection refuses a target whose side lives
    on another horizon; in the loc-d lift, |F| < |s| is checked first."""
    c = loc([[], [0]], [], 4)
    with pytest.raises(HorizonMismatch, match="^hechler sides live on different horizons$"):
        lift_loc_to_d(c, HechlerCond(FinFunc((0, 0)), FinFunc((0,) * 5)))
    with pytest.raises(HorizonMismatch, match="^e-condition families live on different"):
        lift_loc_to_e(c, ECond(FinFunc((0, 1)), Family((), 5)))
    full = loc([[], [0]], [[0] * 4, [1] * 4], 4)
    with pytest.raises(FamilyTooLarge):
        lift_loc_to_d(full, HechlerCond(FinFunc((0, 0)), FinFunc((1,) * 5)))


def brute_proj_d(c):
    """The loc-d projection, written out on its own."""
    fam = c.side
    stem = [max(cell, default=0) for cell in c.prefix.cells]
    side = [max((f[n] for f in fam), default=0) for n in range(fam.horizon)]
    return HechlerCond(FinFunc(tuple(stem)), FinFunc(tuple(side)))


def brute_proj_e(c):
    """The loc-e projection, written out on its own."""
    stem = [0]
    for n, cell in enumerate(c.prefix.cells[1:], 1):
        outside = [v for v in range(max(cell, default=0) + n + 1) if v not in cell]
        stem.append(outside[sum(cell) % n])
    return ECond(FinFunc(tuple(stem[: c.prefix.horizon])), c.side)


def guard_refusal(c, q):
    """What both lifts check first: InvalidCondition if c or q breaks a
    validity clause."""
    s, fam = c.prefix, c.side
    loc_valid = all(len(s[n]) <= n for n in range(s.horizon)) and len(fam) <= s.horizon
    if not (loc_valid and s.horizon <= fam.horizon and q.stem.horizon <= q.side.horizon):
        return InvalidCondition
    return None


def d_refusal(c, q):
    """The first precondition of the loc-d lift proper that fails."""
    s, fam = c.prefix, c.side
    if len(fam) >= s.horizon:
        return FamilyTooLarge
    if q.side.horizon != fam.horizon:
        return HorizonMismatch
    if not ref_leq("hechler", q, brute_proj_d(c)):
        return NotBelowProjection
    return None


def e_refusal(c, q):
    """The first precondition of the loc-e lift proper that fails."""
    s, side = c.prefix, q.side
    if side.horizon != c.side.horizon:
        return HorizonMismatch
    if not ref_leq("e", q, brute_proj_e(c)):
        return NotBelowProjection
    new = range(s.horizon, q.stem.horizon)
    if any(len(side) >= n for n in new) or len(side) > s.horizon:
        return FamilyTooLarge
    for n in new:
        taken = {f[n] for f in side}
        if q.stem[n] in taken or sum(v not in taken for v in range(q.stem[n])) >= n:
            return RankTooLarge
    return None


def perturb(rng, c, q):
    """(c, q) with up to two random changes: a stem or side entry of q
    redrawn, q's stem or working horizon one longer or shorter, a member
    added to or dropped from an e side, or a member added to c's family or
    a value to one of its cells."""
    c_obj, q_obj = condition_to_obj(c), condition_to_obj(q)
    for _ in range(rng.randint(0, 2)):
        side = q_obj["side"]
        rows = side["functions"] if q.kind == "e" else [side]
        horizon = len(side) if q.kind == "hechler" else side["horizon"]
        choice = rng.randrange(7)
        if choice == 0 and q_obj["stem"]:
            n = rng.randrange(len(q_obj["stem"]))
            q_obj["stem"][n] = rng.randrange(n + 1)
        elif choice == 1 and rows and horizon:
            row = rng.choice(rows)
            row[rng.randrange(horizon)] = rng.randrange(8)
        elif choice == 2 and horizon:
            longer = rng.random() < 0.5
            for row in rows:
                if longer:
                    row.append(rng.randrange(8))
                else:
                    row.pop()
            if q.kind == "e":
                side["horizon"] += 1 if longer else -1
        elif choice == 3:
            if rng.random() < 0.5 and q_obj["stem"]:
                q_obj["stem"].pop()
            else:
                q_obj["stem"].append(rng.randrange(len(q_obj["stem"]) + 1))
        elif choice == 4 and q.kind == "e":
            if rng.random() < 0.5 and rows:
                rows.pop(rng.randrange(len(rows)))
            else:
                rows.append([rng.randrange(8) for _ in range(horizon)])
        elif choice == 5:
            fam = c_obj["side"]
            fam["functions"].append([rng.randrange(8) for _ in range(fam["horizon"])])
        elif choice == 6:
            cell = rng.choice(c_obj["prefix"])
            cell.append(rng.randrange(8))
    return condition_from_obj(c_obj), condition_from_obj(q_obj)


LIFTS = {
    "loc-d": (lift_loc_to_d, brute_proj_d, make_liftable_d, d_refusal),
    "loc-e": (lift_loc_to_e, brute_proj_e, make_liftable_e, e_refusal),
}


@pytest.mark.parametrize("name", sorted(LIFTS))
def test_lift_refuses_exactly_on_a_failed_precondition(rng, name):
    """Each lift raises exactly when the oracle finds a documented
    precondition that fails, and the first such one in the documented
    order; otherwise its result is valid, below c, and re-projects to q."""
    lift, project, make, refusal = LIFTS[name]
    outcomes = Counter()
    for _ in range(2500):
        c, q = perturb(rng, *make(rng, max_value=6))
        expected = guard_refusal(c, q) or refusal(c, q)
        if expected is None:
            lifted = lift(c, q)
            assert validate(lifted) == [] and ref_leq("loc", lifted, c)
            assert project(lifted) == q
        else:
            with pytest.raises(CichonError) as refused:
                lift(c, q)
            assert type(refused.value) is expected, (c, q)
        outcomes[expected] += 1
    kinds = {None, InvalidCondition, FamilyTooLarge, HorizonMismatch, NotBelowProjection}
    if name == "loc-e":
        kinds.add(RankTooLarge)
    assert all(outcomes[kind] >= 20 for kind in kinds), outcomes


# ---------------------------------------------------------------------------
# reduce_e


def test_reduce_example():
    q = ECond(FinFunc((0, 1, 2)), Family((FinFunc((7, 7, 7)),), 3))
    reduced = reduce_e(q, 2)
    assert reduced.stem.values == (0, 1, 0)


def test_reduce_keeps_liftable():
    q = ECond(FinFunc((0, 1, 1)), Family((FinFunc((7, 7, 7)),), 3))
    assert reduce_e(q, 2) == q
    assert reduce_e(q, 10**30) == q  # a start past the stem repairs nothing


def test_reduce_enables_lift(rng):
    for _ in range(100):
        plen = rng.randint(1, 3)
        horizon = plen + rng.randint(1, 3)
        cells = [frozenset(rng.sample(range(8), rng.randint(0, n))) for n in range(plen)]
        c = LocCond(Slalom.identity_width(cells), Family((), horizon))
        projected = proj_loc_to_e(c)
        stem = projected.stem.values + tuple(
            rng.randrange(8) for _ in range(horizon - plen)
        )
        q = reduce_e(ECond(FinFunc(stem), Family((), horizon)), plen)
        lifted = lift_loc_to_e(c, q)
        assert proj_loc_to_e(lifted).stem.values[: q.stem.horizon] == q.stem.values


# ---------------------------------------------------------------------------
# order preservation boundaries


def test_proj_e_order_preserving(rng):
    from conftest import extend_loc, make_loc

    for _ in range(200):
        weaker = make_loc(rng)
        stronger = extend_loc(rng, weaker)
        assert leq("e", proj_loc_to_e(stronger), proj_loc_to_e(weaker))


def test_proj_d_order_preserving_single_member_families(rng):
    """With at most one side member the family max and the family sum
    agree, so this case held under either side map; the acceptance suite
    checks the law over families of any size."""
    from conftest import extend_loc, make_loc

    for _ in range(200):
        weaker = make_loc(rng, family_cap=1)
        stronger = extend_loc(rng, weaker)
        assert leq("hechler", proj_loc_to_d(stronger), proj_loc_to_d(weaker))


def test_proj_d_order_preservation_counterexample():
    """The witness that broke the law under a summed side: two side members
    agreeing at a new position force only that shared value into the cell.
    The new cell maximum 1 reaches their max 1 (though not their sum 2),
    so with the max side the order is preserved."""
    weaker = loc([[], [0]], [[1, 1, 1], [1, 1, 1]], 3)
    stronger = loc([[], [0], [1]], [[1, 1, 1], [1, 1, 1]], 3)
    assert leq("loc", stronger, weaker)
    assert leq("hechler", proj_loc_to_d(stronger), proj_loc_to_d(weaker))
