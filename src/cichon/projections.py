"""Projections from localization conditions onto the Hechler and
eventually-different posets, with constructive lifts.

Both maps send the top condition to the top condition and admit explicit
lift algorithms: given a strengthening of the projected condition
(subject to the preconditions spelled out on each lift), a localization
condition is produced whose projection recovers the given strengthening
on its whole domain.  Each new cell holds only the values the order and
the projection need, chosen by least-value rules, so equal inputs give
equal outputs.
"""

from __future__ import annotations

from itertools import count, filterfalse, islice

from .combinatorics import Family, FinFunc, Slalom, _check_naturals
from .constructions import _columns, slalom_dominator
from .errors import FamilyTooLarge, NotBelowProjection, RankTooLarge
from .posets import ECond, HechlerCond, LocCond, leq, require_valid


def _outside(excluded):
    """The naturals outside `excluded`, in order."""
    return filterfalse(excluded.__contains__, count())


def _rank_outside(excluded: set[int], m: int) -> int | None:
    """Rank of m among the naturals outside the set; None if m is in it."""
    if m in excluded:
        return None
    return m - sum(1 for x in excluded if x < m)


# ---------------------------------------------------------------------------
# Localization -> Hechler


def proj_loc_to_d(c: LocCond) -> HechlerCond:
    """(s, F) maps to (n -> max s(n), n -> max of f(n) over f in F).

    Both maxima of the empty set are 0.  The side is the pointwise maximum
    of the family, not its sum: a strengthening only has to put each f(n)
    into its new cell, so the new cell maximum reaches max F(n) but not
    the sum, and only the maximum makes the map order preserving.
    """
    require_valid(c, "loc")
    stem = slalom_dominator(c.prefix)
    side = FinFunc(tuple(max(column, default=0) for column in _columns(c.side)))
    return HechlerCond(stem, side)


def lift_loc_to_d(c: LocCond, q: HechlerCond) -> LocCond:
    """Lift a Hechler strengthening of the projection back to localization.

    Preconditions: |F| < |s|, and q strengthens proj_loc_to_d(c).

    The result is (t, F + {q.side}) where, at each new position n, t(n)
    holds the family values and q.stem(n): at most |F| + 1 <= n members.
    Since q strengthens the projection, q.stem(n) bounds every family value
    at a new position and q.side bounds every member, so the result
    strengthens c and projects back to q exactly.
    """
    require_valid(c, "loc")
    require_valid(q, "hechler")
    s, fam = c.prefix, c.side
    if len(fam) >= s.horizon:
        raise FamilyTooLarge(f"|F| = {len(fam)} must be < |s| = {s.horizon}")
    if not leq("hechler", q, proj_loc_to_d(c)):
        raise NotBelowProjection("target does not strengthen the projection")
    cells = list(s.cells)
    for n, column in enumerate(islice(_columns(fam), s.horizon, q.stem.horizon), s.horizon):
        cells.append(frozenset((*column, q.stem[n])))
    side = Family(fam.functions + (q.side,), fam.horizon)
    return LocCond(Slalom.identity_width(cells), side)


# ---------------------------------------------------------------------------
# Localization -> eventually different


def proj_loc_to_e(c: LocCond) -> ECond:
    """Stem value at n >= 1: the k-th natural outside s(n), where
    k = sum(s(n)) mod n; position 0 is pinned to 0 (mod 0 is undefined).

    The side family passes through unchanged.
    """
    require_valid(c, "loc")
    stem = tuple(
        next(islice(_outside(cell), sum(cell) % n, None)) if n else 0
        for n, cell in enumerate(c.prefix.cells)
    )
    return ECond(FinFunc(stem), c.side)


def lift_loc_to_e(c: LocCond, q: ECond) -> LocCond:
    """Lift an eventually-different strengthening back to localization.

    Preconditions: q strengthens proj_loc_to_e(c); the side family stays
    smaller than every new position, and no larger than |s| if there is
    none; and at each new position n the stem value's rank among naturals
    avoiding the side values is below n (the mod-n residue cannot encode a
    larger rank).

    At a new position n the cell holds the side values and one more: the
    least value above max(stem value, side values) that brings the cell
    sum to the stem value's avoidance rank mod n.  That makes at most
    |side| + 1 <= n members, and a value above the stem value leaves its
    avoidance rank unchanged, so re-projection returns q's stem on its
    domain.
    """
    require_valid(c, "loc")
    require_valid(q, "e")
    s = c.prefix
    if not leq("e", q, proj_loc_to_e(c)):
        raise NotBelowProjection("target does not strengthen the projection")
    new_positions = range(s.horizon, q.stem.horizon)
    if len(q.side) > s.horizon - bool(new_positions):  # the least new position is |s|
        cap = f"< new position {s.horizon}" if new_positions else f"<= |s| = {s.horizon}"
        raise FamilyTooLarge(f"|side| = {len(q.side)} must be {cap}")
    cells = list(s.cells)
    for n, column in enumerate(islice(_columns(q.side), s.horizon, q.stem.horizon), s.horizon):
        m = q.stem[n]
        side_values = set(column)
        rank = _rank_outside(side_values, m)
        if rank is None or rank >= n:
            raise RankTooLarge(
                f"stem({n}) = {m} has avoidance rank {rank} (needs rank < {n})"
            )
        bound = max(side_values | {m})
        residue = (rank - sum(side_values)) % n
        first = bound + 1 + (residue - bound - 1) % n  # least v > bound, v % n == residue
        cells.append(frozenset((*side_values, first)))
    return LocCond(Slalom.identity_width(cells), q.side)


def reduce_e(q: ECond, from_position: int) -> ECond:
    """Repair an eventually-different condition for lifting.

    From the given position on, any stem value whose avoidance rank is
    undefined or too large for its position is replaced by the least
    value outside the side values there (rank 0); liftable values are
    kept.  The side family is untouched.
    """
    require_valid(q, "e")
    _check_naturals((from_position,), "reduce_e start")
    stem = list(q.stem.values)
    start = min(from_position, len(stem))  # islice refuses an index past sys.maxsize
    for n, column in enumerate(islice(_columns(q.side), start, len(stem)), start):
        side_values = set(column)
        rank = _rank_outside(side_values, stem[n])
        if rank is None or rank >= n:
            stem[n] = next(_outside(side_values))
    return ECond(FinFunc(tuple(stem)), q.side)
