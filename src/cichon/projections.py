"""Projections from localization conditions onto the Hechler and
eventually-different posets, with constructive lifts.

Both maps send the top condition to the top condition and admit explicit
lift algorithms: given a strengthening of the projected condition
(subject to the preconditions spelled out on each lift), a localization
condition is produced whose projection recovers the given strengthening
on its whole domain.  All free choices are resolved by deterministic
least-value padding rules, so equal inputs give equal outputs.
"""

from __future__ import annotations

from .combinatorics import MAX_VALUES, Family, FinFunc, Slalom, _check_naturals
from .errors import (
    FamilyTooLarge,
    GrowthTooSmall,
    MalformedInput,
    NotBelowProjection,
    RankTooLarge,
)
from .posets import ECond, HechlerCond, LocCond, leq, require_valid


def _kth_excluded(excluded: frozenset[int] | set[int], k: int) -> int:
    """The k-th natural number (0-indexed) outside the excluded set."""
    v = 0
    while True:
        if v not in excluded:
            if k == 0:
                return v
            k -= 1
        v += 1


def _rank_outside(excluded: set[int], m: int) -> int | None:
    """Rank of m among the naturals outside the set; None if m is in it."""
    if m in excluded:
        return None
    return m - sum(1 for x in excluded if x < m)


def _require_liftable(c: LocCond, q, kind: str) -> None:
    """c a valid loc condition and q a valid one of the given kind, and the
    lift's new cells, n members at each new position n, at most MAX_VALUES
    in all.  The order against the projection checks the working horizons."""
    require_valid(c, "loc")
    require_valid(q, kind)
    members = sum(range(c.prefix.horizon, q.stem.horizon))
    if members > MAX_VALUES:
        raise MalformedInput(f"lift needs {members} new cell members, over {MAX_VALUES}")


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
    fam = c.side
    stem = FinFunc(tuple(max(cell, default=0) for cell in c.prefix.cells))
    side = FinFunc(
        tuple(max((f[n] for f in fam), default=0) for n in range(fam.horizon))
    )
    return HechlerCond(stem, side)


def lift_loc_to_d(c: LocCond, q: HechlerCond) -> LocCond:
    """Lift a Hechler strengthening of the projection back to localization.

    Preconditions: |F| < |s|; q strengthens proj_loc_to_d(c); and every new
    stem value obeys q.stem(n) >= n - 1, so that n distinct values fit at
    or below it.

    The result is (t, F + {q.side}) where, at each new position, t(n) holds
    the family values and q.stem(n), padded with the least unused values
    below q.stem(n) up to exactly n members.  Since q strengthens the
    projection, q.stem(n) bounds every family value at a new position and
    q.side bounds every member, so the result strengthens c and projects
    back to q exactly.
    """
    _require_liftable(c, q, "hechler")
    s, fam = c.prefix, c.side
    if len(fam) >= s.horizon:
        raise FamilyTooLarge(f"|F| = {len(fam)} must be < |s| = {s.horizon}")
    if not leq("hechler", q, proj_loc_to_d(c)):
        raise NotBelowProjection("target does not strengthen the projection")
    cells = list(s.cells)
    for n in range(s.horizon, q.stem.horizon):
        if q.stem[n] < n - 1:
            raise GrowthTooSmall(f"stem({n}) = {q.stem[n]} < {n} - 1")
        cell = {f[n] for f in fam} | {q.stem[n]}
        v = 0
        while len(cell) < n:
            if v not in cell and v < q.stem[n]:
                cell.add(v)
            v += 1
        cells.append(frozenset(cell))
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
    s = c.prefix
    stem = []
    for n in range(s.horizon):
        if n == 0:
            stem.append(0)
        else:
            k = sum(s[n]) % n
            stem.append(_kth_excluded(s[n], k))
    return ECond(FinFunc(tuple(stem)), c.side)


def lift_loc_to_e(c: LocCond, q: ECond) -> LocCond:
    """Lift an eventually-different strengthening back to localization.

    Preconditions: q strengthens proj_loc_to_e(c); the side family stays
    smaller than every new position, and no larger than |s| if there is
    none; and at each new position n the stem value's rank among naturals
    avoiding the side values is below n (the mod-n residue cannot encode a
    larger rank).

    At a new position n the cell collects the side values and is padded
    up to n members with values strictly above max(stem value, side
    values): first the least value in the residue class fixing the sum
    congruence, then least multiples of n (which leave the sum class
    untouched).  Keeping all padding above the stem value preserves its
    avoidance rank, so re-projection returns q's stem on its domain.
    """
    _require_liftable(c, q, "e")
    s = c.prefix
    if not leq("e", q, proj_loc_to_e(c)):
        raise NotBelowProjection("target does not strengthen the projection")
    new_positions = range(s.horizon, q.stem.horizon)
    if len(q.side) > s.horizon - bool(new_positions):  # the least new position is |s|
        cap = f"< new position {s.horizon}" if new_positions else f"<= |s| = {s.horizon}"
        raise FamilyTooLarge(f"|side| = {len(q.side)} must be {cap}")
    cells = list(s.cells)
    for n in new_positions:
        m = q.stem[n]
        side_values = {f[n] for f in q.side}
        rank = _rank_outside(side_values, m)
        if rank is None or rank >= n:
            raise RankTooLarge(
                f"stem({n}) = {m} has avoidance rank {rank} (needs rank < {n})"
            )
        bound = max(side_values | {m})
        j = sum(side_values) % n
        residue = (rank - j) % n
        first = bound + 1
        while first % n != residue:
            first += 1
        cell = set(side_values) | {first}
        multiple = ((bound + n) // n) * n
        while len(cell) < n:
            if multiple != first:
                cell.add(multiple)
            multiple += n
        cells.append(frozenset(cell))
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
    for n in range(from_position, len(stem)):
        side_values = {f[n] for f in q.side}
        rank = _rank_outside(side_values, stem[n])
        if rank is None or rank >= max(n, 1):  # at 0, only the least value outside
            stem[n] = _kth_excluded(side_values, 0)
    return ECond(FinFunc(tuple(stem)), q.side)
