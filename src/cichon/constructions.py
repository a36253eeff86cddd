"""Constructive witnesses: dominators, avoiders, capture slaloms, and the
block encoding and weave.

Conventions used throughout (stated once): max of the empty set is 0 and
the empty sum is 0, so every construction is total.  Block n, J_n, is the
h(n) positions that follow J_{n-1}; a block slalom with fewer than h(n)
codes at a block weaves as if padded with constantly-0 codes.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .combinatorics import (
    MAX_VALUES,
    Family,
    FinFunc,
    Slalom,
    WidthProfile,
    _as_tuple,
    _check_naturals,
    _check_shape,
    _unchecked,
)
from .errors import EmptyFamily, HorizonTooShort, MalformedInput, ShapeMismatch


def _columns(family: Family):
    """The family column-major: per position n, the tuple (f(n) for f in family)."""
    _check_shape(family, Family, "family")
    if not family.functions:
        return [()] * family.horizon
    return zip(*(f.values for f in family))


# ---------------------------------------------------------------------------
# Pointwise witnesses from a slalom or a family


def slalom_dominator(sigma: Slalom) -> FinFunc:
    """z(n) = max(sigma(n)); bounds anything the slalom captures."""
    _check_shape(sigma, Slalom, "dominator slalom")
    return FinFunc(tuple(max(cell, default=0) for cell in sigma.cells))


def sum_evader_bound(sigma: Slalom) -> FinFunc:
    """z(n) = 1 + sum(sigma(n)); any f with f(n) >= z(n) has f(n) outside sigma(n)."""
    _check_shape(sigma, Slalom, "evader bound slalom")
    return FinFunc(tuple(1 + sum(cell) for cell in sigma.cells))


def family_dominator(family: Family) -> FinFunc:
    """d(n) = 1 + max over members; capture threshold 0 for every member."""
    rows = [f.values for f in _check_shape(family, Family, "family")]
    zeros = (0,) * family.horizon  # gives the empty family a column at every position
    return FinFunc(tuple(map(operator.add, itertools.repeat(1), map(max, zip(*rows, zeros)))))


def least_avoider(family: Family) -> FinFunc:
    """g(n) = least value outside {f(n) : f in family}.

    Differs from every member at every position while staying bounded by
    the family size, the bounded eventually-different witness.
    """
    columns = _columns(family)
    full = frozenset(range(len(family) + 1))  # a column holding 0 misses one of these
    return FinFunc(tuple([min(full.difference(column)) if 0 in column else 0 for column in columns]))


def round_robin_ioe(family: Family) -> FinFunc:
    """g(n) = f_{n mod |F|}(n); matches each member at >= floor(N/|F|) positions."""
    if len(_check_shape(family, Family, "family")) == 0:
        raise EmptyFamily("round robin needs at least one member")
    rows = itertools.cycle([f.values for f in family])
    return FinFunc(tuple(map(operator.getitem, rows, range(family.horizon))))


def singleton_slalom(g: FinFunc) -> Slalom:
    """The width-1 slalom with cells {g(n)}."""
    _check_shape(g, FinFunc, "singleton slalom function")
    return Slalom(
        tuple(frozenset({v}) for v in g.values),
        WidthProfile(tuple(1 for _ in g.values)),
    )


def family_slalom(family: Family) -> tuple[Slalom, tuple[int, ...]]:
    """Identity-width slalom capturing member i from position i + 1.

    cells(n) = {f_i(n) : i < min(n, |F|)}; returns the slalom together
    with each member's actual least capture threshold.
    """
    cells = tuple(frozenset(column[:n]) for n, column in enumerate(_columns(family)))
    # each cell is a subset of a column of checked members
    sigma = _unchecked(Slalom, cells=cells, width=WidthProfile.identity(family.horizon))
    # member i is in every cell past i, so its threshold is one past the last
    # of its first i + 1 positions that its cell misses
    thresholds = tuple(
        next((n + 1 for n in reversed(range(min(i + 1, len(cells)))) if f.values[n] not in cells[n]), 0)
        for i, f in enumerate(family)
    )
    return sigma, thresholds


# ---------------------------------------------------------------------------
# Block machinery


def _block_bounds(width: WidthProfile, what: str) -> list[int]:
    """0 and the end of each block J_n, the h(n) positions that follow J_{n-1}."""
    bounds = list(itertools.accumulate(_check_shape(width, WidthProfile, what).widths, initial=0))
    if bounds[-1] > MAX_VALUES:
        raise MalformedInput(f"{what} needs {bounds[-1]} positions, over {MAX_VALUES}")
    return bounds


@dataclass(frozen=True)
class BlockSlalom:
    """Per block n, at most h(n) codes, each the h(n) values of a function
    on J_n.

    Checked when built: the entries come from any iterable, one per block,
    each a list or tuple of codes, and each code a list or tuple of h(n)
    naturals (a wrong count or length is ShapeMismatch); all are stored as
    tuples.  The blocks span at most MAX_VALUES positions.
    """

    entries: tuple[tuple[tuple[int, ...], ...], ...]
    width: WidthProfile

    def __post_init__(self):
        _block_bounds(self.width, "block slalom width")
        entries = tuple(
            tuple(_check_shape(entry, (list, tuple), "block slalom entry"))
            for entry in _as_tuple(self.entries, "block slalom entries")
        )
        if len(entries) != self.width.horizon:
            raise ShapeMismatch(f"{len(entries)} entries for {self.width.horizon} blocks")
        for n, (h_n, entry) in enumerate(zip(self.width.widths, entries)):
            if len(entry) > h_n:
                raise ShapeMismatch(f"block {n} has {len(entry)} codes, width is {h_n}")
            for code in entry:
                if len(_check_shape(code, (list, tuple), "block slalom code")) != h_n:
                    raise ShapeMismatch(f"block {n} has a code of {len(code)} values, width is {h_n}")
        entries = tuple(tuple(map(tuple, entry)) for entry in entries)
        _check_naturals([v for entry in entries for code in entry for v in code], "block slalom codes")
        object.__setattr__(self, "entries", entries)


def block_encode(f: FinFunc, width: WidthProfile) -> tuple[tuple[int, ...], ...]:
    """Per block n, the values of f on J_n."""
    _check_shape(f, FinFunc, "block encode function")
    bounds = _block_bounds(width, "block encode width")
    if f.horizon < bounds[-1]:
        raise HorizonTooShort(f"horizon {f.horizon} < {bounds[-1]} block positions")
    return tuple(f.values[start:end] for start, end in zip(bounds, bounds[1:]))


def weave(block_slalom: BlockSlalom) -> FinFunc:
    """g at the k-th position of J_n is the k-th code's value there, or 0
    past the entry's last code."""
    _check_shape(block_slalom, BlockSlalom, "block slalom")
    out = []
    for h_n, entry in zip(block_slalom.width.widths, block_slalom.entries):
        out += [code[k] for k, code in enumerate(entry)] + [0] * (h_n - len(entry))
    return _unchecked(FinFunc, values=tuple(out))  # values of checked codes, and zeros
