"""Constructive witnesses: dominators, avoiders, capture slaloms, and the
block encoding and weave.

Conventions used throughout (stated once): max of the empty set is 0 and
the empty sum is 0, so every construction is total.  A block slalom with
fewer than h(n) members at a block weaves as if padded with constantly-0
partial functions.
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
from .errors import (
    EmptyFamily,
    HorizonTooShort,
    MalformedInput,
    ShapeMismatch,
    ZeroWidth,
)


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


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint nonempty position cells J_{n,k}, k in {1..h(n)}, covering
    [0, covered_horizon).

    The fields are checked when the partition is built (MalformedInput):
    each block is a list or tuple of frozensets of positions (stored as a
    tuple), every position is a natural below MAX_VALUES, and the cells
    are nonempty, disjoint and cover [0, covered_horizon).
    """

    cells: tuple[tuple[frozenset[int], ...], ...]
    width: WidthProfile

    def __post_init__(self):
        _check_shape(self.width, WidthProfile, "block partition width")
        blocks = tuple(
            tuple(_check_shape(b, (list, tuple), "block partition block", items=frozenset))
            for b in _as_tuple(self.cells, "block partition cells")
        )
        object.__setattr__(self, "cells", blocks)
        cells = [cell for block in self.cells for cell in block]
        positions = [x for cell in cells for x in cell]
        _check_naturals(positions, "block partition positions")
        top = max(positions, default=-1)
        if top >= MAX_VALUES:
            raise MalformedInput(f"block partition positions must be below {MAX_VALUES}")
        if not all(cells) or not len(set(positions)) == len(positions) == top + 1:
            raise MalformedInput(
                f"block partition cells must be nonempty, disjoint and cover [0, {top + 1})"
            )

    @property
    def covered_horizon(self) -> int:
        """The number of positions, which the cells cover [0, covered_horizon) with."""
        return sum(len(cell) for block in self.cells for cell in block)

    @property
    def block_count(self) -> int:
        return len(self.cells)

    def block(self, n: int) -> frozenset[int]:
        """J_n, the union of the block's cells."""
        return frozenset().union(*self.cells[n])


@dataclass(frozen=True)
class BlockSlalom:
    """Per block n, at most h(n) partial functions with domain J_n."""

    entries: tuple[tuple[dict[int, int], ...], ...]
    width: WidthProfile

    def __post_init__(self):
        _check_shape(self.width, WidthProfile, "block slalom width")
        object.__setattr__(self, "entries", _as_tuple(self.entries, "block slalom entries"))
        for entry in self.entries:
            _check_shape(entry, (list, tuple), "block slalom entry", items=dict)

    def __getitem__(self, n: int) -> tuple[dict[int, int], ...]:
        return self.entries[n]


def block_partition(width: WidthProfile, block_count: int, cell_size: int = 1) -> BlockPartition:
    """Assign cells consecutively: block n gets h(n) cells of cell_size
    positions each.  Singleton cells (the default) are the canonical choice;
    cell_size > 1 gives interval cells."""
    _check_shape(width, WidthProfile, "block partition width")
    _check_naturals((block_count, cell_size), "block count and cell size")
    if block_count > width.horizon:
        raise MalformedInput(
            f"width profile covers {width.horizon} blocks, {block_count} requested"
        )
    if cell_size < 1:
        raise MalformedInput("cell_size must be >= 1")
    widths = width.widths[:block_count]
    if 0 in widths:
        raise ZeroWidth(f"h({widths.index(0)}) = 0; blocks need width >= 1")
    positions = cell_size * sum(widths)
    if positions > MAX_VALUES:
        raise MalformedInput(f"block partition needs {positions} positions, over {MAX_VALUES}")
    cells = []
    pos = 0
    for h_n in widths:
        stop = pos + h_n * cell_size
        cells.append(tuple(frozenset(range(x, x + cell_size)) for x in range(pos, stop, cell_size)))
        pos = stop
    return BlockPartition(tuple(cells), width)


def block_encode(f: FinFunc, partition: BlockPartition) -> tuple[dict[int, int], ...]:
    """Per block n, f restricted to J_n."""
    _check_shape(f, FinFunc, "block encode function")
    _check_shape(partition, BlockPartition, "block partition")
    if f.horizon < partition.covered_horizon:
        raise HorizonTooShort(
            f"horizon {f.horizon} < covered horizon {partition.covered_horizon}"
        )
    return tuple(
        {x: f[x] for x in sorted(partition.block(n))}
        for n in range(partition.block_count)
    )


def weave(block_slalom: BlockSlalom, partition: BlockPartition) -> FinFunc:
    """Glue g(x) = w^n_k(x) for x in J_{n,k} into a single function.

    The k-th member of each block entry supplies the values on the
    block's k-th cell, and a cell past the entry's last member stays 0;
    disjoint covering makes g total on [0, covered_horizon).
    """
    _check_shape(block_slalom, BlockSlalom, "block slalom")
    _check_shape(partition, BlockPartition, "block partition")
    if block_slalom.width.widths[: partition.block_count] != partition.width.widths[: partition.block_count]:
        raise ShapeMismatch("block slalom and partition disagree on widths")
    if len(block_slalom.entries) != partition.block_count:
        raise ShapeMismatch(
            f"{len(block_slalom.entries)} entries for {partition.block_count} blocks"
        )
    out = [0] * partition.covered_horizon
    for n in range(partition.block_count):
        entry = block_slalom[n]
        h_n = partition.width[n]
        if len(entry) > h_n:
            raise ShapeMismatch(f"block {n} has {len(entry)} members, width is {h_n}")
        block = partition.block(n)
        for w in entry:
            if set(w) != block:
                raise ShapeMismatch(f"block {n} member domain is not J_{n}")
        for w, cell in zip(entry, partition.cells[n]):
            for x in cell:
                out[x] = w[x]
    return FinFunc(tuple(out))

