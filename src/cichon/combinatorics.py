"""Finite-horizon reals, slaloms, and the four threshold relations.

Everything here is a finite prefix of an object from Baire space.  The
infinitary quantifier "for all but finitely many l" becomes "for all l in
[k, N)" with the least such k reported explicitly; k = N is always
admissible (empty tail), so every relation query is total and a report
with threshold == horizon is flagged as vacuous.
"""

from __future__ import annotations

import array
import itertools
import json
import math
import operator
from dataclasses import dataclass

from .errors import HorizonMismatch, MalformedInput

HIT_RELATIONS = ("eq", "in")
MODES = ("bounding", "evading")

# The most values one input may ask for: a decoded family's horizon (which
# constructions loop over, even with no members), a decoded slalom's cell
# count, an identity width's horizon and random-family's draws.
MAX_VALUES = 10**6

# Every natural an object holds, read or computed, stays below this, so it
# prints: Python refuses to print an int of more than 4,300 digits.  A
# construction whose result would reach it (a value + 1, a cell sum) is
# refused like an input beyond it.
MAX_NATURAL = 10**4000


def _check_naturals(values, what):
    """MalformedInput naming the first entry of the sequence `values` that
    is not an int in [0, MAX_NATURAL); bools are not naturals.

    An all-int sequence of four or more entries passes in two C-level
    scans: types, then one `array("Q")` probe, which raises OverflowError
    exactly when an entry is negative or at least 2**64 (far below
    MAX_NATURAL); only then do `min` and `max` decide.  The type scan
    stays because the probe takes bools and int subclasses as ints.  The
    loop, as fast on four entries and faster on fewer, decides the rest
    and names the first offender.
    """
    if len(values) > 3 and set(map(type, values)) <= {int}:
        try:
            array.array("Q", values)
            return
        except OverflowError:
            if min(values) >= 0 and max(values) < MAX_NATURAL:
                return
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or -MAX_NATURAL < v < 0:
            raise MalformedInput(f"{what} must be natural numbers, got {v!r}")
        if v >= MAX_NATURAL:
            bits = v.bit_length()
            raise MalformedInput(f"{what} must be below 10**4000, got a {bits}-bit value")
        if v < 0:  # too long to print
            bits = v.bit_length()
            raise MalformedInput(f"{what} must be natural numbers, got a negative {bits}-bit value")


def _check_at_most(value, bound, what):
    """MalformedInput naming `what` unless `value` is a natural number of at
    most `bound`."""
    _check_naturals((value,), what)
    if value > bound:
        raise MalformedInput(f"{what} {value} exceeds {bound}")


def _unchecked(cls, **fields):
    """The frozen dataclass `cls` holding `fields` as given, without running
    its `__post_init__`: only for fields sliced or collected from values that
    already passed their checks."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


def dump_json(obj, indent: str = "") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for JSON
    values with str keys (tuples count as lists), nested at `indent`.

    That call never reaches json's C encoder, which serves only indent=None,
    so the containers are laid out here.  Keys and exact str, int, bool and
    None scalars are written as json writes them; other scalars, floats
    included, still go through json.  A list of exact ints, or of rows of
    exact ints, is laid out by one template of brackets, commas, spaces,
    newlines and `%d`s, filled by one `%` over the block's ints (for an exact
    int, `%d` writes `int.__repr__`); keys and strings never reach a template.
    """
    kind = type(obj)
    if kind is str:
        return json.encoder.encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = indent + "  "
    if isinstance(obj, (list, tuple)) and obj:
        kinds, values = set(map(type, obj)), ()
        if kinds == {int}:
            items, values = ["%d"] * len(obj), tuple(obj)
        elif kinds <= {list, tuple} and set(map(type, flat := tuple(itertools.chain.from_iterable(obj)))) <= {int}:
            sep = f",\n{inner}  "  # one row template per distinct row length
            rows = {n: f"[\n{inner}  {sep.join(['%d'] * n)}\n{inner}]" if n else "[]" for n in set(map(len, obj))}
            items, values = map(rows.__getitem__, map(len, obj)), flat
        else:
            items = [dump_json(v, inner) for v in obj]
        text = f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
        return text % values if values else text  # recursed-into text may hold a "%"
    if isinstance(obj, dict) and obj:
        key = json.encoder.encode_basestring_ascii
        items = [f"{key(k)}: {dump_json(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(obj)


def _check_shape(obj, container, what, keys=(), items=None):
    """`obj` if it is a `container` (a class or a tuple of classes) with
    every key in `keys` and, if given, only `items` inside; else
    MalformedInput naming `what`.  The library's one whole-value class check."""
    if not isinstance(obj, container):
        classes = container if isinstance(container, tuple) else (container,)
        wanted = " or ".join(t.__name__ for t in classes)
        raise MalformedInput(f"{what} must be a {wanted}, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise MalformedInput(f"{what} needs the key {key!r}")
    if items is not None and not set(map(type, obj)) <= {items}:
        raise MalformedInput(f"{what} must hold only {items.__name__}s")
    return obj


def _as_tuple(values, what):
    """`tuple(values)` for any iterable; else MalformedInput, as `_check_shape` words it."""
    try:
        iter(values)
    except TypeError:
        raise MalformedInput(f"{what} must be a list or tuple, got {type(values).__name__}") from None
    return tuple(values)


@dataclass(frozen=True)
class FinFunc:
    """A natural-valued function on [0, horizon)."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _as_tuple(self.values, "FinFunc values"))
        _check_naturals(self.values, "FinFunc values")

    @property
    def horizon(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def successor(self) -> "FinFunc":
        """Pointwise successor f + 1."""
        return FinFunc(tuple(v + 1 for v in self.values))

    def to_obj(self):
        return list(self.values)

    @classmethod
    def from_obj(cls, obj) -> "FinFunc":
        return cls(tuple(_check_shape(obj, list, "finite function")))


@dataclass(frozen=True)
class WidthProfile:
    """A sequence of width bounds h(0), h(1), ...; monotonicity not assumed."""

    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", _as_tuple(self.widths, "widths"))
        _check_naturals(self.widths, "widths")

    @property
    def horizon(self) -> int:
        return len(self.widths)

    def __getitem__(self, n: int) -> int:
        return self.widths[n]

    @classmethod
    def identity(cls, horizon: int) -> "WidthProfile":
        """The profile h(n) = n, under which cell 0 is forced empty; the
        horizon is a natural number of at most MAX_VALUES positions."""
        _check_at_most(horizon, MAX_VALUES, "identity width horizon")
        return _unchecked(cls, widths=tuple(range(horizon)))


@dataclass(frozen=True)
class Slalom:
    """A sequence of finite sets of naturals with a width profile.

    Soundness (|cells(n)| <= width(n) everywhere) is checked where a slalom
    is decoded (`from_obj`), not at construction: a loc prefix is built
    with identity width, and `posets.validate` reports its unsound cells as
    violations.  Library constructors only ever build sound slaloms.
    """

    cells: tuple[frozenset[int], ...]
    width: WidthProfile

    def __post_init__(self):
        cells = _as_tuple(self.cells, "slalom cells")
        try:
            members = list(itertools.chain.from_iterable(cells))
        except TypeError:  # name the first cell that is not iterable, else re-raise
            for n, cell in enumerate(cells):
                _as_tuple(cell, f"slalom cell {n}")
            raise
        # before hashing, so an array member is reported
        _check_naturals(members, "slalom cell members")
        cells = tuple(map(frozenset, cells))
        object.__setattr__(self, "cells", cells)
        _check_shape(self.width, WidthProfile, "slalom width")
        if self.width.horizon != len(cells):
            raise HorizonMismatch(
                f"width horizon {self.width.horizon} != cell count {len(cells)}"
            )

    @property
    def horizon(self) -> int:
        return len(self.cells)

    def __getitem__(self, n: int) -> frozenset[int]:
        return self.cells[n]

    def prefix(self, horizon: int) -> "Slalom":
        """The first `horizon` cells and widths, sliced without a re-check;
        `horizon` is a natural number of at most the slalom's."""
        _check_at_most(horizon, self.horizon, "prefix horizon")
        width = _unchecked(WidthProfile, widths=self.width.widths[:horizon])
        return _unchecked(Slalom, cells=self.cells[:horizon], width=width)

    @classmethod
    def identity_width(cls, cells) -> "Slalom":
        cells = _as_tuple(cells, "slalom cells")
        return cls(cells, WidthProfile.identity(len(cells)))

    def to_obj(self):
        return {
            "width": list(self.width.widths),
            "cells": list(map(sorted, self.cells)),
        }

    @classmethod
    def from_obj(cls, obj) -> "Slalom":
        _check_shape(obj, dict, "slalom", ("cells",))
        cells = tuple(_check_shape(obj["cells"], list, "slalom cells", items=list))
        if len(cells) > MAX_VALUES:  # with or without a width list
            raise MalformedInput(f"slalom cell count {len(cells)} exceeds {MAX_VALUES}")
        if "width" in obj:
            width = WidthProfile(tuple(_check_shape(obj["width"], list, "slalom width")))
        else:
            width = WidthProfile.identity(len(cells))
        slalom = cls(cells, width)
        over = list(map(operator.gt, map(len, slalom.cells), width.widths))
        if True in over:
            n = over.index(True)
            size, bound = len(slalom[n]), width[n]
            raise MalformedInput(f"slalom cell {n} holds {size} members, above its width {bound}")
        return slalom


@dataclass(frozen=True)
class Family:
    """A finite list of FinFuncs over a shared horizon; members may repeat.

    The horizon is stored explicitly so the empty family still carries one.
    """

    functions: tuple[FinFunc, ...]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "functions", _as_tuple(self.functions, "family functions"))
        _check_at_most(self.horizon, MAX_VALUES, "family horizon")
        for f in self.functions:
            _check_shape(f, FinFunc, "family member")
            if f.horizon != self.horizon:
                raise HorizonMismatch(
                    f"family member horizon {f.horizon} != {self.horizon}"
                )

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def prefix(self, horizon: int) -> "Family":
        """Each member's first `horizon` values, sliced without a re-check;
        `horizon` is a natural number of at most the family's."""
        _check_at_most(horizon, self.horizon, "prefix horizon")
        functions = tuple(_unchecked(FinFunc, values=f.values[:horizon]) for f in self)
        return _unchecked(Family, functions=functions, horizon=horizon)

    def to_obj(self):
        return {
            "horizon": self.horizon,
            "functions": [f.to_obj() for f in self.functions],
        }

    @classmethod
    def from_obj(cls, obj) -> "Family":
        _check_shape(obj, dict, "family", ("horizon", "functions"))
        functions = _check_shape(obj["functions"], list, "family functions")
        return cls(tuple(FinFunc.from_obj(f) for f in functions), obj["horizon"])


@dataclass(frozen=True)
class ThresholdReport:
    """The least k such that the relation holds on the whole tail [k, N)."""

    threshold: int
    vacuous: bool

    def to_obj(self):
        return {"threshold": self.threshold, "vacuous": self.vacuous}


@dataclass(frozen=True)
class RelationReport:
    """Per-member reports against a witness, with aggregates.

    Bounding mode carries one ThresholdReport per member plus the max
    threshold; evading mode carries per-member hit counts plus the min
    count (math.inf over the empty family).
    """

    relation: str
    mode: str
    thresholds: tuple[ThresholdReport, ...] | None
    hits: tuple[int, ...] | None
    max_threshold: int
    min_hits: int | float

    def to_obj(self):
        return {
            "relation": self.relation,
            "mode": self.mode,
            "thresholds": None
            if self.thresholds is None
            else [t.to_obj() for t in self.thresholds],
            "hits": None if self.hits is None else list(self.hits),
            "max_threshold": self.max_threshold,
            "min_hits": "inf" if self.min_hits == math.inf else self.min_hits,
        }


# name -> (pointwise test (f, target) -> whether f(l) rel target(l) at each l < N,
# target class); a name is checked against `tuple(RELATIONS)` before it is hashed.
RELATIONS = {
    "eq": (lambda f, t: map(operator.eq, f.values, t.values), FinFunc),
    "leq": (lambda f, t: map(operator.le, f.values, t.values), FinFunc),
    "neq": (lambda f, t: map(operator.ne, f.values, t.values), FinFunc),
    "in": (lambda f, t: map(operator.contains, t.cells, f.values), Slalom),
}


def _check_relation(rel: str):
    if rel not in tuple(RELATIONS):
        raise MalformedInput(f"relation must be one of {tuple(RELATIONS)}, got {rel!r}")


def _check_target(rel: str, horizon: int, target):
    """`target` is of `rel`'s target class and has `horizon` positions."""
    _check_shape(target, RELATIONS[rel][1], f"relation {rel!r} target")
    if horizon != target.horizon:
        raise HorizonMismatch(
            f"horizon {horizon} vs {target.horizon} for relation {rel!r}"
        )


def least_threshold(rel: str, f: FinFunc, target) -> ThresholdReport:
    """Least k in [0, N] with the pointwise property on all of [k, N).

    The failure set of tail starts is downward closed, so one past the
    last failing position gives the minimum.
    """
    _check_relation(rel)
    _check_shape(f, FinFunc, f"relation {rel!r} function")
    _check_target(rel, f.horizon, target)
    n = f.horizon
    holds = [False, *RELATIONS[rel][0](f, target)]  # a sentinel failure at -1
    holds.reverse()
    k = n - holds.index(False)  # one past the last failing position
    return ThresholdReport(threshold=k, vacuous=(k == n))


def hit_count(rel: str, f: FinFunc, target) -> int:
    """Number of positions l < N where f agrees with the target."""
    if rel not in HIT_RELATIONS:
        raise MalformedInput(f"hit relation must be one of {HIT_RELATIONS}, got {rel!r}")
    _check_shape(f, FinFunc, f"relation {rel!r} function")
    _check_target(rel, f.horizon, target)
    return sum(RELATIONS[rel][0](f, target))


def family_report(rel: str, witness, family: Family, mode: str) -> RelationReport:
    """Evaluate a witness against every family member.

    Bounding: per-member least thresholds of member-rel-witness (capture
    by the witness).  Evading: per-member hit counts of the witness
    against the member.  Claims over the empty family hold vacuously; the
    relation and the witness are checked against the family all the same.
    """
    if mode not in MODES:
        raise MalformedInput(f"mode must be one of {MODES}, got {mode!r}")
    _check_shape(family, Family, "family")
    if mode == "evading" and rel not in HIT_RELATIONS:
        raise MalformedInput(f"evading mode needs relation in {HIT_RELATIONS}, got {rel!r}")
    _check_relation(rel)
    _check_target(rel, family.horizon, witness)
    if mode == "bounding":
        reports = tuple(least_threshold(rel, member, witness) for member in family)
        max_threshold = max((r.threshold for r in reports), default=0)
        return RelationReport(rel, mode, reports, None, max_threshold, math.inf)
    hits = tuple(hit_count(rel, member, witness) for member in family)
    min_hits = min(hits, default=math.inf)
    return RelationReport(rel, mode, None, hits, 0, min_hits)
