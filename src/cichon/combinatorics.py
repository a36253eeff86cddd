"""Finite-horizon reals, slaloms, and the three threshold relations.

Everything here is a finite prefix of an object from Baire space.  The
infinitary quantifier "for all but finitely many l" becomes "for all l in
[k, N)" with the least such k reported explicitly; k = N is always
admissible (empty tail), so every relation query is total and a report
with threshold == horizon is flagged as vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import HorizonMismatch, MalformedInput

RELATIONS = ("leq", "neq", "in")
HIT_RELATIONS = ("eq", "in")
MODES = ("bounding", "evading")

# The most values one input may ask for: a decoded family's horizon (which
# constructions loop over, even with no members) and random-family's draws.
MAX_VALUES = 10**6


def _check_naturals(values, what):
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise MalformedInput(f"{what} must be natural numbers, got {v!r}")


def _check_shape(obj, container, what, keys=(), items=None):
    """`obj` if it is a `container` (list or dict) with every key in `keys`
    and, if given, only `items` inside; else MalformedInput naming `what`."""
    if not isinstance(obj, container):
        got = type(obj).__name__
        raise MalformedInput(f"{what} must be a {container.__name__}, got {got}")
    for key in keys:
        if key not in obj:
            raise MalformedInput(f"{what} needs the key {key!r}")
    if items is not None and not all(type(item) is items for item in obj):
        raise MalformedInput(f"{what} must hold only {items.__name__}s")
    return obj


@dataclass(frozen=True)
class FinFunc:
    """A natural-valued function on [0, horizon)."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
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
        object.__setattr__(self, "widths", tuple(self.widths))
        _check_naturals(self.widths, "widths")

    @property
    def horizon(self) -> int:
        return len(self.widths)

    def __getitem__(self, n: int) -> int:
        return self.widths[n]

    @classmethod
    def identity(cls, horizon: int) -> "WidthProfile":
        """The profile h(n) = n, under which cell 0 is forced empty."""
        return cls(tuple(range(horizon)))


@dataclass(frozen=True)
class Slalom:
    """A sequence of finite sets of naturals with a width profile.

    Soundness (|cells(n)| <= width(n) everywhere) is not enforced at
    construction, so invariant-violating inputs stay representable for
    validation; library constructors only ever build sound slaloms.
    """

    cells: tuple[frozenset[int], ...]
    width: WidthProfile

    def __post_init__(self):
        cells = tuple(self.cells)
        for c in cells:  # before hashing, so an array member is reported
            _check_naturals(c, "slalom cell members")
        cells = tuple(map(frozenset, cells))
        object.__setattr__(self, "cells", cells)
        if self.width.horizon != len(cells):
            raise HorizonMismatch(
                f"width horizon {self.width.horizon} != cell count {len(cells)}"
            )

    @property
    def horizon(self) -> int:
        return len(self.cells)

    def __getitem__(self, n: int) -> frozenset[int]:
        return self.cells[n]

    def width_violations(self) -> list[str]:
        return [
            f"|cells({n})| <= width({n}) fails: {len(c)} > {self.width[n]}"
            for n, c in enumerate(self.cells)
            if len(c) > self.width[n]
        ]

    @classmethod
    def identity_width(cls, cells) -> "Slalom":
        cells = tuple(cells)
        return cls(cells, WidthProfile.identity(len(cells)))

    def to_obj(self):
        return {
            "width": list(self.width.widths),
            "cells": [sorted(c) for c in self.cells],
        }

    @classmethod
    def from_obj(cls, obj) -> "Slalom":
        _check_shape(obj, dict, "slalom", ("cells",))
        cells = tuple(_check_shape(obj["cells"], list, "slalom cells", items=list))
        if "width" in obj:
            width = WidthProfile(tuple(_check_shape(obj["width"], list, "slalom width")))
        else:
            width = WidthProfile.identity(len(cells))
        return cls(cells, width)


@dataclass(frozen=True)
class Family:
    """A finite list of FinFuncs over a shared horizon; members may repeat.

    The horizon is stored explicitly so the empty family still carries one.
    """

    functions: tuple[FinFunc, ...]
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        for f in self.functions:
            if f.horizon != self.horizon:
                raise HorizonMismatch(
                    f"family member horizon {f.horizon} != {self.horizon}"
                )

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def to_obj(self):
        return {
            "horizon": self.horizon,
            "functions": [f.to_obj() for f in self.functions],
        }

    @classmethod
    def from_obj(cls, obj) -> "Family":
        _check_shape(obj, dict, "family", ("horizon", "functions"))
        horizon = obj["horizon"]
        _check_naturals((horizon,), "family horizon")
        if horizon > MAX_VALUES:
            raise MalformedInput(f"family horizon {horizon} exceeds {MAX_VALUES}")
        functions = _check_shape(obj["functions"], list, "family functions")
        return cls(tuple(FinFunc.from_obj(f) for f in functions), horizon)


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


def _pointwise(rel: str, f: FinFunc, target, l: int) -> bool:
    if rel == "leq":
        return f[l] <= target[l]
    if rel == "neq":
        return f[l] != target[l]
    if rel == "in":
        return f[l] in target[l]
    if rel == "eq":
        return f[l] == target[l]
    raise ValueError(f"unknown relation kind {rel!r}")


def _check_target(rel: str, f: FinFunc, target):
    wants_slalom = rel == "in"
    if wants_slalom and not isinstance(target, Slalom):
        raise ValueError("relation 'in' needs a Slalom target")
    if not wants_slalom and not isinstance(target, FinFunc):
        raise ValueError(f"relation {rel!r} needs a FinFunc target")
    if f.horizon != target.horizon:
        raise HorizonMismatch(
            f"horizon {f.horizon} vs {target.horizon} for relation {rel!r}"
        )


def least_threshold(rel: str, f: FinFunc, target) -> ThresholdReport:
    """Least k in [0, N] with the pointwise property on all of [k, N).

    The failure set of tail starts is downward closed, so scanning back
    from the horizon until the first failing position gives the minimum.
    """
    if rel not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {rel!r}")
    _check_target(rel, f, target)
    n = f.horizon
    k = n
    for l in range(n - 1, -1, -1):
        if _pointwise(rel, f, target, l):
            k = l
        else:
            break
    return ThresholdReport(threshold=k, vacuous=(k == n))


def hit_count(rel: str, f: FinFunc, target) -> int:
    """Number of positions l < N where f agrees with the target."""
    if rel not in HIT_RELATIONS:
        raise ValueError(f"hit relation must be one of {HIT_RELATIONS}, got {rel!r}")
    _check_target(rel, f, target)
    return sum(1 for l in range(f.horizon) if _pointwise(rel, f, target, l))


def family_report(rel: str, witness, family: Family, mode: str) -> RelationReport:
    """Evaluate a witness against every family member.

    Bounding: per-member least thresholds of member-rel-witness (capture
    by the witness).  Evading: per-member hit counts of the witness
    against the member.  Claims over the empty family hold vacuously.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "bounding":
        reports = tuple(least_threshold(rel, member, witness) for member in family)
        max_threshold = max((r.threshold for r in reports), default=0)
        return RelationReport(rel, mode, reports, None, max_threshold, math.inf)
    if rel not in HIT_RELATIONS:
        raise ValueError(f"evading mode needs relation in {HIT_RELATIONS}, got {rel!r}")
    if rel == "in":
        hits = tuple(hit_count("in", member, witness) for member in family)
    else:
        hits = tuple(hit_count("eq", witness, member) for member in family)
    min_hits = min(hits, default=math.inf)
    return RelationReport(rel, mode, None, hits, 0, min_hits)
