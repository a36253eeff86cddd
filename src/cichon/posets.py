"""Forcing-condition posets: Cohen, Hechler, eventually-different,
localization, and the Sacks/Laver tree kinds with their fusion orders.

In every order, a <= b reads "a strengthens b".  Trees are finite
approximations: prefix-closed node sets whose leaves all sit at the
working depth (the maximal node length), so that a node whose splitting
lies beyond the horizon is indistinguishable from a splitting one.  A
fusion order is the plain order plus a level clause per tree pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .combinatorics import MAX_NATURAL, Family, FinFunc, Slalom, _check_naturals, _check_shape
from .errors import HorizonMismatch, InvalidCondition, KindMismatch, MalformedInput

POSET_KINDS = ("cohen", "hechler", "e", "loc", "sacks", "laver", "product")
FUSION_KINDS = ("sacks", "laver", "product")

Node = tuple[int, ...]


class _Stem:
    """A stem condition; `_FIELDS` maps each field (its JSON key too), in order, to its class."""

    def __post_init__(self):
        for name, cls in self._FIELDS.items():
            if not isinstance(value := getattr(self, name), cls):  # label only on refusal
                _check_shape(value, cls, f"{self.kind} {name}")


@dataclass(frozen=True)
class CohenCond(_Stem):
    """A finite sequence; the order is end-extension."""

    _FIELDS = {"stem": FinFunc}
    stem: FinFunc
    kind: str = field(default="cohen", init=False)


@dataclass(frozen=True)
class HechlerCond(_Stem):
    """Simplified form: an initial-segment stem with a single side function
    over the working horizon."""

    _FIELDS = {"stem": FinFunc, "side": FinFunc}
    stem: FinFunc
    side: FinFunc
    kind: str = field(default="hechler", init=False)


@dataclass(frozen=True)
class ECond(_Stem):
    """Stem plus a side family; new stem values must avoid every side value."""

    _FIELDS = {"stem": FinFunc, "side": Family}
    stem: FinFunc
    side: Family
    kind: str = field(default="e", init=False)


@dataclass(frozen=True)
class LocCond(_Stem):
    """An identity-width slalom prefix plus a side family to be captured."""

    _FIELDS = {"prefix": Slalom, "side": Family}
    prefix: Slalom
    side: Family
    kind: str = field(default="loc", init=False)


@dataclass(frozen=True)
class FiniteTree:
    """A prefix-closed finite tree, either binary ("sacks") or
    natural-branching with a stem ("laver")."""

    kind: str
    nodes: frozenset[Node]

    def __post_init__(self):
        try:  # before hashing: an array or object entry cannot be hashed
            types = set(map(type, chain.from_iterable(self.nodes)))
        except TypeError:
            raise MalformedInput(f"{self.kind} nodes must be sequences") from None
        if not types <= {int}:
            raise MalformedInput(f"{self.kind} node entries must be natural numbers")
        # so every node prints; a smaller negative entry is an alphabet violation
        if max(map(abs, self._entries), default=0) >= MAX_NATURAL:
            raise MalformedInput(f"{self.kind} node entries must be below 10**4000 in magnitude")
        object.__setattr__(self, "nodes", frozenset(map(tuple, self.nodes)))

    @property
    def depth(self) -> int:
        """Working depth: the maximal node length."""
        return max(map(len, self.nodes), default=0)

    @cached_property
    def _entries(self) -> frozenset[int]:
        """The distinct node entries."""
        return frozenset(chain.from_iterable(self.nodes))

    @cached_property
    def _fanout(self) -> dict[Node, int]:
        """Child count of every parent of a node: the tree's one index."""
        return dict(Counter(map(itemgetter(slice(None, -1)), self.nodes - {()})))

    @cached_property
    def _split_levels(self) -> dict[Node, int]:
        """Splitting level (splitting proper prefixes) of each splitting node.
        Read only from valid, so prefix-closed, trees: shortest first, a node
        takes its nearest splitting proper prefix's level plus 1, else 0."""
        levels: dict[Node, int] = {}
        for node in sorted((node for node, count in self._fanout.items() if count >= 2), key=len):
            cut = len(node) - 1
            while cut >= 0 and node[:cut] not in levels:
                cut -= 1
            levels[node] = levels[node[:cut]] + 1 if cut >= 0 else 0
        return levels

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(_validate_tree(self))

    # no library path calls it: kept as a bench/tracing.py target, which
    # tests/test_tracing.py requires to resolve
    def children(self, node: Node) -> list[Node]:
        return sorted(kid for kid in self.nodes if kid and kid[:-1] == node)


@dataclass(frozen=True)
class ProductCond:
    """A Sacks tree paired with a Laver tree, ordered componentwise."""

    sacks_part: FiniteTree
    laver_part: FiniteTree
    kind: str = field(default="product", init=False)


Condition = CohenCond | HechlerCond | ECond | LocCond | FiniteTree | ProductCond


# ---------------------------------------------------------------------------
# Validity


def _validate_tree(t: FiniteTree) -> list[str]:
    if () not in t.nodes:
        return ["tree must contain the root"]
    # a node breaks prefix closure iff its parent, a key of _fanout, is missing
    parents = set(t._fanout)
    missing = parents - t.nodes
    flagged = [(n, "not prefix-closed") for n in t.nodes if n[:-1] in missing] if missing else []
    if t.kind == "sacks" and not t._entries <= {0, 1}:
        flagged += [(n, "binary alphabet violated") for n in t.nodes if not {0, 1}.issuperset(n)]
    if t.kind == "laver" and min(t._entries, default=0) < 0:
        flagged += [(n, "natural alphabet violated") for n in t.nodes if min(n, default=0) < 0]
    # node order, so the message does not depend on how the set was built
    flagged.sort(key=lambda item: item[0])
    out = [f"{clause} at {list(node)}" for node, clause in flagged]
    depth, leaves = t.depth, t.nodes - parents
    if set(map(len, leaves)) != {depth}:
        for leaf in sorted(leaves):
            if len(leaf) != depth:
                out.append(f"leaf {list(leaf)} at depth {len(leaf)} != working depth {depth}")
    if t.kind not in ("sacks", "laver"):
        out.append(f"unknown tree kind {t.kind!r}")
    return out


def validate(cond: Condition) -> list[str]:
    """Structural invariant check; the empty list means valid.

    Violations are data, each naming the failed clause.
    """
    if isinstance(cond, CohenCond):
        return []
    if isinstance(cond, (HechlerCond, ECond)):
        side = "side" if cond.kind == "hechler" else "family"
        fits = cond.stem.horizon <= cond.side.horizon
        return [] if fits else [f"stem horizon <= {side} horizon"]
    if isinstance(cond, LocCond):
        s = cond.prefix
        out = [f"|s(n)| <= n at n={n}" for n in range(s.horizon) if len(s[n]) > n]
        if len(cond.side) > s.horizon:
            out.append("|F| <= |s|")
        if s.horizon > cond.side.horizon:
            out.append("|s| <= side horizon")
        return out
    if isinstance(cond, FiniteTree):
        return list(cond._violations)
    if isinstance(cond, ProductCond):
        out = []
        if getattr(cond.sacks_part, "kind", None) != "sacks":
            out.append("first component must be a sacks tree")
        if getattr(cond.laver_part, "kind", None) != "laver":
            out.append("second component must be a laver tree")
        for part in (cond.sacks_part, cond.laver_part):
            if isinstance(part, FiniteTree):
                out.extend(part._violations)
        return out
    raise KindMismatch(f"not a condition: {type(cond).__name__}")


def require_valid(cond: Condition, kind: str) -> Condition:
    """The condition itself; else KindMismatch if it is not of the given
    kind, or InvalidCondition naming every violation."""
    got = getattr(cond, "kind", type(cond).__name__)
    if got != kind:
        raise KindMismatch(f"expected {kind!r} condition, got {got!r}")
    violations = validate(cond)
    if violations:
        raise InvalidCondition(violations)
    return cond


# ---------------------------------------------------------------------------
# Orders

# The sides of a and b must share a horizon; the message per kind.
_SIDE_HORIZONS = {
    "hechler": "hechler sides live on different horizons",
    "e": "e-condition families live on different horizons",
    "loc": "loc-condition families live on different horizons",
}


def leq(kind: str, a: Condition, b: Condition) -> bool:
    """True iff a strengthens b in the given poset."""
    require_valid(a, kind)
    require_valid(b, kind)
    if kind in FUSION_KINDS:  # the tree kinds: node containment per tree pair
        return all(x.nodes <= y.nodes for x, y in _tree_pairs(a, b))
    if kind in _SIDE_HORIZONS and a.side.horizon != b.side.horizon:
        raise HorizonMismatch(_SIDE_HORIZONS[kind])
    # a's head (its stem, or a loc prefix) end-extends b's; past b's it is new
    head, old = (c.prefix.cells if kind == "loc" else c.stem.values for c in (a, b))
    if head[: len(old)] != old:
        return False
    if kind in ("e", "loc") and not {f.values for f in b.side} <= {f.values for f in a.side}:
        return False
    new = range(len(old), len(head))
    if kind == "hechler":
        return all(a.stem[n] >= b.side[n] for n in new) and all(
            a.side[n] >= b.side[n] for n in range(b.side.horizon)
        )
    if kind == "e":
        return all(a.stem[n] != f[n] for n in new for f in b.side)
    if kind == "loc":
        return all(f[n] in a.prefix[n] for n in new for f in b.side)
    return True  # cohen: end-extension is the whole order


def _tree_pairs(a: FiniteTree | ProductCond, b: FiniteTree | ProductCond):
    """The tree pairs a tree order compares: the trees, or a product's parts."""
    if isinstance(a, ProductCond):
        return ((a.sacks_part, b.sacks_part), (a.laver_part, b.laver_part))
    return ((a, b),)


# ---------------------------------------------------------------------------
# Fusion machinery


def splitting_nodes(tree: FiniteTree, n: int) -> list[Node]:
    """Splitting nodes with exactly n splitting proper predecessors."""
    require_valid(tree, "sacks")
    _check_naturals((n,), "splitting level")
    return sorted(node for node, level in tree._split_levels.items() if level == n)


def canonical_enum(tree: FiniteTree) -> list[Node]:
    """Nodes strictly above the stem in length-then-lexicographic order."""
    # in a valid tree each length up to the stem's has one node, a stem prefix,
    # and the stem is the shortest splitting node, or the leaf of a chain
    fanout = require_valid(tree, "laver")._fanout
    height = min((len(node) for node, count in fanout.items() if count >= 2), default=tree.depth)
    above = sorted(node for node in tree.nodes if len(node) > height)
    above.sort(key=len)  # stable: lexicographic within a length
    return above


def fusion_leq(kind: str, a: Condition, b: Condition, n: int) -> bool:
    """The n-th fusion order: the plain order `leq` first, then, per compared
    tree pair, the first n + 1 splitting levels (sacks) or canonical nodes
    (laver) kept.

    Levels accumulate, so the orders nest: fusion at n + 1 implies fusion
    at n implies the plain order.  Levels past the last one a tree has are
    empty, so the cost does not grow with n.
    """
    _check_naturals((n,), "fusion index")
    if kind not in FUSION_KINDS:
        raise KindMismatch(f"fusion orders exist for {FUSION_KINDS}, got {kind!r}")
    return leq(kind, a, b) and all(_keeps_levels(x, y, n) for x, y in _tree_pairs(a, b))


def _keeps_levels(a: FiniteTree, b: FiniteTree, n: int) -> bool:
    """The n-th fusion clause for valid trees a <= b: a sacks tree keeps b's
    splitting levels up to n; a laver tree, b's first n + 1 canonical nodes."""
    if a.kind == "sacks":
        theirs = b._split_levels
        return all(theirs.get(node) == level for node, level in a._split_levels.items() if level <= n)
    return canonical_enum(a)[: n + 1] == canonical_enum(b)[: n + 1]


# ---------------------------------------------------------------------------
# JSON codec (tagged union)


def condition_to_obj(cond: Condition):
    kind = getattr(cond, "kind", None)
    if isinstance(cond, _Stem):  # a field's name is its key; a loc prefix is its cells alone
        obj = {"kind": kind}
        for name in cond._FIELDS:
            obj[name] = [sorted(c) for c in v.cells] if isinstance(v := getattr(cond, name), Slalom) else v.to_obj()
        return obj
    if isinstance(cond, FiniteTree):
        return {"kind": kind, "nodes": [list(node) for node in sorted(cond.nodes)]}
    if isinstance(cond, ProductCond):
        return {
            "kind": kind,
            "sacks": condition_to_obj(cond.sacks_part),
            "laver": condition_to_obj(cond.laver_part),
        }
    raise KindMismatch(f"not a condition: {type(cond).__name__}")


def condition_from_obj(obj) -> Condition:
    kind = _check_shape(obj, dict, "condition", ("kind",))["kind"]
    for stem in (CohenCond, HechlerCond, ECond, LocCond):  # by equality: a kind may be unhashable
        if kind == stem.kind:
            _check_shape(obj, dict, f"{kind} condition", tuple(stem._FIELDS))
            values = []  # a loop, not a comprehension: no frame per call on Python 3.11
            for name, cls in stem._FIELDS.items():
                if cls is Slalom:  # a loc prefix is read from its cells alone, at identity width
                    values.append(Slalom.identity_width(_check_shape(obj[name], list, "loc prefix", items=list)))
                else:
                    values.append(cls.from_obj(obj[name]))
            return stem(*values)
    if kind in ("sacks", "laver"):
        return _tree_from_obj(obj)
    if kind == "product":
        _check_shape(obj, dict, "product condition", ("sacks", "laver"))
        return ProductCond(_tree_from_obj(obj["sacks"]), _tree_from_obj(obj["laver"]))
    raise MalformedInput(f"unknown condition kind {kind!r}")


def _tree_from_obj(obj) -> FiniteTree:
    """A sacks or laver tree, also as a product component (never a product)."""
    kind = _check_shape(obj, dict, "tree", ("kind", "nodes"))["kind"]
    if kind not in ("sacks", "laver"):
        raise MalformedInput(f"expected a sacks or laver tree, got {kind!r}")
    nodes = _check_shape(obj["nodes"], list, f"{kind} nodes", items=list)
    return FiniteTree(kind, nodes)
