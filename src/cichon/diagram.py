"""The eight-node inclusion diagram: reachability, emptiness propagation,
cut enumeration, and the forcing knowledge base.

Nodes name the bounding/non-dominating regions of the four threshold
relations of `combinatorics.RELATIONS`; those of eventual equality are the
always-empty bottom and all new reals.  Arrows are inclusions, so
nonemptiness flows up the arrows and emptiness flows down; a cut is an
upward-closed set of nonempty nodes.  The knowledge base records, per
classical forcing, which regions its extension makes nonempty and which
equalities between regions are asserted, left open, or refuted.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
from dataclasses import dataclass

from .combinatorics import FinFunc, _check_shape, dump_json
from .constructions import block_encode, singleton_slalom, slalom_dominator, weave
from .errors import MalformedInput, UnknownForcing

NODES = ("Empty", "BIn", "BLeq", "BNeq", "DNeq", "DLeq", "DIn", "AllNew")
REGION_NODES = NODES[1:]

# Each relation R by its name in `combinatorics.RELATIONS`, as its node pair
# (B(R), D(R)); its dual "R*" (x R* y iff not y R x) is the pair reversed.
PAIRS = {"eq": ("Empty", "AllNew"), "in": ("BIn", "DIn"), "leq": ("BLeq", "DLeq"), "neq": ("BNeq", "DNeq")}
PAIRS |= {f"{name}*": pair[::-1] for name, pair in PAIRS.items()}

# The morphisms (R, S, phi+, phi-, link) of Brendle, Brooke-Taylor, Ng and
# Nies after Blass: phi-(x) R y => x S phi+(y) (phi- None: the identity), so
# B(R) is in B(S) and D(S) in D(R); link is the finite implication, "on
# [k, N)" meaning at every position from k to the horizon N.  Over a finite
# ground set G, B(=*) is empty only when two members of G differ on [k, N).
MORPHISMS = (
    ("eq", "in", singleton_slalom, None, "f = g on [k, N) => f in singleton_slalom(g) on [k, N)"),
    ("in", "leq", slalom_dominator, None, "f in sigma on [k, N) => f <= max(sigma) on [k, N)"),
    ("leq", "neq", FinFunc.successor, None, "f <= z on [k, N) => f != z + 1 on [k, N)"),
    ("in", "neq*", weave, block_encode, "block_encode(f, S.width)[n] is code j of S[n] => f = weave(S) at the j-th position of J_n"),
    ("leq", "leq*", FinFunc.successor, None, "g <= z on [k, N) => z + 1 <= g fails at every n in [k, N)"),
)
# Each arrow a -> b, the inclusion of a in b, mapped to its morphism row: the
# B(R) -> B(S) arrows in row order, then the D(S) -> D(R) arrows in reverse.
EDGES = {(PAIRS[m[0]][0], PAIRS[m[1]][0]): m for m in MORPHISMS}
EDGES |= {(PAIRS[m[1]][1], PAIRS[m[0]][1]): m for m in reversed(MORPHISMS)}

EMPTINESS = ("empty", "nonempty", "unknown")
SEPARATORS = ("distinct", "unknown")


def _paths_from(start: str) -> dict[str, tuple[str, ...]]:
    """Every node start reaches, itself included, mapped to the first
    shortest arrow path to it, in breadth-first order over EDGES."""
    paths = {start: (start,)}
    queue = [start]
    for node in queue:
        for a, b in EDGES:
            if a == node and b not in paths:
                paths[b] = paths[node] + (b,)
                queue.append(b)
    return paths


_PATHS = {node: _paths_from(node) for node in NODES}
# Nodes strictly reachable from each node along the arrows.
REACHABLE = {node: frozenset(paths) - {node} for node, paths in _PATHS.items()}

# Position of each node in diagram order, the one sort key for node lists.
NODE_RANK = {node: i for i, node in enumerate(NODES)}


def is_upward_closed(nonempty: frozenset[str]) -> bool:
    return all(REACHABLE[node] <= nonempty for node in nonempty)


@dataclass(frozen=True)
class Cut:
    """An upward-closed set of region nodes, with its realizing forcing."""

    nonempty: frozenset[str]
    realized_by: str | None = None

    def to_obj(self):
        nonempty = sorted(self.nonempty, key=NODE_RANK.get)
        return {"nonempty": nonempty, "realized_by": self.realized_by}


@dataclass(frozen=True)
class Contradiction:
    """A node forced both empty and nonempty, with the implication chain."""

    node: str
    chain: tuple[str, ...]

    @property
    def witnesses(self) -> tuple:
        """Each chain step's morphism row in EDGES (None if it is no arrow)."""
        return tuple(map(EDGES.get, zip(self.chain, self.chain[1:])))


@dataclass(frozen=True)
class DiagramState:
    """Per-node emptiness plus an optional equality-class structure.

    Classes partition the region nodes in diagram order; separators[i]
    records whether classes i and i+1 are asserted distinct or left open.
    Every field is checked when the state is built (MalformedInput).
    """

    emptiness: dict[str, str]
    classes: tuple[tuple[str, ...], ...] | None = None
    separators: tuple[str, ...] | None = None
    citation: str | None = None

    def __post_init__(self):
        emptiness = {node: "unknown" for node in NODES}
        emptiness.update(_check_shape(self.emptiness, dict, "diagram emptiness"))
        for node, value in emptiness.items():
            if node not in NODES:
                raise MalformedInput(f"unknown diagram node {node!r}")
            if value not in EMPTINESS:
                raise MalformedInput(f"unknown emptiness value {value!r}")
        if emptiness["Empty"] == "nonempty":
            raise MalformedInput("diagram node 'Empty' cannot be nonempty")
        emptiness["Empty"] = "empty"
        object.__setattr__(self, "emptiness", emptiness)
        if self.citation is not None:
            _check_shape(self.citation, str, "diagram citation")
        if self.classes is None:
            if self.separators is not None:
                raise MalformedInput("diagram separators need classes")
            return
        rows = _check_shape(self.classes, (list, tuple), "diagram classes")
        classes = tuple(tuple(_check_shape(row, (list, tuple), "diagram class")) for row in rows)
        object.__setattr__(self, "classes", classes)
        # membership only, so no member of another type is compared or hashed
        seen = [node for cls in classes for node in cls]
        if not all(classes) or len(seen) != len(REGION_NODES) or not all(node in seen for node in REGION_NODES):
            raise MalformedInput("classes must partition the seven region nodes")
        separators = tuple(_check_shape(self.separators, (list, tuple), "diagram separators"))
        if len(separators) != len(classes) - 1:
            raise MalformedInput("need one separator between consecutive classes")
        if any(sep not in SEPARATORS for sep in separators):
            raise MalformedInput(f"separators must be in {SEPARATORS}")
        object.__setattr__(self, "separators", separators)

    def nonempty_set(self) -> frozenset[str]:
        return frozenset(
            node for node in REGION_NODES if self.emptiness[node] == "nonempty"
        )

    def class_violations(self) -> list[str]:
        """Nodes in one class must share an emptiness value."""
        if self.classes is None:
            return []
        out = []
        for cls in self.classes:
            values = {self.emptiness[node] for node in cls}
            if len(values) > 1:
                out.append(f"class {list(cls)} mixes emptiness values {sorted(values)}")
        return out

    def to_obj(self):
        obj = {"emptiness": {node: self.emptiness[node] for node in NODES}}
        if self.classes is not None:
            obj["classes"] = [list(cls) for cls in self.classes]
            obj["separators"] = list(self.separators)
        if self.citation is not None:
            obj["citation"] = self.citation
        return obj

    @classmethod
    def from_obj(cls, obj) -> "DiagramState":
        _check_shape(obj, dict, "diagram state", ("emptiness",))
        return cls(*map(obj.get, ("emptiness", "classes", "separators", "citation")))


# ---------------------------------------------------------------------------
# Propagation


def propagate(state: DiagramState) -> DiagramState | Contradiction:
    """Close the state under the inclusion semantics of the arrows.

    A nonempty node makes everything it reaches nonempty; an empty node
    makes everything reaching it empty.  An empty node reachable from a
    nonempty one is reported as a Contradiction: the first such pair in
    diagram order, then breadth-first order, with the shortest arrow path
    between them as its chain.  Emptiness only spreads to nodes the upward
    pass left alone, so the downward pass cannot contradict.
    """
    values = dict(_check_shape(state, DiagramState, "diagram state").emptiness)
    for node in NODES:
        if values[node] == "nonempty":
            for other, chain in _PATHS[node].items():
                if values[other] == "empty":
                    return Contradiction(other, chain)
                values[other] = "nonempty"
    for node in NODES:
        if values[node] == "empty":
            for other in NODES:
                if node in REACHABLE[other]:
                    values[other] = "empty"
    return dataclasses.replace(state, emptiness=values)


# ---------------------------------------------------------------------------
# Cut enumeration


def enumerate_cuts() -> list[Cut]:
    """All upward-closed subsets of the seven region nodes, each paired
    with its realizing forcing, in (size, node order) order."""
    realizers = {kb_lookup(name).nonempty_set(): name for name in kb_names()}
    sizes = range(len(REGION_NODES) + 1)
    subsets = (frozenset(c) for size in sizes for c in itertools.combinations(REGION_NODES, size))
    return [Cut(subset, realizers.get(subset)) for subset in subsets if is_upward_closed(subset)]


# ---------------------------------------------------------------------------
# Knowledge base


@functools.cache
def _load_kb() -> dict[str, DiagramState]:
    """The knowledge base's profiles by forcing name, each entry's fields
    checked as it is decoded; tests check the profiles' soundness."""
    with open(os.path.join(os.path.dirname(__file__), "data", "kb.json"), encoding="utf-8") as f:
        profiles = json.load(f)["profiles"]
    return {name: DiagramState.from_obj(entry) for name, entry in profiles.items()}


def kb_names() -> list[str]:
    return sorted(_load_kb())


def kb_lookup(name: str) -> DiagramState:
    profiles = _load_kb()
    if _check_shape(name, str, "forcing name") not in profiles:
        raise UnknownForcing(f"no knowledge-base entry for {name!r}")
    return profiles[name]


# ---------------------------------------------------------------------------
# Rendering


def emit_json(state: DiagramState) -> str:
    return dump_json(_check_shape(state, DiagramState, "diagram state").to_obj())


# emptiness value -> its DOT node attributes
_DOT_STYLES = {"empty": " [style=filled, fillcolor=gray85]", "unknown": " [style=dashed]", "nonempty": ""}


def emit_dot(state: DiagramState) -> str:
    """Render as a DOT digraph: shaded = empty, dashed border = unknown,
    plain = nonempty; equality classes become same-rank clusters."""
    _check_shape(state, DiagramState, "diagram state")
    lines = ["digraph cichon {", "  rankdir=LR;", '  node [shape=box];']
    for node in NODES:
        lines.append(f'  "{node}"{_DOT_STYLES[state.emptiness[node]]};')
    if state.classes is not None:
        for i, cls in enumerate(state.classes):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append("    rank=same;")
            for node in cls:
                lines.append(f'    "{node}";')
            lines.append("  }")
    for a, b in EDGES:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
