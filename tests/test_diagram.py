"""Diagram shape, propagation, cut enumeration against brute force, the
knowledge base region-for-region, and rendering."""

import inspect
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

import cichon
from cichon import (
    Contradiction,
    DiagramState,
    FinFunc,
    emit_dot,
    emit_json,
    enumerate_cuts,
    kb_lookup,
    kb_names,
    propagate,
    slalom_dominator,
    weave,
)
from cichon.combinatorics import RELATIONS
from cichon.diagram import EDGES, MORPHISMS, NODE_RANK, NODES, PAIRS, REGION_NODES
from cichon.errors import UnknownForcing

EXPECTED_EDGES = {
    ("Empty", "BIn"),
    ("BIn", "BLeq"),
    ("BLeq", "BNeq"),
    ("BIn", "DNeq"),
    ("BLeq", "DLeq"),
    ("BNeq", "DIn"),
    ("DNeq", "DLeq"),
    ("DLeq", "DIn"),
    ("DIn", "AllNew"),
}

# The recorded per-forcing regions: emptiness pattern, equality classes in
# diagram order, and which adjacent separations stay open.
EXPECTED_PROFILES = {
    "sacks": (
        {"AllNew"},
        [["BIn", "BLeq", "BNeq", "DNeq", "DLeq", "DIn"], ["AllNew"]],
        ["distinct"],
    ),
    "cohen": (
        {"DNeq", "DLeq", "DIn", "AllNew"},
        [["BIn", "BLeq", "BNeq"], ["DNeq", "DLeq", "DIn", "AllNew"]],
        ["distinct"],
    ),
    "hechler": (
        {"BLeq", "BNeq", "DNeq", "DLeq", "DIn", "AllNew"},
        [["BIn"], ["BLeq", "BNeq"], ["DNeq", "DLeq", "DIn", "AllNew"]],
        ["distinct", "distinct"],
    ),
    "e": (
        {"BNeq", "DNeq", "DLeq", "DIn", "AllNew"},
        [["BIn", "BLeq"], ["BNeq"], ["DNeq", "DLeq", "DIn", "AllNew"]],
        ["distinct", "distinct"],
    ),
    "loc": (
        set(REGION_NODES),
        [["BIn"], ["BLeq"], ["BNeq"], ["DNeq"], ["DLeq"], ["DIn"], ["AllNew"]],
        ["distinct", "distinct", "distinct", "unknown", "unknown", "distinct"],
    ),
    "random": (
        {"BNeq", "DIn", "AllNew"},
        [["BIn", "BLeq", "DNeq", "DLeq"], ["BNeq", "DIn", "AllNew"]],
        ["distinct"],
    ),
    "laver": (
        {"BLeq", "BNeq", "DLeq", "DIn", "AllNew"},
        [["BIn", "DNeq"], ["BLeq", "BNeq", "DLeq", "DIn", "AllNew"]],
        ["distinct"],
    ),
    "miller": (
        {"DLeq", "DIn", "AllNew"},
        [["BIn", "BLeq", "BNeq", "DNeq"], ["DLeq", "DIn", "AllNew"]],
        ["distinct"],
    ),
    "ee": (
        {"DIn", "AllNew"},
        [["BIn", "BLeq", "BNeq", "DNeq", "DLeq"], ["DIn"], ["AllNew"]],
        ["distinct", "unknown"],
    ),
    "b-then-pt": (
        {"BNeq", "DLeq", "DIn", "AllNew"},
        [["BIn", "BLeq", "DNeq"], ["BNeq"], ["DLeq"], ["DIn"], ["AllNew"]],
        ["distinct", "unknown", "unknown", "unknown"],
    ),
    "trivial": (
        set(),
        [["BIn", "BLeq", "BNeq", "DNeq", "DLeq", "DIn", "AllNew"]],
        [],
    ),
}


def brute_force_cuts():
    """Independent oracle: filter all 2^7 subsets by the edge rule."""
    edges = [(a, b) for a, b in EXPECTED_EDGES if a != "Empty"]
    cuts = []
    for size in range(len(REGION_NODES) + 1):
        for subset in itertools.combinations(REGION_NODES, size):
            chosen = set(subset)
            if all(b in chosen for a, b in edges if a in chosen):
                cuts.append(frozenset(chosen))
    return set(cuts)


# ---------------------------------------------------------------------------
# Shape


def test_diagram_shape():
    nodes, edges = NODES, EDGES
    assert len(nodes) == 8
    assert len(edges) == 9
    assert set(edges) == EXPECTED_EDGES


def test_five_morphisms_give_the_nine_arrows():
    """Each row R -> S gives B(R) -> B(S) and D(S) -> D(R): nine distinct
    arrows from five rows, the self-dual row giving one arrow twice; their
    order in EDGES is the one HECHLER_DOT pins.  Every phi+ is unary, and the
    rows name only the relations of `combinatorics.RELATIONS` and their duals."""
    assert {name.removesuffix("*") for name in PAIRS} == set(RELATIONS)
    arrows = [((PAIRS[r][0], PAIRS[s][0]), (PAIRS[s][1], PAIRS[r][1])) for r, s, *_ in MORPHISMS]
    assert len(MORPHISMS) == 5
    assert len({arrow for pair in arrows for arrow in pair}) == 9
    assert [b == d for b, d in arrows] == [False] * 4 + [True]
    assert all(EDGES[arrow] is row for row, pair in zip(MORPHISMS, arrows) for arrow in pair)
    assert EDGES["Empty", "BIn"] is EDGES["DIn", "AllNew"]
    for *_, plus, minus, link in MORPHISMS:
        assert callable(plus) and (minus is None or callable(minus))
        # phi+ takes y alone: the weave reads its blocks from its slalom's width
        assert len(inspect.signature(plus).parameters) == 1, plus
        assert isinstance(link, str) and link.strip()


def test_two_paths_to_din():
    from cichon.diagram import REACHABLE

    assert "DIn" in REACHABLE["BLeq"]
    paths = [("BLeq", "BNeq", "DIn"), ("BLeq", "DLeq", "DIn")]
    for path in paths:
        for a, b in zip(path, path[1:]):
            assert (a, b) in EXPECTED_EDGES


def test_no_side_edge_between_bneq_and_dneq():
    from cichon.diagram import REACHABLE

    assert "DNeq" not in REACHABLE["BNeq"]
    assert "BNeq" not in REACHABLE["DNeq"]
    assert "DNeq" not in REACHABLE["BLeq"]


# ---------------------------------------------------------------------------
# Propagation


def test_propagate_nonempty_up():
    state = DiagramState(emptiness={"BLeq": "nonempty"})
    closed = propagate(state)
    assert not isinstance(closed, Contradiction)
    for node in ("BNeq", "DLeq", "DIn", "AllNew"):
        assert closed.emptiness[node] == "nonempty"
    for node in ("BIn", "DNeq"):
        assert closed.emptiness[node] == "unknown"


def test_propagate_all_unknown():
    closed = propagate(DiagramState(emptiness={}))
    assert not isinstance(closed, Contradiction)
    assert closed.emptiness["Empty"] == "empty"
    assert all(closed.emptiness[node] == "unknown" for node in REGION_NODES)


def test_propagate_empty_down():
    closed = propagate(DiagramState(emptiness={"DIn": "empty"}))
    assert not isinstance(closed, Contradiction)
    for node in ("BIn", "BLeq", "BNeq", "DNeq", "DLeq"):
        assert closed.emptiness[node] == "empty"
    assert closed.emptiness["AllNew"] == "unknown"


def test_propagate_contradiction():
    result = propagate(DiagramState(emptiness={"DIn": "empty", "BIn": "nonempty"}))
    assert isinstance(result, Contradiction)
    assert result.node == "DIn"
    assert result.chain[0] == "BIn" and result.chain[-1] == "DIn"
    for a, b in zip(result.chain, result.chain[1:]):
        assert (a, b) in EXPECTED_EDGES


def brute_distances():
    """Arrow-path length of every (start, end) pair joined by a path, a node
    to itself included, by relaxing EXPECTED_EDGES to a fixpoint."""
    dist = {(node, node): 0 for node in NODES}
    changed = True
    while changed:
        changed = False
        for a, b in EXPECTED_EDGES:
            for (start, end), d in list(dist.items()):
                if end == a and d + 1 < dist.get((start, b), len(NODES)):
                    dist[start, b] = d + 1
                    changed = True
    return dist


def all_states():
    for values in itertools.product(("empty", "nonempty", "unknown"), repeat=7):
        yield DiagramState(dict(zip(REGION_NODES, values)))


def test_propagate_matches_brute_force_on_every_state():
    """A contradiction exactly when a nonempty node reaches an empty one,
    with a shortest arrow path between them as its chain; otherwise the
    closure nonempty-up, empty-down."""
    dist = brute_distances()
    contradictions = 0
    for state in all_states():
        given = state.emptiness
        nonempty = {node for node in NODES if given[node] == "nonempty"}
        empty = {node for node in NODES if given[node] == "empty"}
        result = propagate(state)
        if any((up, down) in dist for up in nonempty for down in empty):
            contradictions += 1
            assert isinstance(result, Contradiction)
            chain = result.chain
            assert given[chain[0]] == "nonempty" and given[result.node] == "empty"
            assert chain[-1] == result.node
            assert all(pair in EXPECTED_EDGES for pair in zip(chain, chain[1:]))
            assert len(chain) - 1 == dist[chain[0], result.node]
        else:
            above = {end for start, end in dist if start in nonempty}
            below = {start for start, end in dist if end in empty}
            assert result.emptiness == {
                node: "nonempty" if node in above else "empty" if node in below else "unknown"
                for node in NODES
            }
    assert 0 < contradictions < 3**7


def test_contradiction_witnesses_follow_the_chain():
    """`witnesses` reads the morphism row of each arrow along the chain; it
    is not a field, so the repr and equality stay those of (node, chain)."""
    result = propagate(DiagramState({"DIn": "empty", "BIn": "nonempty"}))
    assert result == Contradiction("DIn", ("BIn", "BLeq", "BNeq", "DIn"))
    assert repr(result) == "Contradiction(node='DIn', chain=('BIn', 'BLeq', 'BNeq', 'DIn'))"
    assert result.witnesses == MORPHISMS[1:4]
    assert [plus for _, _, plus, _, _ in result.witnesses] == [slalom_dominator, FinFunc.successor, weave]
    for state in all_states():
        result = propagate(state)
        if isinstance(result, Contradiction):
            assert len(result.witnesses) == len(result.chain) - 1
            assert None not in result.witnesses
    assert Contradiction("BIn", ("BIn",)).witnesses == ()
    assert Contradiction("DIn", ("BIn", "DIn")).witnesses == (None,)


SWEEP = """
from test_diagram import all_states
from cichon import propagate
for state in all_states():
    print(propagate(state))
"""


def test_propagate_independent_of_hash_seed():
    """Which contradiction is reported, and its chain, do not depend on
    set iteration order."""
    paths = [os.path.dirname(os.path.dirname(cichon.__file__)), os.path.dirname(__file__)]
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", SWEEP],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(done.stdout.splitlines())
    first, second = outputs
    assert len(first) == len(second) == 3**7
    assert [pair for pair in zip(first, second) if pair[0] != pair[1]] == []


def test_propagate_idempotent_on_profiles():
    for name in kb_names():
        state = kb_lookup(name)
        closed = propagate(state)
        assert not isinstance(closed, Contradiction)
        assert closed.emptiness == state.emptiness


# ---------------------------------------------------------------------------
# Cuts


def test_enumerate_cuts_count_and_oracle():
    """Eleven cuts, the brute-force ones, by size and then node order."""
    cuts = enumerate_cuts()
    assert len(cuts) == 11
    assert {cut.nonempty for cut in cuts} == brute_force_cuts()
    keys = [(len(cut.nonempty), sorted(map(NODE_RANK.get, cut.nonempty))) for cut in cuts]
    assert keys == sorted(keys)


def test_cut_realizers_bijective():
    cuts = enumerate_cuts()
    realizers = [cut.realized_by for cut in cuts]
    assert None not in realizers
    assert sorted(realizers) == sorted(kb_names())
    for cut in cuts:
        assert kb_lookup(cut.realized_by).nonempty_set() == cut.nonempty


def test_full_cut_and_non_cut():
    cuts = {cut.nonempty for cut in enumerate_cuts()}
    assert frozenset(REGION_NODES) in cuts
    assert frozenset({"BLeq", "DNeq"}) not in cuts


# ---------------------------------------------------------------------------
# Knowledge base


def test_kb_profiles_match_recorded_regions():
    assert set(kb_names()) == set(EXPECTED_PROFILES)
    for name, (nonempty, classes, separators) in EXPECTED_PROFILES.items():
        state = kb_lookup(name)
        assert state.nonempty_set() == frozenset(nonempty), name
        assert [list(cls) for cls in state.classes] == classes, name
        assert list(state.separators) == separators, name
        assert state.citation


def test_kb_nonempty_sets_upward_closed():
    from cichon.diagram import is_upward_closed

    for name in kb_names():
        assert is_upward_closed(kb_lookup(name).nonempty_set()), name


def test_kb_classes_share_emptiness():
    for name in kb_names():
        assert kb_lookup(name).class_violations() == [], name


def test_class_violations_name_a_mixed_class():
    state = DiagramState(
        {"BIn": "nonempty"}, (REGION_NODES[:2], REGION_NODES[2:]), ("distinct",)
    )
    assert state.class_violations() == [
        "class ['BIn', 'BLeq'] mixes emptiness values ['nonempty', 'unknown']"
    ]
    assert DiagramState({}).class_violations() == []


def test_kb_unknown_forcing():
    with pytest.raises(UnknownForcing):
        kb_lookup("solovay")


def test_sacks_profile_example():
    state = kb_lookup("sacks")
    assert state.nonempty_set() == frozenset({"AllNew"})


def test_hechler_profile_example():
    state = kb_lookup("hechler")
    assert state.emptiness["BIn"] == "empty"
    assert ("BLeq", "BNeq") in {tuple(cls) for cls in state.classes}
    assert ("DNeq", "DLeq", "DIn", "AllNew") in {tuple(cls) for cls in state.classes}


def test_random_profile_example():
    state = kb_lookup("random")
    for node in ("BIn", "BLeq", "DNeq", "DLeq"):
        assert state.emptiness[node] == "empty"
    assert ("BNeq", "DIn", "AllNew") in {tuple(cls) for cls in state.classes}


# ---------------------------------------------------------------------------
# Rendering


def test_dot_has_nine_edges():
    for name in kb_names():
        dot = emit_dot(kb_lookup(name))
        assert dot.count(" -> ") == 9


DOT_NODE = re.compile(r'^  "(\w+)"(?: \[style=(\w+)[^\]]*\])?;$', re.M)
DOT_STYLES = {"filled": "empty", "dashed": "unknown", "": "nonempty"}


def test_dot_node_styles_read_back_as_emptiness():
    """Filled means empty, dashed means unknown and plain means nonempty, on
    every knowledge-base profile and on the all-unknown state."""
    states = [kb_lookup(name) for name in kb_names()] + [DiagramState(emptiness={})]
    for state in states:
        read = {node: DOT_STYLES[style] for node, style in DOT_NODE.findall(emit_dot(state))}
        assert read == state.emptiness


HECHLER_DOT = """digraph cichon {
  rankdir=LR;
  node [shape=box];
  "Empty" [style=filled, fillcolor=gray85];
  "BIn" [style=filled, fillcolor=gray85];
  "BLeq";
  "BNeq";
  "DNeq";
  "DLeq";
  "DIn";
  "AllNew";
  subgraph cluster_0 {
    rank=same;
    "BIn";
  }
  subgraph cluster_1 {
    rank=same;
    "BLeq";
    "BNeq";
  }
  subgraph cluster_2 {
    rank=same;
    "DNeq";
    "DLeq";
    "DIn";
    "AllNew";
  }
  "Empty" -> "BIn";
  "BIn" -> "BLeq";
  "BLeq" -> "BNeq";
  "BIn" -> "DNeq";
  "BLeq" -> "DLeq";
  "BNeq" -> "DIn";
  "DNeq" -> "DLeq";
  "DLeq" -> "DIn";
  "DIn" -> "AllNew";
}
"""


def test_dot_hechler_clusters():
    state = kb_lookup("hechler")
    dot = emit_dot(state)
    assert dot.count("subgraph cluster_") == 3
    nonempty_clusters = [
        cls for cls in state.classes if state.emptiness[cls[0]] == "nonempty"
    ]
    assert len(nonempty_clusters) == 2
    assert dot == HECHLER_DOT


def test_json_round_trip():
    for name in kb_names():
        state = kb_lookup(name)
        assert DiagramState.from_obj(json.loads(emit_json(state))) == state
        # a state holds its classes and separators as tuples, however given
        lists = [list(cls) for cls in state.classes], list(state.separators)
        tuples = tuple(map(tuple, state.classes)), tuple(state.separators)
        built = [DiagramState(state.emptiness, *fields, state.citation) for fields in (lists, tuples)]
        assert built[0] == built[1] == state


def test_emitted_json_is_sorted_and_stable():
    state = kb_lookup("cohen")
    assert emit_json(state) == emit_json(DiagramState.from_obj(json.loads(emit_json(state))))
    payload = json.loads(emit_json(state))
    assert set(payload["emptiness"]) == set(NODES)
