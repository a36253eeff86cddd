"""Threshold relations: frozen examples, a brute-force oracle, and the
tail-monotonicity invariants; the naturals check and the JSON emitter
against their definitions."""

import functools
import inspect
import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import cichon
from cichon import (
    BlockSlalom,
    CohenCond,
    DiagramState,
    ECond,
    Family,
    FinFunc,
    FiniteTree,
    HechlerCond,
    LocCond,
    ProductCond,
    Slalom,
    WidthProfile,
    block_encode,
    canonical_enum,
    emit_dot,
    emit_json,
    family_dominator,
    family_report,
    family_slalom,
    fusion_leq,
    hit_count,
    kb_lookup,
    least_avoider,
    least_threshold,
    leq,
    lift_loc_to_d,
    lift_loc_to_e,
    proj_loc_to_d,
    proj_loc_to_e,
    propagate,
    reduce_e,
    round_robin_ioe,
    singleton_slalom,
    slalom_dominator,
    splitting_nodes,
    sum_evader_bound,
    validate,
    weave,
)
from cichon.combinatorics import MAX_NATURAL, MAX_VALUES, _check_naturals, dump_json
from cichon.diagram import REGION_NODES
from cichon.errors import CichonError, HorizonMismatch, KindMismatch, MalformedInput
from cichon.posets import condition_from_obj, condition_to_obj

def _equal_length_pair(n):
    row = st.lists(st.integers(0, 50), min_size=n, max_size=n)
    return st.tuples(row, row)


pairs = st.integers(0, 12).flatmap(_equal_length_pair)


def oracle_threshold(rel, f, target):
    """Independent oracle: scan every tail start with its own predicate."""
    predicates = {
        "eq": lambda l: f[l] == target[l],
        "leq": lambda l: f[l] <= target[l],
        "neq": lambda l: f[l] != target[l],
        "in": lambda l: f[l] in target[l],
    }
    n = f.horizon
    for k in range(n + 1):
        if all(predicates[rel](l) for l in range(k, n)):
            return k
    raise AssertionError("k = n is always admissible")


def test_leq_example():
    report = least_threshold("leq", FinFunc((3, 1, 4, 1)), FinFunc((0, 2, 5, 5)))
    assert report.threshold == 1
    assert not report.vacuous


def test_leq_reflexive():
    f = FinFunc((9, 0, 3))
    report = least_threshold("leq", f, f)
    assert report.threshold == 0


def test_neq_vacuous_at_horizon():
    report = least_threshold("neq", FinFunc((5,)), FinFunc((5,)))
    assert report.threshold == 1
    assert report.vacuous


def test_in_example():
    sigma = Slalom(
        (frozenset(), frozenset({1}), frozenset({0, 4}), frozenset({1, 2, 9})),
        WidthProfile((0, 1, 2, 3)),
    )
    report = least_threshold("in", FinFunc((7, 1, 4, 1)), sigma)
    assert report.threshold == 1


def test_horizon_mismatch():
    with pytest.raises(HorizonMismatch):
        least_threshold("leq", FinFunc((1,)), FinFunc((1, 2)))
    with pytest.raises(HorizonMismatch):
        hit_count("eq", FinFunc((1,)), FinFunc((1, 2)))


def test_in_requires_slalom():
    with pytest.raises(ValueError):
        least_threshold("in", FinFunc((1,)), FinFunc((1,)))


F1 = FinFunc((1,))
TREE = FiniteTree("sacks", frozenset({()}))
LOC = LocCond(Slalom.identity_width([()]), Family((F1,), 1))
COHEN_PRODUCT = ProductCond(CohenCond(FinFunc(())), FiniteTree("laver", {()}))
FOO_TREE = FiniteTree("foo", [()])
E1 = ECond(F1, Family((), 1))
W1 = WidthProfile((1,))
# Diagram-state fields refused alike when decoded and when built directly.
BAD_STATES = {
    "node": {"emptiness": {"Nowhere": "empty"}},
    "value": {"emptiness": {"BIn": "maybe"}},
    # Empty is always empty: "nonempty" is refused, not rewritten
    "empty-value": {"emptiness": {"Empty": "maybe"}},
    "empty-number": {"emptiness": {"Empty": 3}},
    "empty-nonempty": {"emptiness": {"Empty": "nonempty"}},
    "emptiness-number": {"emptiness": 5},
    "classes": {"emptiness": {}, "classes": [["BIn"]]},
    # all seven nodes and one separator per gap, so only the empty class refuses
    "empty-class": {"emptiness": {}, "classes": [list(REGION_NODES), []], "separators": ["distinct"]},
    # seven members under valid separators, so only the partition rule refuses
    "classes-duplicate-for-missing": {
        "emptiness": {},
        "classes": [[REGION_NODES[0], REGION_NODES[0]], list(REGION_NODES[2:])],
        "separators": ["distinct"],
    },
    "classes-extra-duplicate": {
        "emptiness": {},
        "classes": [list(REGION_NODES), [REGION_NODES[0]]],
        "separators": ["distinct"],
    },
    "separator-count": {
        "emptiness": {}, "classes": [list(REGION_NODES)], "separators": ["distinct"]
    },
    "separator-value": {
        "emptiness": {},
        "classes": [list(REGION_NODES[:1]), list(REGION_NODES[1:])],
        "separators": ["maybe"],
    },
    "separators-empty": {
        "emptiness": {},
        "classes": [list(REGION_NODES[:1]), list(REGION_NODES[1:])],
        "separators": [],
    },
    "separators-without-classes": {"emptiness": {}, "separators": []},
    "separators-missing": {
        "emptiness": {}, "classes": [list(REGION_NODES[:1]), list(REGION_NODES[1:])]
    },
    "classes-number": {"emptiness": {}, "classes": 5},
    "class-number": {"emptiness": {}, "classes": [5]},
    "class-member-number": {"emptiness": {}, "classes": [["BIn", 1]]},
    "class-member-list": {"emptiness": {}, "classes": [["BIn", ["BIn"]]]},
    "separators-number": {"emptiness": {}, "classes": [list(REGION_NODES)], "separators": 5},
    "separator-number": {
        "emptiness": {},
        "classes": [list(REGION_NODES[:1]), list(REGION_NODES[1:])],
        "separators": [5],
    },
    "citation-number": {"emptiness": {}, "citation": 5},
}
# One call per kind of library refusal that is not a decoding error.
LIBRARY_REFUSALS = {
    "relation-name": lambda: least_threshold("lt", F1, F1),
    "slalom-target": lambda: least_threshold("in", F1, F1),
    "finfunc-target": lambda: least_threshold("leq", F1, Slalom.identity_width([()])),
    "hit-relation-name": lambda: hit_count("leq", F1, F1),
    "mode-name": lambda: family_report("leq", F1, Family((F1,), 1), "sideways"),
    # a hit relation would pass the evading branch
    "mode-name-eq": lambda: family_report("eq", F1, Family((F1,), 1), "sideways"),
    "evading-relation": lambda: family_report("leq", F1, Family((F1,), 1), "evading"),
    # no member for hit_count to refuse
    "evading-relation-empty-family": lambda: family_report("leq", F1, Family((), 1), "evading"),
    "family-report-family-number": lambda: family_report("leq", FinFunc((1, 2, 3)), 5, "bounding"),
    "family-report-family-list": lambda: family_report("leq", FinFunc((1, 2, 3)), [F1], "bounding"),
    # the empty family has no member to check the relation or the witness against
    **{
        f"family-report-empty-{name}": functools.partial(family_report, rel, witness, Family((), 1), mode)
        for name, rel, witness, mode in (
            ("relation-name", "lt", F1, "bounding"),
            ("unhashable-relation", [], 5, "bounding"),
            ("finfunc-target", "leq", 5, "bounding"),
            ("horizon", "leq", FinFunc((1, 2)), "bounding"),
            ("evading-finfunc-target", "eq", 5, "evading"),
            ("evading-slalom-target", "in", F1, "evading"),
        )
    },
    # a prefix is at most as long as what it cuts
    **{
        f"{name}-prefix-{cut_name}": functools.partial(whole.prefix, cut)
        for name, whole in (
            ("family", Family((FinFunc((1, 2, 3)),), 3)),
            ("slalom", Slalom.identity_width([(), (0,), (0, 1)])),
        )
        for cut_name, cut in (("past-horizon", 5), ("negative", -1), ("bool", True))
    },
    "block-slalom-huge-width": lambda: BlockSlalom(((),), WidthProfile((10**12,))),
    "fusion-index": lambda: fusion_leq("sacks", TREE, TREE, -1),
    "fusion-index-string": lambda: fusion_leq("sacks", TREE, TREE, "x"),
    "splitting-level-string": lambda: splitting_nodes(TREE, "x"),
    "reduce-e-start-string": lambda: reduce_e(E1, "x"),
    "reduce-e-negative-start": lambda: reduce_e(E1, -3),
    "weave-entry-count": lambda: weave(BlockSlalom((), W1)),
    "family-member-list": lambda: Family([[1]], 1),
    "container-finfunc-none": lambda: FinFunc(None),
    "container-width-profile-number": lambda: WidthProfile(5),
    "container-slalom-none": lambda: Slalom(None, W1),
    "container-slalom-identity-width-number": lambda: Slalom.identity_width(5),
    "container-family-number": lambda: Family(5, 1),
    "cohen-stem-list": lambda: leq("cohen", CohenCond([1]), CohenCond([1])),
    "hechler-side-list": lambda: leq("hechler", HechlerCond(FinFunc(()), [1]), 1),
    "hechler-stem-list": lambda: HechlerCond([1], F1),
    "e-side-list": lambda: validate(ECond(FinFunc(()), [1])),
    "e-stem-list": lambda: ECond([1], Family((), 1)),
    "loc-prefix-list": lambda: LocCond([[1]], Family((), 1)),
    "loc-side-list": lambda: LocCond(Slalom.identity_width([()]), [[1]]),
    "threshold-argument-list": lambda: least_threshold("leq", [1], FinFunc((1,))),
    "slalom-width-list": lambda: Slalom([[1]], [1]),
    "block-slalom-width-list": lambda: BlockSlalom(((),), [1]),
    "container-block-slalom-none": lambda: BlockSlalom(None, W1),
    "container-block-slalom-entry-number": lambda: BlockSlalom((5,), W1),
    "block-slalom-member-number": lambda: BlockSlalom(((5,),), W1),
    "container-slalom-cell-number": lambda: Slalom([5], W1),
    "family-dominator-list": lambda: family_dominator([[1]]),
    "least-avoider-list": lambda: least_avoider([[1]]),
    "family-slalom-list": lambda: family_slalom([[1]]),
    "round-robin-list": lambda: round_robin_ioe([[1]]),
    "slalom-dominator-list": lambda: slalom_dominator([[1]]),
    "sum-evader-bound-list": lambda: sum_evader_bound([[1]]),
    "singleton-slalom-list": lambda: singleton_slalom([1]),
    "block-encode-function-list": lambda: block_encode([1], W1),
    "block-encode-width-list": lambda: block_encode(F1, [1]),
    "weave-block-slalom-list": lambda: weave([[]]),
    "validate-not-a-condition": lambda: validate([1]),
    "condition-to-obj-number": lambda: condition_to_obj(5),
    "unknown-poset-kind": lambda: leq("foo", TREE, TREE),
    "unknown-tree-kind": lambda: leq("foo", FOO_TREE, FOO_TREE),
    **{
        f"state-{name}": lambda fields=fields: DiagramState(**fields)
        for name, fields in BAD_STATES.items()
    },
    **{
        f"state-{name}-decoded": functools.partial(DiagramState.from_obj, fields)
        for name, fields in BAD_STATES.items()
    },
    "diagram-state-from-obj-list": lambda: DiagramState.from_obj([]),
    "propagate-list": lambda: propagate([]),
    "emit-json-list": lambda: emit_json([]),
    "emit-dot-list": lambda: emit_dot([]),
    "kb-lookup-list": lambda: kb_lookup([1]),
    "tree-string-entry": lambda: FiniteTree("laver", [[], ["a"]]),
    "tree-string-entry-unknown-kind": lambda: FiniteTree("foo", {(), ("a",), (0,)}),
    "tree-nodes-number": lambda: FiniteTree("sacks", 5),
    "tree-node-number": lambda: FiniteTree("sacks", [5]),
    # the least entry's magnitude is 0, the greatest's 10**4000
    "tree-entry-past-max-natural": lambda: FiniteTree("laver", [(), (0,), (10**4000,)]),
    "product-of-cohen": lambda: leq("product", COHEN_PRODUCT, COHEN_PRODUCT),
    "family-negative-horizon": lambda: Family((), -1),
    "family-string-horizon": lambda: Family((), "x"),
    "family-huge-horizon": lambda: Family((), 10**7),
    "negative-long-value": lambda: FinFunc((-(10**5000),)),
    "negative-long-width": lambda: WidthProfile((-(10**5000),)),
    # an identity width's horizon is a natural number of at most MAX_VALUES
    **{
        f"width-identity-{name}": functools.partial(WidthProfile.identity, horizon)
        for name, horizon in (
            ("string", "3"), ("float", 1.5), ("none", None), ("array", [1]), ("empty-tuple", ()),
            ("negative", -1), ("bool", True), ("huge", 2**70), ("past-max-values", MAX_VALUES + 1),
        )
    },
    # a loc prefix is an identity-width slalom, so its cell count is bounded too
    "width-identity-loc-prefix": lambda: condition_from_obj(
        {"kind": "loc", "prefix": [[]] * (MAX_VALUES + 1), "side": {"horizon": 1, "functions": []}}
    ),
    # a decoded slalom holds at most MAX_VALUES cells, whether its file gives widths or not
    "slalom-file-past-max-values": lambda: Slalom.from_obj({"cells": [[]] * (MAX_VALUES + 1)}),
    "slalom-file-widths-past-max-values": lambda: Slalom.from_obj(
        {"cells": [[]] * (MAX_VALUES + 1), "width": [0] * (MAX_VALUES + 1)}
    ),
    "kind-splitting-nodes": lambda: splitting_nodes(FiniteTree("laver", {()}), 0),
    "kind-canonical-enum": lambda: canonical_enum(TREE),
    "kind-proj-loc-to-d": lambda: proj_loc_to_d(CohenCond(F1)),
    "kind-proj-loc-to-e": lambda: proj_loc_to_e(CohenCond(F1)),
    "kind-leq-first": lambda: leq("e", TREE, E1),
    "kind-lift-loc-to-d": lambda: lift_loc_to_d(LOC, TREE),
    "kind-lift-loc-to-e": lambda: lift_loc_to_e(LOC, TREE),
    "kind-reduce-e": lambda: reduce_e(TREE, 0),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_library_refusals_are_cichon_errors(case):
    expected = MalformedInput if case.startswith(("state-", "width-identity-")) else CichonError
    with pytest.raises(expected):
        LIBRARY_REFUSALS[case]()


# The whole message of the rows that a check after the one they meet, or no
# check at all, would refuse in other words.
PARTITION = "classes must partition the seven region nodes"
REFUSAL_MESSAGES = {
    "mode-name-eq": "mode must be one of ('bounding', 'evading'), got 'sideways'",
    "evading-relation-empty-family": "evading mode needs relation in ('eq', 'in'), got 'leq'",
    # as with one member
    "family-report-empty-relation-name": "relation must be one of ('eq', 'leq', 'neq', 'in'), got 'lt'",
    "family-report-empty-unhashable-relation": "relation must be one of ('eq', 'leq', 'neq', 'in'), got []",
    "family-report-empty-finfunc-target": "relation 'leq' target must be a FinFunc, got int",
    "family-report-empty-horizon": "horizon 1 vs 2 for relation 'leq'",
    "family-report-empty-evading-finfunc-target": "relation 'eq' target must be a FinFunc, got int",
    "family-report-empty-evading-slalom-target": "relation 'in' target must be a Slalom, got FinFunc",
    **{
        f"{name}-prefix-{cut_name}": message
        for name in ("family", "slalom")
        for cut_name, message in (
            ("past-horizon", "prefix horizon 5 exceeds 3"),
            ("negative", "prefix horizon must be natural numbers, got -1"),
            ("bool", "prefix horizon must be natural numbers, got True"),
        )
    },
    # each stem condition's field check, labelled "<kind> <field>"
    "cohen-stem-list": "cohen stem must be a FinFunc, got list",
    "hechler-stem-list": "hechler stem must be a FinFunc, got list",
    "hechler-side-list": "hechler side must be a FinFunc, got list",
    "e-stem-list": "e stem must be a FinFunc, got list",
    "e-side-list": "e side must be a Family, got list",
    "loc-prefix-list": "loc prefix must be a Slalom, got list",
    "loc-side-list": "loc side must be a Family, got list",
    "family-huge-horizon": "family horizon 10000000 exceeds 1000000",
    "kind-leq-first": "expected 'e' condition, got 'sacks'",
    "diagram-state-from-obj-list": "diagram state must be a dict, got list",
    "tree-entry-past-max-natural": "laver node entries must be below 10**4000 in magnitude",
    **{
        f"state-{name}{decoded}": PARTITION
        for name in ("classes-duplicate-for-missing", "classes-extra-duplicate", "empty-class")
        for decoded in ("", "-decoded")
    },
    "block-slalom-huge-width": "block slalom width needs 1000000000000 positions, over 1000000",
    "block-slalom-member-number": "block slalom code must be a list or tuple, got int",
    "width-identity-string": "identity width horizon must be natural numbers, got '3'",
    "width-identity-bool": "identity width horizon must be natural numbers, got True",
    "width-identity-huge": f"identity width horizon {2**70} exceeds 1000000",
    "width-identity-loc-prefix": "identity width horizon 1000001 exceeds 1000000",
    "slalom-file-past-max-values": "slalom cell count 1000001 exceeds 1000000",
    "slalom-file-widths-past-max-values": "slalom cell count 1000001 exceeds 1000000",
}


@pytest.mark.parametrize("case", sorted(REFUSAL_MESSAGES))
def test_library_refusal_messages(case):
    with pytest.raises(CichonError) as caught:
        LIBRARY_REFUSALS[case]()
    assert str(caught.value) == REFUSAL_MESSAGES[case]


# The rows that pass a value of the wrong class for a whole field or argument:
# a list where a library object belongs, a FinFunc or Slalom target of the
# other relation, a number where a diagram-state field belongs (not a
# wrong class member, which a state refuses by value), or a non-iterable
# where a container's values belong.
WRONG_CLASS_STATES = {
    f"state-{field}-number" for field in ("emptiness", "classes", "class", "separators", "citation")
}
WRONG_CLASS = sorted(
    c
    for c in LIBRARY_REFUSALS
    if c.removesuffix("-decoded") in WRONG_CLASS_STATES
    or (c.endswith(("-list", "-target")) and not c.startswith("state-"))
    or c.startswith("container-")
)


@pytest.mark.parametrize("case", WRONG_CLASS)
def test_wrong_class_has_one_message_form(case):
    """Every value of the wrong class is refused by the one guard, in its words."""
    with pytest.raises(MalformedInput, match=r"^.+ must be a \w+( or \w+)*, got \w+$"):
        LIBRARY_REFUSALS[case]()


def test_validate_refuses_a_non_condition():
    with pytest.raises(KindMismatch, match="^not a condition: list$"):
        LIBRARY_REFUSALS["validate-not-a-condition"]()


@pytest.mark.parametrize("case", sorted(c for c in LIBRARY_REFUSALS if c.startswith("kind-")))
def test_wrong_kind_is_kind_mismatch(case):
    """Every operation on conditions refuses one of the wrong kind alike."""
    with pytest.raises(KindMismatch, match="^expected '(sacks|laver|loc|hechler|e)' condition"):
        LIBRARY_REFUSALS[case]()


def test_hit_count_examples():
    assert hit_count("eq", FinFunc((1, 2, 3)), FinFunc((1, 0, 3))) == 2
    f = FinFunc((4, 4, 4))
    assert hit_count("eq", f, f) == 3
    sigma = Slalom((frozenset(), frozenset({1})), WidthProfile((0, 1)))
    assert hit_count("in", FinFunc((0, 0)), sigma) == 0


@given(pairs, st.sampled_from(["eq", "leq", "neq"]))
def test_threshold_matches_oracle(fg, rel):
    f, g = FinFunc(tuple(fg[0])), FinFunc(tuple(fg[1]))
    report = least_threshold(rel, f, g)
    assert report.threshold == oracle_threshold(rel, f, g)
    assert report.vacuous == (report.threshold == f.horizon)


@given(pairs)
def test_tail_monotonicity(fg):
    f, g = FinFunc(tuple(fg[0])), FinFunc(tuple(fg[1]))
    k = least_threshold("leq", f, g).threshold
    for start in range(k, f.horizon):
        assert all(f[l] <= g[l] for l in range(start, f.horizon))


@given(pairs)
def test_neq_threshold_iff_last_position_hits(fg):
    f, g = FinFunc(tuple(fg[0])), FinFunc(tuple(fg[1]))
    n = f.horizon
    at_horizon = least_threshold("neq", f, g).threshold == n
    assert at_horizon == (n == 0 or f[n - 1] == g[n - 1])


@given(pairs)
def test_no_hits_means_zero_threshold(fg):
    f, g = FinFunc(tuple(fg[0])), FinFunc(tuple(fg[1]))
    if hit_count("eq", f, g) == 0:
        assert least_threshold("neq", f, g).threshold == 0


@given(st.lists(st.tuples(st.integers(0, 30), st.sets(st.integers(0, 30), max_size=5)), max_size=10))
def test_in_hits_cover_the_tail(rows):
    f = FinFunc(tuple(v for v, _ in rows))
    sigma = Slalom(
        tuple(frozenset(cell) for _, cell in rows),
        WidthProfile(tuple(len(cell) for _, cell in rows)),
    )
    report = least_threshold("in", f, sigma)
    assert report.threshold == oracle_threshold("in", f, sigma)
    assert hit_count("in", f, sigma) >= f.horizon - report.threshold


def test_family_report_bounding_example():
    fam = Family((FinFunc((1, 2)), FinFunc((3, 0))), 2)
    report = family_report("leq", FinFunc((4, 3)), fam, "bounding")
    assert [r.threshold for r in report.thresholds] == [0, 0]
    assert report.max_threshold == 0
    spread = Family((FinFunc((9, 1)), FinFunc((1, 1)), FinFunc((1, 9))), 2)
    report = family_report("leq", FinFunc((5, 5)), spread, "bounding")
    assert [r.threshold for r in report.thresholds] == [1, 0, 2]
    assert report.max_threshold == 2


def test_family_report_empty_family():
    empty = Family((), 3)
    bounding = family_report("leq", FinFunc((0, 0, 0)), empty, "bounding")
    assert bounding.thresholds == ()
    assert bounding.max_threshold == 0
    evading = family_report("eq", FinFunc((0, 0, 0)), empty, "evading")
    assert evading.hits == ()
    assert evading.min_hits == math.inf


def test_family_report_evading_example():
    fam = Family((FinFunc((5, 5)), FinFunc((7, 7))), 2)
    report = family_report("eq", FinFunc((5, 7)), fam, "evading")
    assert report.hits == (1, 1)
    assert report.min_hits == 1


@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), max_size=4),
       st.lists(st.sets(st.integers(0, 3)), min_size=4, max_size=4))
def test_family_report_in_evading_matches_hit_counts(rows, cells):
    """Evading mode under `in` counts, per member, the positions whose value
    lies in the slalom's cell there."""
    family = Family(tuple(FinFunc(tuple(row)) for row in rows), 4)
    sigma = Slalom(tuple(map(frozenset, cells)), WidthProfile((4,) * 4))
    report = family_report("in", sigma, family, "evading")
    hits = tuple(sum(row[l] in cells[l] for l in range(4)) for row in rows)
    assert report.hits == hits
    assert report.min_hits == min(hits, default=math.inf)
    assert (report.thresholds, report.max_threshold) == (None, 0)


def test_family_json_round_trip():
    fam = Family((FinFunc((1, 2)), FinFunc((3, 0))), 2)
    assert Family.from_obj(fam.to_obj()) == fam
    sigma = Slalom((frozenset({2, 1}), frozenset()), WidthProfile((2, 0)))
    assert Slalom.from_obj(sigma.to_obj()) == sigma
    f = FinFunc((0, 9))
    assert FinFunc.from_obj(f.to_obj()) == f


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sets(st.integers(0, 3))),
                max_size=12))
def test_hit_count_matches_per_position_count(rows):
    f = FinFunc(tuple(v for v, _, _ in rows))
    g = FinFunc(tuple(w for _, w, _ in rows))
    sigma = Slalom(
        tuple(frozenset(cell) for _, _, cell in rows),
        WidthProfile(tuple(len(cell) for _, _, cell in rows)),
    )
    positions = range(len(rows))
    assert hit_count("eq", f, g) == sum(1 for l in positions if f[l] == g[l])
    assert hit_count("in", f, sigma) == sum(1 for l in positions if f[l] in sigma[l])


# ---------------------------------------------------------------------------
# The naturals check: its fast path against the per-entry definition


class Natural(int):
    """A natural of an int subclass, not of type int."""


class PosingAsInt(type):
    """A metaclass whose classes compare equal to every class, int included."""

    def __eq__(cls, other):
        return True

    __hash__ = type.__hash__


class Impostor(metaclass=PosingAsInt):
    """Not an int, though `type(Impostor()) == int` holds."""


INTS = st.integers(-3, 20) | st.sampled_from(
    [MAX_NATURAL - 1, MAX_NATURAL, MAX_NATURAL + 1, 1 - MAX_NATURAL, -MAX_NATURAL, -(10**5000)]
    + [2**64 - 1, 2**64, -(2**64)]
)
ENTRIES = st.one_of(
    INTS,
    st.booleans(),
    st.floats(),
    st.lists(st.integers(0, 3), max_size=2),
    st.builds(Natural, st.integers(-2, 20)),
    st.none(),
    st.text(max_size=2),
)
# From four entries an all-int sequence takes the fast path: plant one entry
# of any kind among three or more naturals.
PLANTED = st.builds(
    lambda naturals, entry, at: naturals[:at] + [entry] + naturals[at:],
    st.lists(st.integers(0, 20), min_size=3, max_size=30),
    ENTRIES,
    st.integers(0, 30),
)
ENTRY_LISTS = st.lists(ENTRIES, max_size=6) | st.lists(INTS, max_size=30) | PLANTED


def definition_of_naturals(values, what):
    """The message for the first entry that is not an int in [0, MAX_NATURAL);
    an int of magnitude MAX_NATURAL or more is named by its bit length."""
    for v in values:
        if isinstance(v, int) and not isinstance(v, bool) and v <= -MAX_NATURAL:
            return f"{what} must be natural numbers, got a negative {v.bit_length()}-bit value"
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return f"{what} must be natural numbers, got {v!r}"
        if v >= MAX_NATURAL:
            return f"{what} must be below 10**4000, got a {v.bit_length()}-bit value"
    return None


def refusal(check, *args):
    try:
        check(*args)
    except MalformedInput as exc:
        return str(exc)
    return None


@example([0] * 20 + [-1])
@example([0] * 20 + [MAX_NATURAL])
@example([0] * 20 + [True])
@example([0] * 20 + [1.5])
@example([0] * 20 + [Natural(1)])
@example([-1])
@example([0, MAX_NATURAL])
@example([0, 0, True])
@example([0, 0, 0, -1])
@example([0, 0, 0, 1.5])
@example([2**64 - 1] * 5)
@example([0, 0, 0, 0, 2**64])
@example([-(2**64), 0, 0, 0, 0])
@example([2**64 - 1, 0, -1, 0, 0])
@example([2**64, 0, 0, 0, True])
@example([Natural(1), 2**64, 0, 0, 0])
@example([0, 0, 0, 0, Impostor()])
@given(ENTRY_LISTS)
def test_check_naturals_matches_definition(values):
    expected = definition_of_naturals(values, "values")
    assert refusal(_check_naturals, values, "values") == expected
    assert refusal(_check_naturals, tuple(values), "values") == expected
    assert refusal(FinFunc, values) == definition_of_naturals(values, "FinFunc values")


def test_check_naturals_bounds_each_entry_when_the_sum_reaches_the_bound():
    """Entries that the fast path's `array("Q")` probe refuses, yet are
    below MAX_NATURAL, are each checked against it by `max`, not by the
    per-entry loop, and a bool is still named."""
    near = (MAX_NATURAL - 1,) * 4
    assert FinFunc(near).values == near
    assert refusal(_check_naturals, near + (0,), "values") is None
    builtins = []
    sys.setprofile(lambda frame, event, arg: event == "c_call" and builtins.append(arg.__name__))
    try:
        _check_naturals(near, "values")
    finally:
        sys.setprofile(None)
    assert "max" in builtins and "isinstance" not in builtins, builtins
    too_large = f"values must be below 10**4000, got a {MAX_NATURAL.bit_length()}-bit value"
    assert refusal(_check_naturals, (0, 0, 0, MAX_NATURAL), "values") == too_large
    assert refusal(_check_naturals, near[:3] + (MAX_NATURAL,), "values") == too_large
    for values in ((1, 2, True, 3), near[:3] + (True,)):
        assert refusal(_check_naturals, values, "values") == "values must be natural numbers, got True"


def test_identity_width_bounds():
    """An identity width's horizon may be 0 or MAX_VALUES; its widths are 0 to N - 1."""
    assert WidthProfile.identity(0).widths == ()
    assert WidthProfile.identity(3) == WidthProfile((0, 1, 2))
    assert WidthProfile.identity(MAX_VALUES).horizon == MAX_VALUES


def test_prefix_equals_the_checked_cut(rng):
    """`prefix(h)` skips the checks, yet equals the family or slalom built,
    checked, from the first h positions, for every h up to the horizon."""
    for _ in range(50):
        n, count = rng.randrange(6), rng.randrange(4)
        fam = Family(tuple(FinFunc(tuple(rng.randrange(5) for _ in range(n))) for _ in range(count)), n)
        widths = tuple(rng.randrange(4) for _ in range(n))
        sigma = Slalom(tuple(frozenset(rng.sample(range(5), w)) for w in widths), WidthProfile(widths))
        for h in range(n + 1):
            assert fam.prefix(h) == Family(tuple(FinFunc(f.values[:h]) for f in fam), h)
            assert sigma.prefix(h) == Slalom(sigma.cells[:h], WidthProfile(widths[:h]))


def test_slalom_file_of_max_values_cells_decodes_in_both_forms():
    """MAX_VALUES cells decode with or without a width list, to the same slalom."""
    cells = [[]] * MAX_VALUES
    implicit = Slalom.from_obj({"cells": cells})
    assert implicit.horizon == MAX_VALUES
    assert Slalom.from_obj({"cells": cells, "width": list(range(MAX_VALUES))}) == implicit


@given(st.lists(ENTRY_LISTS, max_size=4))
def test_slalom_names_its_first_bad_member(cells):
    members = list(itertools.chain.from_iterable(cells))
    expected = definition_of_naturals(members, "slalom cell members")
    assert refusal(Slalom.identity_width, cells) == expected


# ---------------------------------------------------------------------------
# The JSON emitter against json.dumps

JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(-(10**4299), 10**4299)
    | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class Text(str):
    """A str subclass, which the emitter leaves to json."""


@example({"a": True, "b": None, "c": [False, 0, "\u2028é\n"], "d": 1.0})
@example([Natural(3), Text("x"), True, 10**4299])
# rows of exact ints are laid out by one `%` template; anything else is
# recursed into
@example([[1, 2], [], [3]])
@example([(1,), []])
@example([[]])
@example([[True]])
@example([[Natural(3)]])
@example([[1], "x"])
@example([[[1]]])
@example([[0, -(10**4299)], [10**4299]])
# a `%` in keys and strings next to both template branches and in a list
# recursed into; a bool after an int; distinct row lengths; mixed row types
@example({"%d": [1, 2], "a%s": [[3], []], "s": "%d%%"})
@example(["%d%%", [1]])
@example([1, True])
@example([[2, False]])
@example([[1], [2, 3], [], [4, 5, 6]])
@example([[1], (2, 3)])
@given(JSON_LIKE)
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@given(st.lists(st.integers(min_value=-(10**4299), max_value=10**4299), min_size=1))
def test_dump_json_lays_out_int_lists_as_json_does(ints):
    """JSON_LIKE seldom draws a long flat list of ints, the shape of a
    function's values."""
    obj = {"values": ints, "nested": [ints, [ints]]}
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


ROW = st.lists(st.integers())


@given(st.lists(ROW | ROW.map(tuple), min_size=1))
def test_dump_json_lays_out_rows_of_ints_as_json_does(rows):
    """JSON_LIKE seldom draws a list of int rows, the shape of slalom cells."""
    obj = {"rows": rows, "nested": [rows]}
    assert dump_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_package_exports_only_classes_and_functions():
    """`from cichon import *` binds the public classes and functions, those
    of every submodule: no submodule, and none of the names the library has
    dropped."""
    for name in cichon.__all__:
        value = getattr(cichon, name)
        assert isinstance(value, type) or inspect.isfunction(value), name
    dropped = {"compose_profiles", "parity_map", "BitstringFunc", "index_of", "string_of"}
    dropped |= {"length_range", "string_encode", "evasion_target"}
    dropped |= {"BlockPartition", "block_partition", "ZeroWidth"}
    assert dropped.isdisjoint(cichon.__all__)
    assert {"FinFunc", "leq", "block_encode", "reduce_e", "enumerate_cuts"} <= set(cichon.__all__)


F3 = FinFunc((1, 2, 3))
FAM = Family((F3, FinFunc((0, 2, 5))), 3)
SIGMA = Slalom.identity_width([(), (1,), (0, 2)])
W12 = WidthProfile((1, 2))
B12 = BlockSlalom((((1,),), ((2, 3),)), W12)
SACKS = FiniteTree("sacks", {(), (0,), (1,)})
LAVER = FiniteTree("laver", {(), (0,), (3,)})
STATE = DiagramState({"AllNew": "nonempty"}, (REGION_NODES,), (), "a citation")
LOC4 = LocCond(Slalom.identity_width([(), (2,)]), Family((FinFunc((1, 1, 1, 1)),), 4))
# Valid arguments for every public callable.
VALID_CALLS = {
    "BlockSlalom": (B12.entries, W12),
    "CohenCond": (F3,),
    "Contradiction": ("DIn", ("BIn", "BLeq", "BNeq", "DIn")),
    "Cut": (frozenset({"AllNew"}), "cohen"),
    "DiagramState": (STATE.emptiness, STATE.classes, STATE.separators, STATE.citation),
    "ECond": (F3, FAM),
    "Family": ((F3,), 3),
    "FinFunc": ((1, 2, 3),),
    "FiniteTree": ("laver", {(), (0,), (3,)}),
    "HechlerCond": (F3, FinFunc((2, 2, 2))),
    "LocCond": (SIGMA, FAM),
    "ProductCond": (SACKS, LAVER),
    "RelationReport": ("leq", "bounding", (), None, 0, math.inf),
    "Slalom": (SIGMA.cells, SIGMA.width),
    "ThresholdReport": (1, False),
    "WidthProfile": ((1, 2),),
    "block_encode": (F3, W12),
    "canonical_enum": (LAVER,),
    "emit_dot": (STATE,),
    "emit_json": (STATE,),
    "enumerate_cuts": (),
    "family_dominator": (FAM,),
    "family_report": ("leq", F3, FAM, "bounding"),
    "family_slalom": (FAM,),
    "fusion_leq": ("sacks", SACKS, SACKS, 1),
    "hit_count": ("eq", F3, F3),
    "kb_lookup": ("cohen",),
    "kb_names": (),
    "least_avoider": (FAM,),
    "least_threshold": ("in", F3, SIGMA),
    "leq": ("laver", LAVER, LAVER),
    "lift_loc_to_d": (LOC4, HechlerCond(FinFunc((0, 2, 9, 9)), FinFunc((2, 2, 9, 9)))),
    "lift_loc_to_e": (LOC4, ECond(FinFunc((0, 0, 0, 2)), LOC4.side)),
    "proj_loc_to_d": (LOC4,),
    "proj_loc_to_e": (LOC4,),
    "propagate": (STATE,),
    "reduce_e": (ECond(FinFunc((0, 0, 0, 2)), LOC4.side), 0),
    "round_robin_ioe": (FAM,),
    "singleton_slalom": (F3,),
    "slalom_dominator": (SIGMA,),
    "splitting_nodes": (SACKS, 1),
    "sum_evader_bound": (SIGMA,),
    "validate": (LOC4,),
    "weave": (B12,),
}
JUNK = (None, -1, 0, True, "x", "", [], {}, (), 1.5, float("nan"), frozenset(), b"", [[1]], {"x": 1}, object())


def test_junk_arguments_raise_only_cichon_errors():
    """Each public callable, from valid arguments, with one junk value in one
    argument at a time and then a seeded sample of two at a time, returns
    or raises a CichonError, never another exception."""
    for name, args in VALID_CALLS.items():
        getattr(cichon, name)(*args)
    calls = [
        (name, ((i, junk),)) for name, args in VALID_CALLS.items() for i in range(len(args)) for junk in JUNK
    ]
    rng = random.Random(29)
    several = [name for name, args in VALID_CALLS.items() if len(args) > 1]
    for _ in range(2000):
        name = rng.choice(several)
        i, j = rng.sample(range(len(VALID_CALLS[name])), 2)
        calls.append((name, ((i, rng.choice(JUNK)), (j, rng.choice(JUNK)))))
    leaks = []
    for name, replaced in calls:
        args = list(VALID_CALLS[name])
        for i, junk in replaced:
            args[i] = junk
        try:
            getattr(cichon, name)(*args)
        except CichonError:
            pass
        except Exception as leaked:
            leaks.append(f"{name}{tuple(args)!r}: {type(leaked).__name__}: {leaked}")
    assert leaks == []
    assert set(VALID_CALLS) == set(cichon.__all__)
