"""CLI contract: verbs, JSON/DOT payloads, determinism, and exit codes."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cichon
from cichon import Family, ProductCond, errors
from cichon.cli import CONSTRUCT_KINDS, _READ_SIZE, _VERBS, _build_parser, _load_json, _parse, run
from cichon.combinatorics import MAX_NATURAL
from cichon.posets import POSET_KINDS, condition_to_obj
from conftest import make_laver, make_sacks, prune_tree
from test_posets import last_level


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cuts_json():
    code, out, _ = invoke(["cuts", "--format", "json"])
    assert code == 0
    cuts = json.loads(out)
    assert len(cuts) == 11
    assert all("nonempty" in cut and "realized_by" in cut for cut in cuts)


def test_cuts_deterministic():
    first = invoke(["cuts"])
    second = invoke(["cuts"])
    assert first == second


def test_diagram_dot_default():
    code, out, _ = invoke(["diagram"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count(" -> ") == 9


def test_diagram_forcing_json():
    code, out, _ = invoke(["diagram", "--forcing", "hechler", "--format", "json"])
    assert code == 0
    state = json.loads(out)
    assert state["emptiness"]["BIn"] == "empty"
    assert ["BLeq", "BNeq"] in state["classes"]


def test_diagram_unknown_forcing():
    code, _, err = invoke(["diagram", "--forcing", "amoeba"])
    assert code == 2
    assert "UnknownForcing" in err


def test_diagram_empty_forcing_is_unknown():
    """An empty name is looked up like any other, not read as no forcing."""
    code, out, err = invoke(["diagram", "--forcing", ""])
    assert (code, out) == (2, "")
    assert err == "UnknownForcing: no knowledge-base entry for ''\n"


def test_check_leq_reflexive(tmp_path):
    # 2**64, past the 5-entry file's array probe, is still a natural
    for values in ([3, 1, 4], [0, 1, 2, 3, 2**64]):
        f = write(tmp_path, "f.json", values)
        code, out, _ = invoke(["check", "--relation", "leq", "--f", f, "--g", f])
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold"] == 0
        assert payload["holds"] is True


def test_check_vacuous_fails(tmp_path):
    f = write(tmp_path, "f.json", [5])
    g = write(tmp_path, "g.json", [5])
    code, out, _ = invoke(["check", "--relation", "neq", "--f", f, "--g", g])
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["vacuous"] is True
    assert payload["counterexample_position"] == 0


def test_check_eq_relation(tmp_path):
    f = write(tmp_path, "f.json", [1, 2, 3])
    g = write(tmp_path, "g.json", [0, 2, 3])
    code, out, _ = invoke(["check", "--relation", "eq", "--f", f, "--g", g])
    assert code == 0
    assert json.loads(out)["threshold"] == 1


def test_check_eq_vacuous_fails(tmp_path):
    f = write(tmp_path, "f.json", [1, 2, 3])
    g = write(tmp_path, "g.json", [0, 2, 4])
    code, out, _ = invoke(["check", "--relation", "eq", "--f", f, "--g", g])
    assert code == 1
    payload = json.loads(out)
    assert payload["vacuous"] is True
    assert payload["counterexample_position"] == 2


def test_check_in_relation(tmp_path):
    f = write(tmp_path, "f.json", [7, 1, 4, 1])
    g = write(
        tmp_path,
        "sigma.json",
        {"width": [0, 1, 2, 3], "cells": [[], [1], [0, 4], [1, 2, 9]]},
    )
    code, out, _ = invoke(["check", "--relation", "in", "--f", f, "--g", g])
    assert code == 0
    assert json.loads(out)["threshold"] == 1


def test_check_horizon_mismatch(tmp_path):
    f = write(tmp_path, "f.json", [1, 2])
    g = write(tmp_path, "g.json", [1])
    code, _, err = invoke(["check", "--relation", "leq", "--f", f, "--g", g])
    assert code == 2
    assert "HorizonMismatch" in err


def test_check_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    f = write(tmp_path, "f.json", [1])
    code, _, err = invoke(["check", "--relation", "leq", "--f", f, "--g", str(path)])
    assert code == 2


# the columns {0, 1, 2}, {0, 1, 7}, {2, 5, 7}, {0, 3}, {0, 1, 2}
COLUMNS = {"horizon": 5, "functions": [[0, 1, 2, 3, 0], [1, 0, 5, 0, 1], [2, 7, 7, 0, 2]]}


def test_construct_dominator(tmp_path):
    fam = write(tmp_path, "fam.json", {"horizon": 2, "functions": [[1, 2], [3, 0]]})
    code, out, _ = invoke(["construct", "--kind", "dominator", "--family", fam])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    capture = {"threshold": 0, "vacuous": False}
    assert json.loads(out) == {
        "kind": "dominator",
        "witness": [4, 3],
        "report": {
            "relation": "leq", "mode": "bounding", "thresholds": [capture, capture],
            "hits": None, "max_threshold": 0, "min_hits": "inf",
        },
    }
    # one more than each column's maximum
    fam = write(tmp_path, "fam.json", COLUMNS)
    code, out, _ = invoke(["construct", "--kind", "dominator", "--family", fam])
    assert (code, json.loads(out)["witness"]) == (0, [3, 8, 8, 4, 3])


def test_construct_ioe(tmp_path):
    fam = write(
        tmp_path, "fam.json", {"horizon": 4, "functions": [[5, 5, 5, 5], [7, 7, 7, 7]]}
    )
    code, out, _ = invoke(["construct", "--kind", "ioe", "--family", fam])
    assert code == 0
    assert json.loads(out) == {
        "kind": "ioe",
        "witness": [5, 7, 5, 7],
        "report": {
            "relation": "eq", "mode": "evading", "thresholds": None,
            "hits": [2, 2], "max_threshold": 0, "min_hits": 2,
        },
    }


def test_construct_slalom(tmp_path):
    fam = write(
        tmp_path, "fam.json", {"horizon": 3, "functions": [[1, 1, 1], [2, 2, 2]]}
    )
    code, out, _ = invoke(["construct", "--kind", "slalom", "--family", fam])
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["cells"] == [[], [1], [1, 2]]
    assert payload["capture_thresholds"] == [1, 2]
    # rows of ints are laid out as json.dumps lays them out
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # written plainly (read from the option table) or with --opt=value and
    # abbreviations (parsed by argparse), the call prints the same bytes
    plain = invoke(["construct", "--kind", "slalom", "--family", fam, "--horizon", "2"])
    assert plain[0] == 0
    assert plain == invoke(["construct", "--kind=slalom", "--fam", fam, "--hor", "2"])


def test_construct_evdiff(tmp_path):
    fam = write(tmp_path, "fam.json", {"horizon": 2, "functions": [[0, 1], [1, 1]]})
    code, out, _ = invoke(["construct", "--kind", "evdiff", "--family", fam])
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == [2, 0]
    assert payload["report"]["min_hits"] == 0
    # the least value outside each column: 0 where the column lacks 0
    fam = write(tmp_path, "fam.json", COLUMNS)
    code, out, _ = invoke(["construct", "--kind", "evdiff", "--family", fam])
    payload = json.loads(out)
    assert (code, payload["witness"], payload["report"]["hits"]) == (0, [3, 2, 0, 1, 3], [0, 0, 0])


def test_construct_evader(tmp_path):
    sigma = write(
        tmp_path, "sigma.json", {"width": [3], "cells": [[1, 2, 9]]}
    )
    code, out, _ = invoke(["construct", "--kind", "evader", "--family", sigma])
    assert code == 0
    assert json.loads(out)["witness"] == [13]


def test_construct_horizon_truncates(tmp_path):
    fam = write(
        tmp_path, "fam.json", {"horizon": 4, "functions": [[1, 2, 3, 4], [3, 0, 1, 2]]}
    )
    code, out, _ = invoke(
        ["construct", "--kind", "dominator", "--family", fam, "--horizon", "2"]
    )
    assert code == 0
    assert json.loads(out)["witness"] == [4, 3]
    code, _, err = invoke(
        ["construct", "--kind", "dominator", "--family", fam, "--horizon", "9"]
    )
    assert code == 2
    whole = ["construct", "--kind", "dominator", "--family", fam]
    assert invoke(whole + ["--horizon", "4"]) == invoke(whole)


@pytest.mark.parametrize("seed", range(4))
def test_construct_horizon_matches_a_cut_file(tmp_path, seed):
    """`--horizon h` builds its input from slices of the decoded file; each
    construction prints what it prints on a file cut to h positions, for
    h in {0, 1, N - 1, N}.  Families come from random-family, and the
    evader's slalom has explicit widths, some above their cells' sizes."""
    rng = random.Random(seed)
    n, count = rng.randrange(2, 9), rng.randrange(1, 6)
    draw = ["construct", "--kind", "random-family", "--seed", str(seed),
            "--horizon", str(n), "--count", str(count)]
    family = json.loads(invoke(draw)[1])
    cells = [sorted(rng.sample(range(10), rng.randrange(min(l, 3) + 1))) for l in range(n)]
    widths = [len(cell) + rng.randrange(3) for cell in cells]
    for h in sorted({0, 1, n - 1, n}):
        files = {
            "family": (family, {"horizon": h, "functions": [f[:h] for f in family["functions"]]}),
            "slalom": ({"width": widths, "cells": cells}, {"width": widths[:h], "cells": cells[:h]}),
        }
        for kind in ("dominator", "ioe", "evdiff", "slalom", "evader"):
            whole, cut = files["slalom" if kind == "evader" else "family"]
            argv = ["construct", "--kind", kind, "--family"]
            sliced = invoke(argv + [write(tmp_path, "whole.json", whole), "--horizon", str(h)])
            assert sliced[0] == 0, (kind, h, sliced)
            assert sliced == invoke(argv + [write(tmp_path, "cut.json", cut)]), (kind, h)


def test_construct_ioe_empty_family(tmp_path):
    fam = write(tmp_path, "fam.json", {"horizon": 3, "functions": []})
    code, _, err = invoke(["construct", "--kind", "ioe", "--family", fam])
    assert code == 2
    assert "EmptyFamily" in err


def test_construct_random_family_seeded():
    args = ["construct", "--kind", "random-family", "--horizon", "6", "--seed", "7"]
    first = invoke(args)
    second = invoke(args)
    assert first[0] == 0
    assert first == second
    payload = json.loads(first[1])
    assert first[1] == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["horizon"] == 6
    assert len(payload["functions"]) == 4
    # 4 x 64 = 256 draws below the default --max-value
    wide = ["construct", "--kind", "random-family", "--horizon", "64", "--seed", "7"]
    assert invoke(wide) == invoke(wide + ["--max-value", "16"])


def test_construct_seed_rejected_elsewhere(tmp_path):
    fam = write(tmp_path, "fam.json", {"horizon": 2, "functions": [[1, 2]]})
    code, _, err = invoke(
        ["construct", "--kind", "dominator", "--family", fam, "--seed", "3"]
    )
    assert code == 2
    code, _, err = invoke(
        ["construct", "--kind", "random-family", "--family", fam, "--seed", "3", "--horizon", "2"]
    )
    assert code == 2
    assert "--family is not accepted by --kind random-family" in err


def test_poset_leq(tmp_path):
    weaker = write(tmp_path, "b.json", {"kind": "cohen", "stem": [1, 2]})
    stronger = write(tmp_path, "a.json", {"kind": "cohen", "stem": [1, 2, 5]})
    code, out, _ = invoke(
        ["poset", "--kind", "cohen", "--op", "leq", "--a", stronger, "--b", weaker]
    )
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out, _ = invoke(
        ["poset", "--kind", "cohen", "--op", "leq", "--a", weaker, "--b", stronger]
    )
    assert code == 1


def test_poset_fusion(tmp_path):
    full = {
        "kind": "sacks",
        "nodes": [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]],
    }
    fixed = {"kind": "sacks", "nodes": [[], [0], [0, 0], [0, 1]]}
    a = write(tmp_path, "a.json", fixed)
    b = write(tmp_path, "b.json", full)
    code, out, _ = invoke(
        ["poset", "--kind", "sacks", "--op", "fusion", "--a", a, "--b", b, "--n", "0"]
    )
    assert code == 1
    assert json.loads(out)["holds"] is False
    # a is below b, but drops b's root split; b is fused with itself at any index
    assert invoke(["poset", "--kind", "sacks", "--op", "leq", "--a", a, "--b", b])[0] == 0
    fused = ["poset", "--kind", "sacks", "--op", "fusion", "--a", b, "--b", b, "--n", "40"]
    assert invoke(fused)[0] == 0
    code, _, err = invoke(
        ["poset", "--kind", "sacks", "--op", "fusion", "--a", a, "--b", b]
    )
    assert code == 2


def test_poset_fusion_index_past_last_level(tmp_path):
    """A huge --n answers at once, and like the last index that can
    matter: the depth for sacks, the node count for laver."""
    rng = random.Random(0xF05)
    huge = "99999999999999999999"
    for _ in range(4):
        sb, lb = make_sacks(rng, depth=6), make_laver(rng)
        sa, la = prune_tree(rng, sb), prune_tree(rng, lb)
        pa, pb = ProductCond(sa, la), ProductCond(sb, lb)
        for kind, a, b in (("sacks", sa, sb), ("laver", la, lb), ("product", pa, pb)):
            for x, y in ((a, b), (b, b)):
                fx = write(tmp_path, "x.json", condition_to_obj(x))
                fy = write(tmp_path, "y.json", condition_to_obj(y))
                argv = ["poset", "--kind", kind, "--op", "fusion", "--a", fx, "--b", fy]
                last = str(last_level(kind, x, y))
                code, out, _ = invoke(argv + ["--n", huge])
                last_code, last_out, _ = invoke(argv + ["--n", last])
                assert code == last_code
                assert out.replace(huge, last) == last_out


def test_poset_kind_mismatch(tmp_path):
    a = write(tmp_path, "a.json", {"kind": "cohen", "stem": [1]})
    b = write(tmp_path, "b.json", {"kind": "cohen", "stem": []})
    code, _, err = invoke(
        ["poset", "--kind", "hechler", "--op", "leq", "--a", a, "--b", b]
    )
    assert code == 2
    assert "KindMismatch" in err


def test_project_loc_d(tmp_path):
    cond = write(
        tmp_path,
        "c.json",
        {
            "kind": "loc",
            "prefix": [[], [3], [1, 4]],
            "side": {"horizon": 3, "functions": [[1, 1, 1], [0, 2, 3]]},
        },
    )
    code, out, _ = invoke(["project", "--map", "loc-d", "--cond", cond])
    assert code == 0
    payload = json.loads(out)
    assert payload["stem"] == [0, 3, 4]
    assert payload["side"] == [1, 2, 3]


def test_project_lift_growth_violation(tmp_path):
    """A new stem value below n - 1 lifts: the new cell at 3 is {1}, the
    family value and the stem value."""
    cond = write(
        tmp_path,
        "c.json",
        {
            "kind": "loc",
            "prefix": [[], [2]],
            "side": {"horizon": 4, "functions": [[1, 1, 1, 1]]},
        },
    )
    target = write(
        tmp_path,
        "q.json",
        {"kind": "hechler", "stem": [0, 2, 9, 1], "side": [2, 2, 9, 9]},
    )
    code, out, err = invoke(
        ["project", "--map", "loc-d", "--cond", cond, "--lift", target]
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["lift"]["prefix"] == [[], [2], [1, 9], [1]]
    assert payload["reprojection"]["stem"] == [0, 2, 9, 1]


def test_project_lift_loc_d_round_trip(tmp_path):
    cond = write(
        tmp_path,
        "c.json",
        {
            "kind": "loc",
            "prefix": [[], [2]],
            "side": {"horizon": 4, "functions": [[1, 1, 1, 1]]},
        },
    )
    target = write(
        tmp_path,
        "q.json",
        {"kind": "hechler", "stem": [0, 2, 9, 9], "side": [2, 2, 9, 9]},
    )
    code, out, _ = invoke(
        ["project", "--map", "loc-d", "--cond", cond, "--lift", target]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reprojection"]["stem"] == [0, 2, 9, 9]
    assert payload["lift"]["prefix"] == [[], [2], [1, 9], [1, 9]]


def test_project_lift_loc_e_with_reduce(tmp_path):
    cond = write(
        tmp_path,
        "c.json",
        {"kind": "loc", "prefix": [[], [0]], "side": {"horizon": 4, "functions": []}},
    )
    target = write(
        tmp_path,
        "q.json",
        {
            "kind": "e",
            "stem": [0, 1, 3, 9],
            "side": {"horizon": 4, "functions": [[7, 7, 7, 7]]},
        },
    )
    code, out, _ = invoke(
        ["project", "--map", "loc-e", "--cond", cond, "--lift", target, "--reduce"]
    )
    assert code == 0
    payload = json.loads(out)
    reduced_stem = payload["reduced_target"]["stem"]
    assert reduced_stem[:2] == [0, 1]
    assert payload["reprojection"]["stem"] == reduced_stem


def test_project_lift_pair_file(tmp_path):
    pair = write(
        tmp_path,
        "pair.json",
        {
            "loc": {
                "kind": "loc",
                "prefix": [[], [2]],
                "side": {"horizon": 4, "functions": [[1, 1, 1, 1]]},
            },
            "target": {"kind": "hechler", "stem": [0, 2, 9, 9], "side": [2, 2, 9, 9]},
        },
    )
    code, out, _ = invoke(["project", "--map", "loc-d", "--cond", pair])
    assert code == 0
    assert json.loads(out)["reprojection"]["stem"] == [0, 2, 9, 9]


@pytest.mark.parametrize("map_name, lift", [("loc-d", True), ("loc-d", False), ("loc-e", False)])
def test_project_reduce_rejected_for_loc_d(tmp_path, map_name, lift):
    """--reduce applies to a loc-e lift only, and is never ignored."""
    cond = write(
        tmp_path,
        "c.json",
        {"kind": "loc", "prefix": [[]], "side": {"horizon": 2, "functions": []}},
    )
    target = write(
        tmp_path, "q.json", {"kind": "hechler", "stem": [0], "side": [1, 1]}
    )
    code, out, err = invoke(
        ["project", "--map", map_name, "--cond", cond, "--reduce"]
        + (["--lift", target] if lift else [])
    )
    assert (code, out) == (2, "")
    assert err == "MalformedInput: --reduce applies to a loc-e lift only\n"


def test_kb_list():
    code, out, _ = invoke(["kb", "--list"])
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 11
    names = {entry["name"] for entry in entries}
    assert "loc" in names and "b-then-pt" in names
    assert all(entry["citation"] for entry in entries)


def test_unknown_verb_rejected():
    code, out, err = invoke(["frobnicate"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cichon [-h] ")
    last = err.splitlines()[-1]
    assert last.startswith("cichon: error: argument verb: invalid choice: 'frobnicate'")


def test_unknown_flag_rejected():
    """A verb's leftover argument is worded by the top-level parser."""
    code, out, err = invoke(["cuts", "--nope"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cichon [-h] ")
    assert err.endswith("\ncichon: error: unrecognized arguments: --nope\n")


def test_usage_goes_to_the_given_streams(capsys):
    code, out, err = invoke(["check"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cichon check")
    code, out, err = invoke(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: cichon")
    assert capsys.readouterr() == ("", "")


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys):
    """`run` builds its parser once per process; no call sees another's
    options, terminal width or streams."""
    draw = ["construct", "--kind", "random-family", "--horizon", "3", "--seed", "5"]
    code, out, _ = invoke(draw + ["--count", "2"])
    assert (code, len(json.loads(out)["functions"])) == (0, 2)
    assert invoke(["kb", "--list"])[0] == 0
    code, out, _ = invoke(draw)
    assert (code, len(json.loads(out)["functions"])) == (0, 4)

    a = write(tmp_path, "a.json", {"kind": "sacks", "nodes": [[], [0], [1]]})
    fusion = ["poset", "--kind", "sacks", "--op", "fusion", "--a", a, "--b", a]
    assert invoke(fusion + ["--n", "3"])[0] == 0
    code, out, err = invoke(fusion)
    assert (code, out) == (2, "")
    assert err.startswith("MalformedInput: ")

    def widest_help_line(columns):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = invoke(["--help"])
        assert code == 0
        return max(map(len, out.splitlines()))

    narrow, wide, narrow_again = (widest_help_line(c) for c in ("40", "200", "40"))
    assert narrow < wide
    assert narrow == narrow_again

    for _ in range(3):
        code, out, err = invoke(["check", "--relation", "leq"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: cichon check")
    assert capsys.readouterr() == ("", "")


# The same calls in processes with different string hashes.
HASH_SEED_CALLS = [
    ["construct", "--kind", "evdiff", "--family", "{f}"],
    ["construct", "--kind", "slalom", "--family", "{f}"],
    ["cuts"],
    ["diagram", "--format", "json"],
    ["diagram", "--forcing", "hechler", "--format", "json"],
    ["kb", "--list"],
]
RUN_CALLS = """
import io, json, sys
from cichon.cli import run
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    print(run(argv, out, out), out.getvalue())
"""


def test_output_independent_of_hash_seed(tmp_path):
    fam = write(tmp_path, "fam.json", {"horizon": 4, "functions": [[3, 1, 4, 1], [5, 9, 2, 6]]})
    calls = json.dumps([[a.format(f=fam) for a in argv] for argv in HASH_SEED_CALLS])
    src = os.path.dirname(os.path.dirname(cichon.__file__))
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", RUN_CALLS, calls],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n0 ") == len(HASH_SEED_CALLS) - 1


PLAIN_CALL_PROBE = """
import io
from cichon import cli
cli.run(["kb", "--list"], io.StringIO())
print(cli._build_parser.cache_info().currsize)
"""


def test_module_entry_point_and_a_fresh_plain_call(tmp_path):
    """`python -m cichon` prints what `run` prints in this process, on the
    same streams, and exits with what it returns, 1 and 2 included, and in a
    fresh process a plain call builds no parser."""
    src = os.path.dirname(os.path.dirname(cichon.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    weaker = write(tmp_path, "b.json", {"kind": "cohen", "stem": [1]})
    stronger = write(tmp_path, "a.json", {"kind": "cohen", "stem": [1, 5]})
    fails = ["poset", "--kind", "cohen", "--op", "leq", "--a", weaker, "--b", stronger]
    refused = ["diagram", "--forcing", "solovay"]
    for argv, code in ((["kb", "--list"], 0), (["diagram"], 0), (fails, 1), (refused, 2)):
        done = subprocess.run(
            [sys.executable, "-m", "cichon", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == invoke(argv)
        assert done.returncode == code
    done = subprocess.run(
        [sys.executable, "-c", PLAIN_CALL_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "0\n"


def test_results_stay_printable(tmp_path):
    """Every natural, read or computed, stays below MAX_NATURAL, so every
    result prints: the dominator (a value + 1) and the evader (a cell sum + 1)
    exit 2 once they would reach it, as does a 4,300-digit value, which
    decodes but whose successor Python will not print."""
    for value, code in ((MAX_NATURAL - 2, 0), (MAX_NATURAL - 1, 2), (10**4300 - 1, 2)):
        family = write(tmp_path, "fam.json", {"horizon": 1, "functions": [[value]]})
        cells = write(tmp_path, "cells.json", {"width": [2], "cells": [[1, value - 1]]})
        for kind, path in (("dominator", family), ("evader", cells)):
            got, out, err = invoke(["construct", "--kind", kind, "--family", path])
            assert got == code
            if code:
                assert out == ""
                assert err.startswith("MalformedInput: ")
            else:
                assert json.loads(out)["witness"] == [value + 1]


def test_unsound_slalom_file_refused(tmp_path):
    """A slalom file whose cell holds more distinct members than its width is
    refused at its first such cell; repeats collapse before the count.  A loc
    prefix is not a slalom file: its unsound cell is an invalid condition."""
    f = write(tmp_path, "f.json", [5])
    check = ["check", "--relation", "in", "--f", f, "--g"]
    cases = (
        (check, {"width": [0], "cells": [[5, 5, 3]]}, "cell 0 holds 2 members, above its width 0"),
        (EVADER[:-1], {"cells": [[], [1, 2]]}, "cell 1 holds 2 members, above its width 1"),
    )
    for argv, slalom, message in cases:
        path = write(tmp_path, "slalom.json", slalom)
        assert invoke(argv + [path]) == (2, "", f"MalformedInput: slalom {message}\n")
    path = write(tmp_path, "slalom.json", {"width": [1], "cells": [[5, 5]]})
    assert invoke(check + [path])[0] == 0
    loc = write(tmp_path, "loc.json", {"kind": "loc", "prefix": [[1]], "side": NO_SIDE})
    argv = [arg.format(kind="loc", f=loc) for arg in POSET]
    assert invoke(argv) == (2, "", "InvalidCondition: |s(n)| <= n at n=0\n")


def test_tree_entries_stay_printable(tmp_path):
    """A tree entry of 10**4000 or more exits 2."""
    path = write(tmp_path, "tree.json", {"kind": "laver", "nodes": [[], [10**4100]]})
    argv = ["poset", "--kind", "laver", "--op", "leq", "--a", path, "--b", path]
    got, out, err = invoke(argv)
    assert (got, out) == (2, "")
    assert err.startswith("MalformedInput: laver node entries must be below 10**4000")


def test_splitting_budget_key_is_ignored(tmp_path):
    """A tree file's "splitting_budget" or "branching_budget" key is an
    unknown key, ignored like any other, whatever its value."""
    tree = {"kind": "laver", "nodes": [[], [0], [1]]}
    payloads = [tree] + [{**tree, key: "x"} for key in ("splitting_budget", "branching_budget")]
    results = []
    for i, payload in enumerate(payloads):
        path = write(tmp_path, f"tree{i}.json", payload)
        results.append(invoke(["poset", "--kind", "laver", "--op", "leq", "--a", path, "--b", path]))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == 0


# ---------------------------------------------------------------------------
# `run` pauses the cyclic collector while a command runs and emits


GC_FILES = {
    "f.json": [1, 2, 3],
    "sigma.json": {"width": [1, 2, 3], "cells": [[1], [2, 5], [0, 3, 4]]},
    "fam.json": {"horizon": 3, "functions": [[1, 2, 3], [3, 0, 1]]},
    "sacks.json": {"kind": "sacks", "nodes": [[], [0], [0, 0], [0, 1]]},
    "loc.json": {
        "kind": "loc", "prefix": [[], [2]], "side": {"horizon": 4, "functions": [[1, 1, 1, 1]]}
    },
    "hechler.json": {"kind": "hechler", "stem": [0, 2, 9, 9], "side": [2, 2, 9, 9]},
    "not-below.json": {"kind": "hechler", "stem": [1, 2, 9, 9], "side": [2, 2, 9, 9]},
}
CHECK_F = ["check", "--f", "{d}/f.json", "--relation"]
SACKS = "{d}/sacks.json"
LIFT = ["project", "--map", "loc-d", "--cond", "{d}/loc.json", "--lift"]
# one small call of each verb, relation, construction, poset op and lift outcome
GC_CALLS = {
    "check-leq": CHECK_F + ["leq", "--g", "{d}/f.json"],
    "check-neq": CHECK_F + ["neq", "--g", "{d}/f.json"],
    "check-in": CHECK_F + ["in", "--g", "{d}/sigma.json"],
    **{
        f"construct-{kind}": ["construct", "--kind", kind, "--family", "{d}/fam.json"]
        for kind in ("dominator", "ioe", "evdiff", "slalom")
    },
    "construct-evader": ["construct", "--kind", "evader", "--family", "{d}/sigma.json"],
    "construct-random-family": [
        "construct", "--kind", "random-family", "--horizon", "3", "--seed", "1"
    ],
    **{
        f"poset-{op}": ["poset", "--kind", "sacks", "--op", op, "--a", SACKS, "--b", SACKS] + n
        for op, n in (("leq", []), ("fusion", ["--n", "0"]))
    },
    "project-lift": LIFT + ["{d}/hechler.json"],
    "project-lift-refused": LIFT + ["{d}/not-below.json"],
    "diagram": ["diagram", "--forcing", "hechler"],
    "cuts": ["cuts"],
    "kb": ["kb", "--list"],
}


def _gc_argv(tmp_path, argv):
    for name, payload in GC_FILES.items():
        write(tmp_path, name, payload)
    return [token.format(d=tmp_path) for token in argv]


def test_gc_calls_cover_every_verb_and_kind():
    verbs = {argv[0] for argv in GC_CALLS.values()}
    kinds = {argv[2] for argv in GC_CALLS.values() if argv[0] == "construct"}
    assert verbs == set(_VERBS) and kinds == set(CONSTRUCT_KINDS)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["cuts"], 0),
        (CHECK_F + ["neq", "--g", "{d}/f.json"], 1),
        (LIFT + ["{d}/not-below.json"], 2),  # a CichonError
        (CHECK_F + ["leq", "--g", "{d}/missing.json"], 2),  # an OSError
        (["check"], 2),  # argparse's usage error
        (["--help"], 0),
    ],
    ids=["exit-0", "exit-1", "cichon-error", "os-error", "usage-error", "help"],
)
def test_run_restores_the_collector_state(tmp_path, enabled, argv, code):
    argv = _gc_argv(tmp_path, argv)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert invoke(argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_directory_input_is_an_os_error(tmp_path):
    """A directory opens as a descriptor but fails to read; the error still
    names it, exit 2."""
    argv = _gc_argv(tmp_path, CHECK_F + ["leq", "--g", "{d}"])
    assert invoke(argv) == (2, "", f"IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_fifo_input_is_read_to_eof(tmp_path):
    """A FIFO delivers its document in two writes; both are read."""
    fifo = tmp_path / "f.fifo"
    os.mkfifo(fifo)

    def writer():
        with open(fifo, "wb", buffering=0) as handle:  # blocks until `run` opens it
            handle.write(b"[1, 2")
            time.sleep(0.2)
            handle.write(b", 3]")

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    g = write(tmp_path, "g.json", [5, 5, 5])
    code, out, err = invoke(["check", "--relation", "leq", "--f", str(fifo), "--g", g])
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert (code, err) == (0, "")
    assert json.loads(out)["horizon"] == 3


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
@pytest.mark.parametrize(
    "name, data",
    [
        ("missing.json", None),
        ("", None),  # the directory itself
        ("bad-utf8.json", b"[1, \xff]"),
        ("bad-json.json", b"[1,"),
        ("a\x00b", None),
    ],
    ids=["missing", "directory", "invalid-utf8", "invalid-json", "nul-path"],
)
def test_a_refused_read_leaks_no_descriptor(tmp_path, name, data):
    path = name if "\x00" in name else tmp_path / name
    if data is not None:
        path.write_bytes(data)
    g = write(tmp_path, "g.json", [5])
    before = _open_fds()
    assert invoke(["check", "--relation", "leq", "--f", str(path), "--g", g])[0] == 2
    assert _open_fds() == before


def test_run_pauses_the_collector_while_a_command_emits(monkeypatch):
    seen = []
    monkeypatch.setattr("cichon.cli._dump", lambda obj: seen.append(gc.isenabled()) or "[]")
    assert invoke(["cuts"]) == (0, "[]\n", "")
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize("case", sorted(GC_CALLS))
def test_a_call_leaves_no_cyclic_garbage(tmp_path, case):
    """The pause defers nothing: reference counting alone frees every value
    a command makes, so a collection right after `run` finds nothing."""
    argv = _gc_argv(tmp_path, GC_CALLS[case])
    gc.collect()
    code, _, err = invoke(argv)
    assert gc.collect() == 0
    assert (code == 2) == (case == "project-lift-refused"), err


# ---------------------------------------------------------------------------
# One rejection path: every refused input exits 2 with a clause name

POSET = ["poset", "--kind", "{kind}", "--op", "leq", "--a", "{f}", "--b", "{f}"]
FAMILY = ["construct", "--kind", "dominator", "--family", "{f}"]
EVADER = ["construct", "--kind", "evader", "--family", "{f}"]
PROJECT = ["project", "--map", "loc-d", "--cond", "{f}"]
CHECK = ["check", "--relation", "leq", "--f", "{f}", "--g", "{f}"]
NO_SIDE = {"horizon": 1, "functions": []}
ROOT_ONLY = {"kind": "laver", "nodes": [[]]}
ENTRIES = "MalformedInput: {} node entries must be natural numbers\n"
# case -> (argv, file, stderr): the whole of it, or, where the interpreter's
# JSON decoder words the fault, its start
MALFORMED = {
    "laver-string-entry-no-root": (
        POSET, {"kind": "laver", "nodes": [["a"]]}, ENTRIES.format("laver"),
    ),
    "laver-string-child": (
        POSET, {"kind": "laver", "nodes": [[], ["a"]]}, ENTRIES.format("laver"),
    ),
    "sacks-bool-child": (
        POSET, {"kind": "sacks", "nodes": [[], [True]]}, ENTRIES.format("sacks"),
    ),
    "laver-array-entry": (
        POSET, {"kind": "laver", "nodes": [[], [[1]]]}, ENTRIES.format("laver"),
    ),
    "laver-object-node": (
        POSET, {"kind": "laver", "nodes": [{}]},
        "MalformedInput: laver nodes must hold only lists\n",
    ),
    "nodes-number": (
        POSET, {"kind": "laver", "nodes": 5},
        "MalformedInput: laver nodes must be a list, got int\n",
    ),
    "product-of-cohen": (
        POSET,
        {"kind": "product", "sacks": {"kind": "cohen", "stem": []}, "laver": ROOT_ONLY},
        "MalformedInput: tree needs the key 'nodes'\n",
    ),
    "cohen-without-stem": (
        POSET, {"kind": "cohen"}, "MalformedInput: cohen condition needs the key 'stem'\n",
    ),
    "hechler-without-side": (
        POSET, {"kind": "hechler", "stem": []},
        "MalformedInput: hechler condition needs the key 'side'\n",
    ),
    "e-without-side": (
        POSET, {"kind": "e", "stem": []}, "MalformedInput: e condition needs the key 'side'\n",
    ),
    "loc-without-side": (
        POSET, {"kind": "loc", "prefix": []},
        "MalformedInput: loc condition needs the key 'side'\n",
    ),
    "product-without-laver": (
        POSET, {"kind": "product", "sacks": {"kind": "sacks", "nodes": [[]]}},
        "MalformedInput: product condition needs the key 'laver'\n",
    ),
    "loc-prefix-number": (
        PROJECT, {"kind": "loc", "prefix": 5, "side": NO_SIDE},
        "MalformedInput: loc prefix must be a list, got int\n",
    ),
    "functions-number": (
        FAMILY, {"horizon": 1, "functions": 5},
        "MalformedInput: family functions must be a list, got int\n",
    ),
    "horizon-float": (
        FAMILY, {"horizon": 3.7, "functions": []},
        "MalformedInput: family horizon must be natural numbers, got 3.7\n",
    ),
    "horizon-bool": (
        FAMILY, {"horizon": True, "functions": []},
        "MalformedInput: family horizon must be natural numbers, got True\n",
    ),
    "cells-number": (
        EVADER, {"cells": [5]}, "MalformedInput: slalom cells must hold only lists\n",
    ),
    "deep-nesting": (CHECK, "[" * 100_000, "MalformedInput: {f}: not readable JSON: "),
    # 5-entry files take the array probe, and are refused as shorter ones are
    **{
        f"five-entries-{name}": (
            CHECK, [0, 1, 2, 3, entry], f"MalformedInput: FinFunc values must be {message}\n",
        )
        for name, entry, message in (
            ("negative", -1, "natural numbers, got -1"),
            ("bool", True, "natural numbers, got True"),
            ("float", 1.5, "natural numbers, got 1.5"),
            ("past-max-natural", MAX_NATURAL, "below 10**4000, got a 13288-bit value"),
        )
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_clause(tmp_path, case):
    argv, payload, message = MALFORMED[case]
    path = tmp_path / "in.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    kind = payload.get("kind", "") if isinstance(payload, dict) else ""
    code, out, err = invoke([a.format(f=path, kind=kind) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(message.replace("{f}", str(path)))


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--kind", "evader", "--family", "s.json", "--horizon", "-1"],
        ["construct", "--kind", "random-family", "--seed", "1", "--horizon", "3",
         "--count", "-1"],
        ["construct", "--kind", "random-family", "--seed", "-1", "--horizon", "3"],
        ["construct", "--kind", "random-family", "--seed", "1", "--horizon", "3",
         "--max-value", "0"],
        ["poset", "--kind", "sacks", "--op", "fusion", "--a", "a.json",
         "--b", "b.json", "--n", "-1"],
    ],
)
def test_negative_and_zero_arguments_rejected(argv):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert err.startswith(("usage:", "MalformedInput: "))


def test_resource_bounds(tmp_path):
    """random-family draws at most MAX_VALUES values, and a decoded family
    declares at most MAX_VALUES positions, members or not."""
    draw = ["construct", "--kind", "random-family", "--seed", "1"]
    for count, horizon in (("1001", "1000"), ("4", str(10**12)), ("1000001", "0")):
        code, out, err = invoke(draw + ["--count", count, "--horizon", horizon])
        assert (code, out) == (2, "")
        assert err.startswith("MalformedInput: ")
    fam = write(tmp_path, "fam.json", {"horizon": 10**12, "functions": []})
    code, out, err = invoke(["construct", "--kind", "dominator", "--family", fam])
    assert (code, out) == (2, "")
    assert err.startswith("MalformedInput: ")


def test_lift_size_bound(tmp_path):
    """A lift adds at most |F| + 1 members per new position, all read from
    its input, so it needs no bound of its own: targets of 1,415 positions
    lift with one new member per position."""
    n = 1415
    cond = write(
        tmp_path, "c.json",
        {"kind": "loc", "prefix": [[]], "side": {"horizon": n, "functions": []}},
    )
    targets = {
        "loc-d": {"kind": "hechler", "stem": [0] + list(range(n - 1)), "side": [0] * n},
        "loc-e": {"kind": "e", "stem": [0] * n, "side": {"horizon": n, "functions": []}},
    }
    for name, target in targets.items():
        q = write(tmp_path, "q.json", target)
        code, out, err = invoke(["project", "--map", name, "--cond", cond, "--lift", q])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [len(cell) for cell in payload["lift"]["prefix"]] == [0] + [1] * (n - 1)
        assert payload["reprojection"]["stem"] == target["stem"]


def test_value_bounds_admit_exactly_max_values():
    """A random family of exactly MAX_VALUES draws passes the size bound
    and meets the next check."""
    draw = ["construct", "--kind", "random-family", "--seed", "1"]
    # a member costs one value even on horizon 0
    for count, horizon in (("1000", "1000"), ("1000000", "1"), ("1000000", "0")):
        too_large = ["--max-value", str(MAX_NATURAL + 1)]
        code, out, err = invoke(draw + ["--count", count, "--horizon", horizon] + too_large)
        assert (code, out) == (2, "")
        assert err == "MalformedInput: --max-value exceeds 10**4000\n"


def test_random_family_horizon_bound():
    """random-family writes no family that a family file may not declare,
    even one with no members."""
    draw = ["construct", "--kind", "random-family", "--seed", "1", "--count", "0"]
    code, out, err = invoke(draw + ["--horizon", "1000001"])
    assert (code, out) == (2, "")
    assert err.startswith("MalformedInput: ")
    code, out, _ = invoke(draw + ["--horizon", "1000000"])
    assert code == 0
    assert Family.from_obj(json.loads(out)).horizon == 10**6


def test_random_family_value_bound(tmp_path):
    """random-family draws no value that a family file may not hold."""
    draw = ["construct", "--kind", "random-family", "--seed", "1", "--horizon", "2"]
    code, out, err = invoke(draw + ["--count", "1", "--max-value", str(10**4100)])
    assert (code, out) == (2, "")
    assert err == "MalformedInput: --max-value exceeds 10**4000\n"
    code, out, _ = invoke(draw + ["--max-value", str(MAX_NATURAL)])
    assert code == 0
    fam = write(tmp_path, "fam.json", json.loads(out))
    assert invoke(["construct", "--kind", "ioe", "--family", fam])[0] == 0


# ---------------------------------------------------------------------------
# The plain parse against the full parser as reference

PARSER, VERBS = _build_parser()
NOISE = ("-h", "--help", "--he", "--", "--nope", "-x", "-1", "x", "frobnicate", "cuts")


def _flat(*groups):
    return [token for group in groups for part in group for token in part]


def _verb_argvs(verb):
    """`verb` with its options in any order, some left out, each written
    whole, abbreviated or as `--opt=value`, with stray tokens mixed in; or
    with its options written whole only, as most calls are."""
    options, plain = [], []
    for action in VERBS[verb]._actions[1:]:  # after -h
        exact = st.sampled_from(action.option_strings)
        word = exact | st.builds(lambda o, k: o[:k], exact, st.integers(3, 8))
        value = st.sampled_from(action.choices or ("0", "3", "-1", "x.json"))
        if action.nargs == 0:
            whole, alone = word.map(lambda w: [w]), exact.map(lambda w: [w])
        else:
            whole = st.builds(lambda w, v: [w, v], word, value)
            alone = st.builds(lambda w, v: [w, v], exact, value)
        options.append(whole | st.builds(lambda w, v: [f"{w}={v}"], word, value))
        plain.append(alone)
    noise = st.sampled_from(NOISE).map(lambda token: [token])
    every = st.tuples(*options).flatmap(st.permutations)
    some = st.lists(st.one_of(*options, noise), max_size=6)
    mixed = st.builds(lambda a, b: [verb] + _flat(a, b), every | some, st.lists(noise, max_size=2))
    whole_only = st.tuples(*plain).flatmap(st.permutations) | st.lists(
        st.one_of(*plain), max_size=7
    )
    return mixed | whole_only.map(lambda groups: [verb] + _flat(groups))


PARSE_ARGVS = st.one_of(
    *map(_verb_argvs, sorted(VERBS)),
    # options before the verb, or no or an unknown verb
    st.builds(
        lambda before, verb, after: before + verb + after,
        st.lists(st.sampled_from(NOISE), max_size=2),
        st.sampled_from(([], ["frobnicate"], ["cuts"], ["check"])),
        st.lists(st.sampled_from(NOISE), max_size=3),
    ),
)


def _parsed(parse, argv):
    """The namespace `parse` returns or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=500, deadline=None)
@given(PARSE_ARGVS)
@example([])
@example(["frobnicate"])
@example(["cuts", "--nope"])
@example(["-h", "cuts"])
@example(["cuts", "--help"])
@example(["--", "cuts"])
@example(["cuts", "--", "--format", "json"])
@example(["poset", "--n", "-1", "--kind=sacks", "--op", "fusion", "--a", "a", "--b", "b"])
@example(["check", "--rel", "leq", "--f", "a", "--g", "b", "x", "--nope"])
@example(["construct", "--kind", "random-family", "--max=3"])
@example(["check", "--relation", "leq", "--f", "-a", "--g", "b"])
@example(["poset", "--kind", "nope", "--op", "leq", "--a", "a", "--b", "b"])
@example(["check", "--relation", "leq", "--f", "a"])
@example(["diagram", "--format", "json", "--format", "dot", "--forcing", "x"])
@example(["poset", "--kind", "sacks", "--op", "fusion", "--a", "a", "--b", "b", "--n", "x"])
def test_verb_first_parse_matches_the_full_parser(argv):
    """`_parse` gives the namespace the top-level parser's `parse_args`
    gives, or exits with the same code and the same output."""
    assert _parsed(_parse, argv) == _parsed(PARSER.parse_args, argv)


def _whole_argv(verb, required_only):
    """`verb` with its options written whole, each with a value it takes."""
    argv = [verb]
    for action in VERBS[verb]._actions[1:]:  # after -h
        if required_only and not action.required:
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(action.choices[-1] if action.choices else "3")
    return argv


@pytest.mark.parametrize("required_only", [False, True])
@pytest.mark.parametrize("verb", sorted(VERBS))
def test_plain_call_takes_the_plain_path(monkeypatch, verb, required_only):
    """A call with every option written whole is read from the verb's action
    table, without argparse, into the namespace the full parser gives."""
    argv = _whole_argv(verb, required_only)
    expected = PARSER.parse_args(argv)
    monkeypatch.setattr(VERBS[verb], "parse_known_args", None)  # not called
    assert _parse(argv) == expected


# ---------------------------------------------------------------------------
# Input files read as bytes against a text-mode read as reference

FRAGMENTS = (
    b"[", b"]", b"{", b"}", b",", b":", b" ", b"1", b"-2", b'"a"', b'"\\u00e9"',
    b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xc3", b"\x80", b"\xff",
    b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff",
)
LINE_ENDS = st.sampled_from((b"\n", b"\r", b"\r\n"))
FILE_BYTES = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS) | st.binary(max_size=3), max_size=12).map(b"".join),
    # a valid document with its line ends, behind a byte-order mark or not
    st.builds(
        lambda bom, obj, end: bom + json.dumps(obj, indent=1).encode().replace(b"\n", end),
        st.sampled_from((b"", b"\xef\xbb\xbf", b"\xff\xfe")),
        st.recursive(st.integers() | st.text(max_size=3), st.lists, max_leaves=6),
        LINE_ENDS,
    ),
    # a malformed document after a line end, so the error's position counts it
    st.builds(lambda end, tail: b"[1," + end + tail, LINE_ENDS, st.sampled_from((b"]", b"x]"))),
)


def _read_text_mode(path):
    with open(path, encoding="utf-8") as handle:
        try:
            return repr(json.load(handle))
        except (ValueError, RecursionError) as exc:
            return f"{path}: not readable JSON: {exc}"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(b"[1,\r\nx]")
@example(b"\xef\xbb\xbf[]")
@example(b'\xff\xfe[\x00]\x00')
@example(b"[1, \xff]")
@given(FILE_BYTES)
def test_load_json_reads_as_text_mode(tmp_path, data):
    """`_load_json` returns the value a text-mode UTF-8 read gives, or
    refuses with the message that read's error gives."""
    path = tmp_path / "input.json"
    path.write_bytes(data)
    try:
        got = repr(_load_json(str(path)))
    except errors.MalformedInput as exc:
        got = str(exc)
    assert got == _read_text_mode(path)


@pytest.mark.parametrize("offset", range(-2, 3))
@pytest.mark.parametrize(
    "head, piece, tail",
    [(b'["', b"\xc3\xa9", b'"]'), (b"[", b"\r\n", b"x]")],
    ids=["two-byte-char", "crlf"],
)
def test_a_piece_across_a_read_chunk_reads_as_text_mode(tmp_path, head, piece, tail, offset):
    """A file longer than one read chunk, with a two-byte character or a
    line end starting `offset` bytes from the chunk's end, decodes (or is
    refused, at the translated position) as a text-mode read does."""
    pad = (b" " if piece == b"\r\n" else b"a") * (_READ_SIZE + offset - len(head))
    path = tmp_path / "input.json"
    path.write_bytes(head + pad + piece + tail)
    try:
        got = repr(_load_json(str(path)))
    except errors.MalformedInput as exc:
        got = str(exc)
    assert got == _read_text_mode(path)


# ---------------------------------------------------------------------------
# Branches the other tests leave unexercised: an exit 2 names its clause, an
# exit 0 or 1 prints the payload given.

LEQ = ["poset", "--kind", "{kind}", "--op", "leq", "--a", "{a}", "--b", "{b}"]
LIFT_D = ["project", "--map", "loc-d", "--cond", "{a}", "--lift", "{b}"]
LIFT_E = ["project", "--map", "loc-e", "--cond", "{a}", "--lift", "{b}"]


def _loc(prefix, horizon, functions=()):
    side = {"horizon": horizon, "functions": list(functions)}
    return {"kind": "loc", "prefix": prefix, "side": side}


def _e(horizon, functions=()):
    return {"kind": "e", "stem": [], "side": {"horizon": horizon, "functions": list(functions)}}


HECHLER = {"kind": "hechler", "stem": [], "side": [0]}
SWAPPED = {"kind": "product", "sacks": ROOT_ONLY, "laver": {"kind": "sacks", "nodes": [[]]}}
COHEN_PART = {"kind": "product", "sacks": {"kind": "cohen", "nodes": [[]]}, "laver": ROOT_ONLY}
NOT_BELOW = {"holds": False}
ABSENT = object()  # an expected key that stdout lacks
BRANCHES = {
    "hechler-side-horizons": (LEQ, HECHLER, {**HECHLER, "side": [0, 0]}, 2, "HorizonMismatch: "),
    "e-side-horizons": (LEQ, _e(1), _e(2), 2, "HorizonMismatch: "),
    "loc-side-horizons": (LEQ, _loc([[]], 1), _loc([[]], 2), 2, "HorizonMismatch: "),
    "e-side-not-contained": (LEQ, _e(1), _e(1, [[0]]), 1, NOT_BELOW),
    "loc-side-not-contained": (LEQ, _loc([[]], 1), _loc([[]], 1, [[0]]), 1, NOT_BELOW),
    "loc-prefix-disagrees": (LEQ, _loc([[], [1]], 2), _loc([[], [2]], 2), 1, NOT_BELOW),
    "loc-prefix-past-side": (
        LEQ, _loc([[], []], 1), _loc([[], []], 1), 2,
        "InvalidCondition: |s| <= side horizon",
    ),
    "leq-with-n": (
        LEQ + ["--n", "3"], ROOT_ONLY, ROOT_ONLY, 2,
        "MalformedInput: --n applies to --op fusion only",
    ),
    "fusion-without-n": (
        ["poset", "--kind", "laver", "--op", "fusion", "--a", "{a}", "--b", "{b}"],
        ROOT_ONLY, ROOT_ONLY, 2, "MalformedInput: fusion comparison needs --n\n",
    ),
    "fusion-non-fusion-kind": (
        ["poset", "--kind", "cohen", "--op", "fusion", "--a", "{a}", "--b", "{b}", "--n", "0"],
        ROOT_ONLY, ROOT_ONLY, 2, "KindMismatch: fusion orders exist for ",
    ),
    "product-cohen-part": (
        LEQ, COHEN_PART, COHEN_PART, 2,
        "MalformedInput: expected a sacks or laver tree, got 'cohen'",
    ),
    "product-swapped": (
        LEQ, SWAPPED, SWAPPED, 2, "InvalidCondition: first component must be a sacks tree; ",
    ),
    "evader-truncated": (
        ["construct", "--kind", "evader", "--family", "{a}", "--horizon", "2"],
        {"cells": [[], [1], [1, 2]]}, None, 0, {"witness": [1, 2]},
    ),
    "construct-horizon-past-input": (
        FAMILY + ["--horizon", "3"], {"horizon": 2, "functions": [[1, 2]]}, None, 2,
        "MalformedInput: --horizon 3 exceeds the input's 2\n",
    ),
    # random-family's options, refused elsewhere in one wording
    **{
        f"construct-{option}-outside-random-family": (
            ["construct", "--kind", kind, "--family", "{a}", f"--{option}", value],
            {"horizon": 1, "functions": [[1]]}, None, 2,
            f"MalformedInput: --{option} is only accepted by --kind random-family\n",
        )
        for option, kind, value in (("seed", "ioe", "1"), ("count", "dominator", "9"), ("max-value", "evdiff", "0"))
    },
    # paths no file can have, which only an in-process caller can pass
    "check-nul-in-path": (
        ["check", "--relation", "leq", "--f", "a\x00b", "--g", "{b}"], None, [1], 2,
        "MalformedInput: 'a\\x00b': not a usable path: embedded null byte\n",
    ),
    "check-lone-surrogate-in-path": (
        ["check", "--relation", "leq", "--f", "\ud800", "--g", "{b}"], None, [1], 2,
        "MalformedInput: '\\ud800': not a usable path: ",
    ),
    "dominator-without-family": (
        ["construct", "--kind", "dominator"], None, None, 2, "MalformedInput: ",
    ),
    "project-pair-without-target": (
        ["project", "--map", "loc-d", "--cond", "{a}"], {"loc": _loc([[], [3]], 3, [[1, 4, 2]])},
        None, 0, {"kind": "hechler", "stem": [0, 3], "side": [1, 4, 2]},
    ),
    "project-pair-and-lift": (LIFT_D, {"loc": _loc([[]], 1)}, HECHLER, 2, "MalformedInput: "),
    "project-non-loc": (
        ["project", "--map", "loc-d", "--cond", "{a}"], HECHLER, None, 2,
        "KindMismatch: expected 'loc' condition, got 'hechler'",
    ),
    "project-lift-wrong-kind": (
        LIFT_D, _loc([[]], 1), _e(1), 2, "KindMismatch: expected 'hechler' condition, got 'e'",
    ),
    "project-lift-d-horizons": (
        LIFT_D, _loc([[]], 2), HECHLER, 2,
        "HorizonMismatch: hechler sides live on different horizons",
    ),
    "project-lift-e-horizons": (
        LIFT_E, _loc([[]], 2), _e(1), 2,
        "HorizonMismatch: e-condition families live on different horizons",
    ),
    "check-in-width-length": (
        ["check", "--relation", "in", "--f", "{a}", "--g", "{b}"],
        [0], {"cells": [[0]], "width": [1, 1]}, 2, "HorizonMismatch: ",
    ),
    "family-member-horizon": (
        FAMILY, {"horizon": 2, "functions": [[1]]}, None, 2, "HorizonMismatch: ",
    ),
    "check-horizon-0": (
        ["check", "--relation", "leq", "--f", "{a}", "--g", "{b}"],
        [], [], 0, {"holds": True, "counterexample_position": ABSENT},
    ),
    "random-family-max-value-1": (
        ["construct", "--kind", "random-family", "--seed", "3", "--horizon", "3", "--count",
         "2", "--max-value", "1"], None, None, 0, {"functions": [[0, 0, 0], [0, 0, 0]]},
    ),
    "leq-prints-no-n": (LEQ, ROOT_ONLY, ROOT_ONLY, 0, {"holds": True, "n": ABSENT}),
    "fusion-prints-n": (
        ["poset", "--kind", "laver", "--op", "fusion", "--a", "{a}", "--b", "{b}", "--n", "0"],
        ROOT_ONLY, ROOT_ONLY, 0, {"holds": True, "n": 0},
    ),
}


@pytest.mark.parametrize("case", sorted(BRANCHES))
def test_rarely_taken_branches(tmp_path, case):
    argv, a, b, code, expected = BRANCHES[case]
    kind = a.get("kind", "") if isinstance(a, dict) else ""
    a, b = write(tmp_path, "a.json", a), write(tmp_path, "b.json", b)
    got, out, err = invoke([arg.format(kind=kind, a=a, b=b, f=a) for arg in argv])
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith(expected)
    else:
        assert err == ""
        payload = json.loads(out)
        assert {key: payload.get(key, ABSENT) for key in expected} == expected


CLAUSES = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.CichonError)
}
FIELDS = (
    "kind", "stem", "side", "prefix", "nodes", "horizon", "functions", "cells",
    "width", "sacks", "laver", "loc", "target", "branching_budget",
    "splitting_budget",
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(POSET_KINDS),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=30,
)
ARGVS = st.one_of(
    st.builds(
        lambda rel: ["check", "--relation", rel, "--f", "{a}", "--g", "{b}"],
        st.sampled_from(("eq", "leq", "neq", "in")),
    ),
    st.builds(
        lambda kind, horizon: ["construct", "--kind", kind, "--family", "{a}"] + horizon,
        st.sampled_from(("dominator", "ioe", "evdiff", "slalom", "evader")),
        st.sampled_from(([], ["--horizon", "0"], ["--horizon", "2"])),
    ),
    st.builds(
        lambda kind, op: ["poset", "--kind", kind, "--op", op, "--a", "{a}", "--b", "{b}"]
        + (["--n", "1"] if op == "fusion" else []),
        st.sampled_from(POSET_KINDS),
        st.sampled_from(("leq", "fusion")),
    ),
    st.builds(
        lambda name, lift, reduce: ["project", "--map", name, "--cond", "{a}"]
        + lift + reduce,
        st.sampled_from(("loc-d", "loc-e")),
        st.sampled_from(([], ["--lift", "{b}"])),
        st.sampled_from(([], ["--reduce"])),
    ),
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ARGVS, JSON, JSON)
def test_arbitrary_json_keeps_exit_code_contract(tmp_path, argv, first, second):
    """Every file slot takes any JSON: nothing escapes, the exit code stays in
    {0, 1, 2}, an exit 2 names a clause from errors.py (the arguments are
    always well formed, so argparse never answers), and a second call gives
    the same answer."""
    paths = {
        "{a}": write(tmp_path, "a.json", first),
        "{b}": write(tmp_path, "b.json", second),
    }
    argv = [paths.get(a, a) for a in argv]
    code, out, err = invoke(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.split(":", 1)[0] in CLAUSES
    assert invoke(argv) == (code, out, err)
