"""Reference checks for every benchmark op, written from the definitions.

This module imports nothing from `cichon`.  It reads the op's input files,
recomputes what the answer must be (least thresholds, hit counts, tree and
condition orders, the diagram's upward-closed cuts) and checks the CLI's
exit code and stdout against it.  Where the program has a free choice (the
witness a construction picks, the side function a projection uses) it
checks the laws the output must obey rather than one formula, so a change
of formula that keeps the laws does not trip the benchmark.

The only program files it reads are `errors.py`, for the clause names an
exit-2 report may start with, and the knowledge-base data file.
"""

from __future__ import annotations

import json
import os
import re

NODES = ("Empty", "BIn", "BLeq", "BNeq", "DNeq", "DLeq", "DIn", "AllNew")
REGIONS = NODES[1:]
# The inclusion arrows of the diagram (arXiv 1801.06497): nonemptiness
# flows along them.
EDGES = {
    ("Empty", "BIn"), ("BIn", "BLeq"), ("BLeq", "BNeq"), ("BIn", "DNeq"),
    ("BLeq", "DLeq"), ("BNeq", "DIn"), ("DNeq", "DLeq"), ("DLeq", "DIn"),
    ("DIn", "AllNew"),
}


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _options(args):
    out, i = {}, 0
    while i < len(args):
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            out[args[i]] = args[i + 1]
            i += 2
        else:
            out[args[i]] = True
            i += 1
    return out


def _least_threshold(holds_at, horizon):
    """Least k with the property on all of [k, horizon)."""
    failing = [l for l in range(horizon) if not holds_at(l)]
    return failing[-1] + 1 if failing else 0


def _differs(got, want, what="stdout"):
    return None if got == want else f"{what} {got!r:.200} != expected {want!r:.200}"


class Oracle:
    def __init__(self, src_root: str):
        package = os.path.join(src_root, "cichon")
        with open(os.path.join(package, "errors.py"), encoding="utf-8") as handle:
            bases = dict(re.findall(r"^class (\w+)\((\w+)\)", handle.read(), re.M))
        self.clauses = {name for name in bases if self._is_clause(name, bases)}
        self.kb = _load(os.path.join(package, "data", "kb.json"))["profiles"]

    @staticmethod
    def _is_clause(name, bases):
        while name in bases:
            if name == "CichonError":
                return True
            name = bases[name]
        return name == "CichonError"

    def check(self, op: dict, code: int, out: str, err: str) -> str | None:
        """None when the op's result is right, else the reason it is not."""
        if code not in (0, 1, 2):
            return f"exit code {code} is outside the contract"
        if code != op["expect"]:
            return f"exit code {code}, expected {op['expect']} ({err.strip()[:200]})"
        if code == 2:
            clause = err.split(":", 1)[0]
            return None if clause in self.clauses else f"exit 2 without a clause name: {err[:200]!r}"
        verb, opts = op["argv"][0], _options(op["argv"][1:])
        try:
            return getattr(self, f"_{verb}")(opts, code, out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"output not as specified: {exc!r}"

    # -- threshold relations -------------------------------------------------

    def _check(self, o, code, out):
        f, g, rel = _load(o["--f"]), _load(o["--g"]), o["--relation"]
        if rel == "in":
            cells = [set(c) for c in g["cells"]]
            holds_at = lambda l: f[l] in cells[l]  # noqa: E731
        elif rel == "leq":
            holds_at = lambda l: f[l] <= g[l]  # noqa: E731
        else:
            holds_at = lambda l: f[l] != g[l]  # noqa: E731
        n = len(f)
        k = _least_threshold(holds_at, n)
        holds = k < n or n == 0
        want = {"relation": rel, "horizon": n, "holds": holds, "threshold": k, "vacuous": k == n}
        if k == n and n > 0:
            want["counterexample_position"] = n - 1
        return _differs(code, 0 if holds else 1, "exit code") or _differs(json.loads(out), want)

    # -- constructions ---------------------------------------------------------

    def _construct(self, o, code, out):
        kind, raw, got = o["--kind"], _load(o["--family"]), json.loads(out)
        cut = int(o["--horizon"]) if "--horizon" in o else None
        if got.get("kind") != kind:
            return f"kind {got.get('kind')!r} != {kind!r}"
        w = got["witness"]
        if kind == "evader":
            cells = raw["cells"][:cut]
            if len(w) != len(cells):
                return "evader horizon differs from the slalom's"
            bad = [n for n, c in enumerate(cells) if w[n] <= max(c, default=-1)]
            return f"evader bound does not clear the cell at {bad[:3]}" if bad else None
        fam = [f[:cut] for f in raw["functions"]]
        n = cut if cut is not None else raw["horizon"]
        if kind == "slalom":
            return self._capture_slalom(fam, n, w, got["capture_thresholds"])
        if len(w) != n or any(not isinstance(v, int) or v < 0 for v in w):
            return "witness is not a natural-valued function on the horizon"
        if kind == "dominator":
            if any(f[l] >= w[l] for f in fam for l in range(n)):
                return "dominator does not strictly exceed every member"
            reports = [
                _least_threshold(lambda l, f=f: f[l] <= w[l], n) for f in fam
            ]
            want = {
                "relation": "leq", "mode": "bounding",
                "thresholds": [{"threshold": k, "vacuous": k == n} for k in reports],
                "hits": None, "max_threshold": max(reports, default=0), "min_hits": "inf",
            }
            return _differs(got["report"], want, "report")
        hits = [sum(1 for l in range(n) if w[l] == f[l]) for f in fam]
        if kind == "ioe" and any(h < n // len(fam) for h in hits):
            return "a member is matched fewer than N/|F| times"
        if kind == "evdiff":
            if any(hits):
                return "avoider agrees with a member"
            if any(v > len(fam) for v in w):
                return "avoider exceeds the family size"
        want = {
            "relation": "eq", "mode": "evading", "thresholds": None, "hits": hits,
            "max_threshold": 0, "min_hits": min(hits) if hits else "inf",
        }
        return _differs(got["report"], want, "report")

    @staticmethod
    def _capture_slalom(fam, n, sigma, thresholds):
        if sigma["width"] != list(range(n)) or len(sigma["cells"]) != n:
            return "capture slalom is not identity-width on the horizon"
        for l, cell in enumerate(sigma["cells"]):
            if cell != sorted(set(cell)) or len(cell) > l:
                return f"cell {l} is not a sorted set of at most {l} values"
        cells = [set(c) for c in sigma["cells"]]
        want = [_least_threshold(lambda l, f=f: f[l] in cells[l], n) for f in fam]
        if thresholds != want:
            return _differs(thresholds, want, "capture thresholds")
        late = [i for i, k in enumerate(want) if k > min(i + 1, n)]
        return f"members {late[:3]} are captured late" if late else None

    # -- forcing orders --------------------------------------------------------

    def _poset(self, o, code, out):
        kind, op = o["--kind"], o["--op"]
        a, b = _load(o["--a"]), _load(o["--b"])
        n = int(o["--n"]) if op == "fusion" else None
        holds = condition_leq(kind, a, b, n)
        want = {"kind": kind, "op": op, "holds": holds}
        if n is not None:
            want["n"] = n
        return _differs(code, 0 if holds else 1, "exit code") or _differs(json.loads(out), want)

    # -- projections -----------------------------------------------------------

    def _project(self, o, code, out):
        raw = _load(o["--cond"])
        if "loc" in raw:
            cond, target = raw["loc"], raw.get("target")
        else:
            cond, target = raw, _load(o["--lift"]) if "--lift" in o else None
        name, got = o["--map"], json.loads(out)
        if target is None:
            return projection_laws(name, cond, got)
        lift, reprojection = got["lift"], got["reprojection"]
        problem = loc_violations(lift)
        if problem:
            return f"lift is not a localization condition: {problem}"
        if not condition_leq("loc", lift, cond, None):
            return "lift does not strengthen --cond"
        if o.get("--reduce"):
            reduced = got["reduced_target"]
            problem = reduce_laws(target, reduced, len(cond["prefix"]))
            if problem:
                return problem
            target = reduced
        return _differs(reprojection, target, "reprojection") or projection_laws(
            name, lift, reprojection
        )

    # -- diagram and knowledge base ---------------------------------------------

    def _state(self, forcing):
        emptiness = {node: "unknown" for node in NODES}
        entry = self.kb[forcing] if forcing else {}
        emptiness.update(entry.get("emptiness", {}))
        emptiness["Empty"] = "empty"
        state = {"emptiness": emptiness}
        if "classes" in entry:
            state["classes"] = entry["classes"]
            state["separators"] = entry.get(
                "separators", ["distinct"] * (len(entry["classes"]) - 1)
            )
        if "citation" in entry:
            state["citation"] = entry["citation"]
        return state

    def _diagram(self, o, code, out):
        want = self._state(o.get("--forcing"))
        nonempty = {n for n, v in want["emptiness"].items() if v == "nonempty"}
        if not upward_closed(nonempty):
            return "knowledge-base state is not upward closed"
        if o.get("--format", "dot") == "json":
            return _differs(json.loads(out), want)
        return _differs(parse_dot(out), (want["emptiness"], want.get("classes"), EDGES), "dot")

    def _cuts(self, o, code, out):
        got = json.loads(out)
        want = sorted(
            (c for c in _subsets(REGIONS) if upward_closed(set(c))),
            key=lambda c: (len(c), [NODES.index(n) for n in c]),
        )
        problem = _differs([c["nonempty"] for c in got], [list(c) for c in want], "cuts")
        if problem:
            return problem
        for cut in got:
            realizers = {
                name for name, entry in self.kb.items()
                if _nonempty(entry) == set(cut["nonempty"])
            }
            if cut["realized_by"] not in (realizers or {None}):
                return f"cut {cut['nonempty']} realized by {cut['realized_by']!r}"
        return None

    def _kb(self, o, code, out):
        want = [
            {
                "name": name,
                "citation": entry.get("citation", ""),
                "nonempty": sorted(_nonempty(entry), key=NODES.index),
            }
            for name, entry in sorted(self.kb.items())
        ]
        return _differs(json.loads(out), want)


# ---------------------------------------------------------------------------
# Definitions shared by the checks


def _subsets(items):
    for mask in range(1 << len(items)):
        yield tuple(x for i, x in enumerate(items) if mask >> i & 1)


def upward_closed(nonempty) -> bool:
    return all(b in nonempty for a, b in EDGES if a in nonempty)


def _nonempty(entry):
    return {n for n, v in entry["emptiness"].items() if v == "nonempty" and n != "Empty"}


def parse_dot(text):
    """(emptiness, classes, edges) read back from the DOT rendering."""
    emptiness, classes, edges, current = {}, [], set(), None
    for line in text.splitlines():
        line = line.strip()
        edge = re.fullmatch(r'"(\w+)" -> "(\w+)";', line)
        node = re.fullmatch(r'"(\w+)"( \[.*\])?;', line)
        if edge:
            edges.add(edge.groups())
        elif line.startswith("subgraph cluster_"):
            current = []
        elif line == "}" and current is not None:
            classes.append(current)
            current = None
        elif node and current is not None:
            current.append(node.group(1))
        elif node:
            attrs = node.group(2) or ""
            emptiness[node.group(1)] = (
                "empty" if "filled" in attrs else "unknown" if "dashed" in attrs else "nonempty"
            )
    return emptiness, classes or None, edges


def _extends(longer, shorter):
    return len(longer) >= len(shorter) and longer[: len(shorter)] == shorter


def _members(family):
    return {tuple(f) for f in family["functions"]}


def loc_violations(c) -> str | None:
    prefix, side = c["prefix"], c["side"]
    if c.get("kind") != "loc":
        return "kind is not loc"
    for n, cell in enumerate(prefix):
        if cell != sorted(set(cell)) or len(cell) > n:
            return f"cell {n} is not a set of at most {n} values"
    if len(side["functions"]) > len(prefix):
        return "|F| > |s|"
    if len(prefix) > side["horizon"] or any(len(f) != side["horizon"] for f in side["functions"]):
        return "horizons disagree"
    return None


def _tree_index(nodes):
    nodes = {tuple(n) for n in nodes}
    kids = {}
    for node in nodes:
        if node:
            kids.setdefault(node[:-1], []).append(node)
    return nodes, kids


def split_levels(nodes):
    """{splitting node: number of splitting proper predecessors}."""
    nodes, kids = _tree_index(nodes)
    out, stack = {}, [((), 0)]
    while stack:
        node, level = stack.pop()
        splits = len(kids.get(node, ())) >= 2
        if splits:
            out[node] = level
        stack.extend((k, level + splits) for k in kids.get(node, ()))
    return out


def canonical(nodes):
    """Nodes strictly above the stem in length-then-lexicographic order."""
    nodes, kids = _tree_index(nodes)
    stem = ()
    while len(kids.get(stem, ())) == 1:
        stem = kids[stem][0]
    above = [n for n in nodes if len(n) > len(stem) and n[: len(stem)] == stem]
    return sorted(above, key=lambda n: (len(n), n))


def condition_leq(kind, a, b, n) -> bool:
    """a strengthens b (at fusion index n, when given) by the definitions."""
    if kind == "product":
        return condition_leq("sacks", a["sacks"], b["sacks"], n) and condition_leq(
            "laver", a["laver"], b["laver"], n
        )
    if kind in ("sacks", "laver"):
        below = {tuple(x) for x in a["nodes"]} <= {tuple(x) for x in b["nodes"]}
        if not below or n is None:
            return below
        if kind == "laver":
            return canonical(a["nodes"])[: n + 1] == canonical(b["nodes"])[: n + 1]
        mine, theirs = split_levels(a["nodes"]), split_levels(b["nodes"])
        return all(theirs.get(node) == level for node, level in mine.items() if level <= n)
    if kind == "loc":
        s, t = b["prefix"], a["prefix"]
        return (
            len(t) >= len(s)
            and [set(c) for c in t[: len(s)]] == [set(c) for c in s]
            and _members(b["side"]) <= _members(a["side"])
            and all(f[m] in t[m] for f in b["side"]["functions"] for m in range(len(s), len(t)))
        )
    if not _extends(a["stem"], b["stem"]):
        return False
    new = range(len(b["stem"]), len(a["stem"]))
    if kind == "cohen":
        return True
    if kind == "hechler":
        return all(a["stem"][m] >= b["side"][m] for m in new) and all(
            x >= y for x, y in zip(a["side"], b["side"])
        )
    return _members(b["side"]) <= _members(a["side"]) and all(
        a["stem"][m] != f[m] for f in b["side"]["functions"] for m in new
    )


def _rank_outside(excluded, m):
    return None if m in excluded else m - sum(1 for x in excluded if x < m)


def projection_laws(name, cond, got) -> str | None:
    """Laws of the two projections of a localization condition (s, F):
    loc-d: stem(n) is the maximum of s(n) and the side bounds every member;
    loc-e: stem(n) avoids s(n) with an avoidance rank below n, and the side
    family passes through."""
    prefix, side = cond["prefix"], cond["side"]
    if name == "loc-d":
        if got.get("kind") != "hechler":
            return "projection is not a hechler condition"
        if got["stem"] != [max(c, default=0) for c in prefix]:
            return "projected stem is not the cell maximum"
        d = got["side"]
        if len(d) != side["horizon"] or any(
            d[m] < f[m] for f in side["functions"] for m in range(len(d))
        ):
            return "projected side does not bound every member"
        return None
    if got.get("kind") != "e" or got["side"] != side:
        return "projection is not an e condition with the same side family"
    stem = got["stem"]
    if len(stem) != len(prefix) or (stem and stem[0] != 0):
        return "projected stem has the wrong shape"
    for m in range(1, len(stem)):
        rank = _rank_outside(set(prefix[m]), stem[m])
        if rank is None or rank >= m:
            return f"projected stem value at {m} is not a low-rank avoider"
    return None


def reduce_laws(target, reduced, from_position) -> str | None:
    """reduce_e keeps the side and the stem before from_position, and may
    only replace later values by the least value outside the side values."""
    if reduced.get("kind") != "e" or reduced["side"] != target["side"]:
        return "reduced target changed kind or side"
    if len(reduced["stem"]) != len(target["stem"]):
        return "reduced target changed the stem length"
    for m, (old, new) in enumerate(zip(target["stem"], reduced["stem"])):
        taken = {f[m] for f in target["side"]["functions"]}
        least = next(v for v in range(len(taken) + 1) if v not in taken)
        if new != old and (m < from_position or new != least):
            return f"reduced stem value at {m} is not the least free value"
    return None
