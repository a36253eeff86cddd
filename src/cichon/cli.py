"""Command-line surface, file codecs, and the exit-code contract.

Exit codes: 0 = success / the queried relation holds; 1 = the relation or
law fails (a counterexample report is printed); 2 = malformed input or a
violated precondition: a `CichonError` (a wrong shape or type in a file is
`MalformedInput`, checked where it is decoded) or an unreadable file's
`OSError`, printed on stderr as `<clause>: <message>`, or argparse's usage
text.  Outputs are byte-identical across runs on identical inputs.

Each command returns only its result, and `run` alone writes it, once the
command's decoded inputs are freed, and derives the exit code from it: 1
exactly when the result's top-level "holds" is false, else 0.  A refused
call writes nothing on stdout.

`_VERBS` is the one table of each verb's options.  A plain call (every
option written whole, each value not starting with "-", every required
option given and every value of its type and among its choices) is read
straight from its verb's rows and builds no parser; argparse, built from the
same rows once per process, parses and words everything else.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import sys

from . import combinatorics as comb
from . import constructions as cons
from . import diagram as dia
from . import posets
from . import projections as proj
from .errors import CichonError, MalformedInput

CONSTRUCT_KINDS = ("dominator", "ioe", "evdiff", "slalom", "evader", "random-family")

# kind -> (name in `constructions`, looked up at call time; report relation, mode)
WITNESS_KINDS = {
    "dominator": ("family_dominator", "leq", "bounding"),
    "ioe": ("round_robin_ioe", "eq", "evading"),
    "evdiff": ("least_avoider", "eq", "evading"),
}


def _dump(obj) -> str:
    return comb.dump_json(obj)


_READ_SIZE = 1 << 16  # bytes asked of each os.read of an input file


def _load_json(path: str):
    """The file's JSON value, read as text mode would read it: UTF-8 only,
    with its line ends translated to "\\n".  The bytes are read to EOF from
    a raw descriptor, so a pipe or FIFO reads like a regular file."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    except ValueError as exc:  # a NUL in the path, or a lone surrogate
        raise MalformedInput(f"{path!r}: not a usable path: {exc}") from None
    chunks = []
    try:
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:  # a directory opens, then fails to read
        exc.filename = path
        raise
    finally:
        os.close(fd)
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # syntax, encoding, depth
        raise MalformedInput(f"{path}: not readable JSON: {exc}") from None


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {value}")
    return value


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its verb parsers by name, built once from `_VERBS`."""
    parser = argparse.ArgumentParser(
        prog="cichon",
        description="Finite-scale combinatorics of the Cichon diagram.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, text, options) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
    return parser, sub.choices


def _parse_plain(verb: str, tokens) -> argparse.Namespace | None:
    """The top-level parser's `parse_args([verb, *tokens])` when every token
    is an option of `verb` written whole, a store option's value not
    starting with "-", or a store_true flag, and every value converts and
    every required option is given; else None, and argparse parses the call."""
    rows, defaults, required = _PLAIN[verb]
    args = dict(defaults, verb=verb)
    tokens = iter(tokens)
    for token in tokens:
        row = rows.get(token)
        if row is None:
            return None
        dest, kw = row
        if "action" in kw:  # store_true, the table's one action
            value = True
        else:
            value = next(tokens, "-")  # a missing value reads as an option
            if value.startswith("-"):
                return None
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        args[dest] = value
    if any(args[dest] is None for dest in required):  # a given value is never None
        return None
    ns = argparse.Namespace()  # Namespace(**args) sets each attribute in a Python loop
    vars(ns).update(args)
    return ns


def _parse(argv) -> argparse.Namespace:
    """The top-level parser's `parse_args(argv)`; a plain call is read from
    its verb's rows instead, without building a parser."""
    args = _parse_plain(argv[0], argv[1:]) if argv and argv[0] in _PLAIN else None
    return args if args is not None else _build_parser()[0].parse_args(argv)


def _cmd_diagram(args):
    state = dia.kb_lookup(args.forcing) if args.forcing is not None else dia.DiagramState(emptiness={})
    return dia.emit_json(state) + "\n" if args.format == "json" else dia.emit_dot(state)


def _cmd_cuts(args):
    return [cut.to_obj() for cut in dia.enumerate_cuts()]


def _cmd_check(args):
    f = comb.FinFunc.from_obj(_load_json(args.f))
    target = comb.RELATIONS[args.relation][1].from_obj(_load_json(args.g))
    report = comb.least_threshold(args.relation, f, target)
    holds = not report.vacuous or f.horizon == 0
    payload = {**report.to_obj(), "relation": args.relation, "horizon": f.horizon, "holds": holds}
    if not holds:
        payload["counterexample_position"] = f.horizon - 1
    return payload


def _truncate(obj, horizon):
    """The first `horizon` positions of a family or a slalom."""
    if horizon > obj.horizon:
        raise MalformedInput(f"--horizon {horizon} exceeds the input's {obj.horizon}")
    return obj.prefix(horizon)


def _cmd_construct(args):
    if args.kind == "random-family":
        if args.family is not None:
            raise MalformedInput("--family is not accepted by --kind random-family")
        count = 4 if args.count is None else args.count
        max_value = 16 if args.max_value is None else args.max_value
        if args.seed is None or args.horizon is None or max_value < 1:
            raise MalformedInput("random-family needs --seed, --horizon, --max-value >= 1")
        # a member costs a line of output even on horizon 0
        if count * max(args.horizon, 1) > comb.MAX_VALUES:
            raise MalformedInput(f"--count x --horizon exceeds {comb.MAX_VALUES}")
        if args.horizon > comb.MAX_VALUES:  # what a family file may declare, members or not
            raise MalformedInput(f"--horizon {args.horizon} exceeds {comb.MAX_VALUES}")
        if max_value > comb.MAX_NATURAL:  # draws stay below --max-value
            raise MalformedInput("--max-value exceeds 10**4000")
        rng = random.Random(args.seed)
        functions = [
            [rng.randrange(max_value) for _ in range(args.horizon)]
            for _ in range(count)
        ]
        return {"horizon": args.horizon, "functions": functions}
    for option in ("seed", "count", "max_value"):
        if getattr(args, option) is not None:
            raise MalformedInput(f"--{option.replace('_', '-')} is only accepted by --kind random-family")
    if args.family is None:
        raise MalformedInput(f"--kind {args.kind} needs --family FILE")
    decode = comb.Slalom.from_obj if args.kind == "evader" else comb.Family.from_obj
    source = decode(_load_json(args.family))
    if args.horizon is not None:
        source = _truncate(source, args.horizon)
    if args.kind == "evader":
        return {"kind": args.kind, "witness": cons.sum_evader_bound(source).to_obj()}
    if args.kind == "slalom":
        sigma, thresholds = cons.family_slalom(source)
        payload = {"witness": sigma.to_obj(), "capture_thresholds": list(thresholds)}
    else:
        name, relation, mode = WITNESS_KINDS[args.kind]
        witness = getattr(cons, name)(source)
        report = comb.family_report(relation, witness, source, mode)
        payload = {"witness": witness.to_obj(), "report": report.to_obj()}
    return {"kind": args.kind, **payload}


def _cmd_poset(args):
    a = posets.condition_from_obj(_load_json(args.a))
    b = posets.condition_from_obj(_load_json(args.b))
    if args.op == "fusion":
        if args.n is None:
            raise MalformedInput("fusion comparison needs --n")
        holds = posets.fusion_leq(args.kind, a, b, args.n)
        return {"kind": args.kind, "op": args.op, "holds": holds, "n": args.n}
    if args.n is not None:
        raise MalformedInput("--n applies to --op fusion only")
    return {"kind": args.kind, "op": args.op, "holds": posets.leq(args.kind, a, b)}


def _cmd_project(args):
    raw = _load_json(args.cond)
    pair = isinstance(raw, dict) and "loc" in raw  # {"loc": ..., "target": ...}
    if pair and args.lift is not None:
        raise MalformedInput("--lift conflicts with a pair file in --cond")
    cond = posets.condition_from_obj(raw["loc"] if pair else raw)
    target = None
    if pair and "target" in raw:
        target = posets.condition_from_obj(raw["target"])
    elif not pair and args.lift is not None:
        target = posets.condition_from_obj(_load_json(args.lift))
    if args.map_name == "loc-d":
        project, lift = proj.proj_loc_to_d, proj.lift_loc_to_d
    else:
        project, lift = proj.proj_loc_to_e, proj.lift_loc_to_e
    if args.reduce and (args.map_name != "loc-e" or target is None):
        raise MalformedInput("--reduce applies to a loc-e lift only")
    if target is None:
        return posets.condition_to_obj(project(cond))
    if args.reduce:
        target = proj.reduce_e(target, posets.require_valid(cond, "loc").prefix.horizon)
    lifted = lift(cond, target)
    payload = {
        "lift": posets.condition_to_obj(lifted),
        "reprojection": posets.condition_to_obj(project(lifted)),
    }
    if args.reduce:
        payload["reduced_target"] = posets.condition_to_obj(target)
    return payload


def _cmd_kb(args):
    entries = []
    for name in dia.kb_names():
        state = dia.kb_lookup(name)
        nonempty = sorted(state.nonempty_set(), key=dia.NODE_RANK.get)
        citation = state.citation or ""
        entries.append({"name": name, "citation": citation, "nonempty": nonempty})
    return entries


# verb -> (command, help, {option: its argparse keywords}): the one place that
# says which options a verb takes; `_build_parser` and `_parse_plain` read it
_VERBS = {
    "diagram": (_cmd_diagram, "render the diagram, optionally for a forcing", {
        "--forcing": dict(help="knowledge-base entry to render"),
        "--format": dict(choices=("dot", "json"), default="dot"),
    }),
    "cuts": (_cmd_cuts, "enumerate the upward-closed cuts", {
        "--format": dict(choices=("json",), default="json"),
    }),
    "check": (_cmd_check, "least-threshold check between two objects", {
        "--relation": dict(choices=tuple(comb.RELATIONS), required=True),
        "--f": dict(required=True, metavar="FILE"),
        "--g": dict(required=True, metavar="FILE"),
    }),
    "construct": (_cmd_construct, "build a witness from an input file", {
        "--kind": dict(choices=CONSTRUCT_KINDS, required=True),
        "--family": dict(metavar="FILE"),
        "--horizon": dict(type=_natural),
        "--seed": dict(type=_natural),
        "--count": dict(type=_natural),
        "--max-value": dict(type=_natural),
    }),
    "poset": (_cmd_poset, "compare two forcing conditions", {
        "--kind": dict(choices=posets.POSET_KINDS, required=True),
        "--op": dict(choices=("leq", "fusion"), required=True),
        "--a": dict(required=True, metavar="FILE"),
        "--b": dict(required=True, metavar="FILE"),
        "--n": dict(type=_natural),
    }),
    "project": (_cmd_project, "project or lift a localization condition", {
        "--map": dict(choices=("loc-d", "loc-e"), required=True, dest="map_name"),
        "--cond": dict(required=True, metavar="FILE"),
        "--lift": dict(metavar="FILE"),
        "--reduce": dict(action="store_true"),
    }),
    "kb": (_cmd_kb, "list the forcing knowledge base", {"--list": dict(action="store_true")}),
}


def _plain_rows(options):
    """A verb's options as the plain parse reads them: each option's dest and
    keywords, the namespace's defaults, and the required options' dests."""
    rows = {o: (kw.get("dest", o.lstrip("-").replace("-", "_")), kw) for o, kw in options.items()}
    defaults = {d: kw.get("default", False if "action" in kw else None) for d, kw in rows.values()}
    return rows, defaults, [d for d, kw in rows.values() if kw.get("required")]


_PLAIN = {verb: _plain_rows(options) for verb, (_, _, options) in _VERBS.items()}


def run(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    # argparse writes --help to sys.stdout and usage errors to sys.stderr
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        sys.stdout, sys.stderr = streams
    # a command's values hold no reference cycles, so the collector only rescans them
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        payload = _VERBS[args.verb][0](args)
        if isinstance(payload, str):  # diagram's finished text
            out.write(payload)
        else:
            print(_dump(payload), file=out)
        return 1 if isinstance(payload, dict) and payload.get("holds") is False else 0
    except (CichonError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=err)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))
