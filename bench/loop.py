"""The closed loop: one client calling `cichon.cli.run` in this process.

Run by `run.py` as its own process, so that its peak RSS is the loop's:

    python3 bench/loop.py WORKDIR SECONDS TRACE

WORKDIR holds `ops.json`.  A warm-up pass runs every op once, fills the
program's lazy caches (the knowledge base) and writes each op's exit code,
stdout and stderr to WORKDIR/out for the oracle.  Timed passes then repeat
the ops until SECONDS have passed; each op is timed alone, next to a
timing of a fixed reference kernel, and its exit code and stdout must
match the warm-up's.  With TRACE=1, untraced and traced passes alternate
and the traced ones report per-layer counts and self times.  The result
goes to WORKDIR/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import sys
import time

MIN_PASSES = 3
MIN_OPS = 100

# The host's speed swings by up to 2x over seconds to minutes (shared
# cores).  A fixed kernel of standard-library work like the CLI's own
# (build and run an argparse parser, a JSON round trip, validate and wrap
# a tuple of naturals) runs before every op; its time next to the op gives
# the host's speed at that moment.  KERNEL_REF_S is its time at the
# reference speed that the reported figures are scaled to.
KERNEL_REF_S = 700e-6
_KERNEL_DOC = {"v": list(range(300)), "w": [str(v) for v in range(50)]}


def kernel() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        p.add_argument("--x", required=True)
        p.add_argument("--y", type=int, default=4)
    parser.parse_args(["b", "--x", "f.json", "--y", "3"])
    values = tuple(json.loads(json.dumps(_KERNEL_DOC, indent=2, sort_keys=True))["v"])
    if any(not isinstance(v, int) or v < 0 for v in values):
        raise ValueError("kernel document corrupted")
    cells = tuple(frozenset((v, v + 1)) for v in values[:100])
    sum(1 for i in range(len(values)) if values[i] <= values[-1 - i]) + len(cells)
    return time.perf_counter() - start


def run_op(cli, op):
    """(exit code or exception name, stdout digest, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run(op["argv"], out, err)
    except Exception as exc:  # an escape from cli.run is a failed op, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    return code, hashlib.blake2b(text.encode()).hexdigest(), seconds, text, err.getvalue()


def warm_up(cli, ops, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    reference = []
    for op in ops:
        code, digest, _, text, err = run_op(cli, op)
        with open(os.path.join(out_dir, f"{op['id']}.json"), "w", encoding="utf-8") as handle:
            json.dump({"code": code, "stdout": text, "stderr": err}, handle)
        reference.append((code, digest))
    return reference


def timed_pass(cli, ops, reference, failures, key):
    """(per-op seconds, kernel seconds before each op); failed executions
    go to `failures` as (key, op id, reason)."""
    times, kernels = [], []
    for op, expected in zip(ops, reference):
        kernels.append(kernel())
        code, digest, seconds, _, _ = run_op(cli, op)
        times.append(seconds)
        if not isinstance(code, int) or code not in (0, 1, 2):
            failures.append((key, op["id"], f"exit {code}"))
        elif (code, digest) != expected:
            failures.append((key, op["id"], "exit code or stdout differs from the first pass"))
    return times, kernels


def main(work, seconds, trace):
    from cichon import cli

    with open(os.path.join(work, "ops.json"), encoding="utf-8") as handle:
        ops = json.load(handle)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    reference = warm_up(cli, ops, os.path.join(work, "out"))
    result = {"passes": [], "kernels": [], "failures": []}
    if tracer is not None:
        tracer.remove()
        result["warmup"] = {"calls": tracer.calls, "self_s": tracer.self_s, "first_s": tracer.first_s}
        result.update(traced=[], missing=tracer.missing)
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(result["passes"]) < MIN_PASSES
        or len(result["passes"]) * len(ops) < MIN_OPS
    ):
        key = f"p{len(result['passes'])}"
        times, kernels = timed_pass(cli, ops, reference, result["failures"], key)
        result["passes"].append(times)
        result["kernels"].append(kernels)
        if tracer is None:
            continue
        tracer.reset()
        tracer.record_spans = not result["traced"]
        tracer.install()
        times, kernels = timed_pass(cli, ops, reference, result["failures"], "t" + key[1:])
        tracer.remove()
        result["traced"].append({
            "times": times, "kernels": kernels, "calls": tracer.calls,
            "self_s": tracer.self_s, "counters": tracer.counters,
        })
    if tracer is not None:
        with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "id", "parent"], "spans": tracer.spans,
                 "dropped": tracer.spans_dropped},
                handle,
            )
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
