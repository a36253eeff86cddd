"""The cichon benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload reals|trees|conditions --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout (it uses `src/` from there).  The
seed generates the workload's input files (bench/workloads.py) before any
timing.  Then:

- `--trace 0` measures set-up time on fresh `python -m cichon` processes
  running the workload's first op, and runs the closed loop (bench/loop.py,
  one process, one client) for S seconds; it prints the end-to-end metrics.
- `--trace 1` runs the loop with untraced and traced passes alternating
  and prints the per-layer metrics (bench/tracing.py).

After the loop, every op's output is checked by bench/oracle.py.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from loop import KERNEL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PROCESSES = 9
LOOP_TIMEOUT_S = 150
PATH_OPTIONS = ("--f", "--g", "--family", "--a", "--b", "--cond", "--lift")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def measure_setup(op: dict, env: dict) -> tuple[list[float], list[str]]:
    """Wall seconds of fresh `python -m cichon` processes running one op."""
    seconds, problems = [], []
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "cichon", *op["argv"]], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
        )
        seconds.append(time.perf_counter() - start)
        if done.returncode != op["expect"]:
            problems.append(f"set-up process exited {done.returncode}, expected {op['expect']}")
    return seconds, problems


def run_loop(work: str, seconds: float, trace: bool, env: dict) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "loop.py"), work, str(seconds), str(int(trace))],
        cwd=ROOT, env=env, check=True, timeout=LOOP_TIMEOUT_S,
    )
    with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def judge(ops: list[dict], outputs: dict, check: oracle.Oracle) -> dict[int, str]:
    """{op id: reason} for every op whose first-pass output is wrong."""
    failed = {}
    for op in ops:
        got = outputs[op["id"]]
        if not isinstance(got["code"], int):
            failed[op["id"]] = got["code"]
            continue
        reason = check.check(op, got["code"], got["stdout"], got["stderr"])
        if reason:
            failed[op["id"]] = reason
    return failed


def read_outputs(work: str, ops: list[dict]) -> dict:
    outputs = {}
    for op in ops:
        with open(os.path.join(work, "out", f"{op['id']}.json"), encoding="utf-8") as handle:
            outputs[op["id"]] = json.load(handle)
    return outputs


def count_failures(result: dict, ops: list[dict], wrong: dict) -> tuple[int, int]:
    """(attempted, failed) over the timed executions of the ops."""
    keys = [f"p{i}" for i in range(len(result["passes"]))]
    keys += [f"t{i}" for i in range(len(result.get("traced", ())))]
    failed = {(key, op_id) for key, op_id, _ in result["failures"]}
    failed |= {(key, op_id) for key in keys for op_id in wrong}
    return len(keys) * len(ops), len(failed)


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """Times scaled to the reference host speed by the kernel timings taken
    next to them (the median of five neighbours, against single slow ones)."""
    return [
        t * KERNEL_REF_S / statistics.median(kernels[max(0, i - 2): i + 3])
        for i, t in enumerate(times)
    ]


def op_times(passes: list[list[float]], kernels: list[list[float]]) -> list[float]:
    """Each op's median scaled time over the passes."""
    return [statistics.median(ts) for ts in zip(*(scaled(t, k) for t, k in zip(passes, kernels)))]


def end_to_end(result: dict, setup: list[float]) -> dict:
    """name -> (value, unit, samples).

    Op times are scaled to the reference host speed (bench/loop.py), and
    each op's time is its median over the run's passes; throughput and
    percentiles are taken over those per-op times.  Set-up time is the
    plain median wall time of the fresh processes.
    """
    times = sorted(op_times(result["passes"], result["kernels"]))
    return {
        "ops_per_s": (len(times) / sum(times), "ops/s", len(result["passes"])),
        "op_p50_ms": (1e3 * statistics.median(times), "ms", len(times)),
        "op_p90_ms": (1e3 * statistics.quantiles(times, n=10)[-1], "ms", len(times)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (result["maxrss_kib"] / 1024, "MiB", 1),
    }


def host_notes(result: dict) -> list[str]:
    """The host's speed during the run and the unscaled throughput."""
    kernels = [k for ks in result["kernels"] for k in ks]
    raw = [statistics.median(ts) for ts in zip(*result["passes"])]
    return [
        f"host speed {KERNEL_REF_S / statistics.median(kernels):.3f} of the reference "
        f"(kernel median {1e6 * statistics.median(kernels):.0f} us, reference {1e6 * KERNEL_REF_S:.0f} us)",
        f"unscaled ops_per_s {len(raw) / sum(raw):.6g}",
    ]


# spans reported as <span>.calls and <span>.self_s ("cli.run" self time is cli.self_s)
COUNTED_SPANS = (
    "cli.run",
    "combinatorics.least_threshold", "combinatorics.family_report", "combinatorics.construct",
    "constructions.family_dominator", "constructions.least_avoider",
    "constructions.round_robin_ioe", "constructions.family_slalom",
    "constructions.sum_evader_bound",
    "posets.children", "posets.validate", "posets.leq", "posets.fusion_leq",
    "posets.splitting_nodes", "posets.canonical_enum",
    "projections.project", "projections.lift",
    "diagram.enumerate_cuts",
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(result: dict, ops: list[dict], outputs: dict) -> tuple[dict, list[str]]:
    """name -> (value, unit, samples), plus notes on the trace itself.

    Counts are per pass of the ops.  Times are each span's self time per
    pass, scaled by the pass's median kernel time and then the median over
    the traced passes, like the per-op times of the end-to-end run.
    The knowledge-base load and `propagate` (whose only CLI caller is that
    load) happen once per process, in the warm-up pass, and are reported
    from it.
    """
    traced = result["traced"]
    first = traced[0]
    notes = []
    if any(t["calls"] != first["calls"] or t["counters"] != first["counters"] for t in traced):
        notes.append("call counts differ between traced passes")
    if result["missing"]:
        notes.append("not found, reported with 0 calls: " + ", ".join(result["missing"]))

    def self_s(span):
        return statistics.median(
            t["self_s"][span] * KERNEL_REF_S / statistics.median(t["kernels"]) for t in traced
        )

    n = len(traced)
    c = first["counters"]
    warm = result["warmup"]
    out = {
        "cli.self_s": (self_s("cli.run"), "s", n),
        "cli.decode_s": (self_s("cli.decode"), "s", n),
        "cli.encode_s": (self_s("cli.encode"), "s", n),
        "cli.bytes_in": (sum(
            os.path.getsize(path)
            for op in ops
            for flag, path in zip(op["argv"], op["argv"][1:])
            if flag in PATH_OPTIONS
        ), "bytes", 1),
        "cli.bytes_out": (sum(len(o["stdout"].encode()) for o in outputs.values()), "bytes", 1),
        "combinatorics.positions": (c["positions"], "count", n),
        "posets.validate_per_compare": (_ratio(c["compare_validates"], c["compares"]), "ratio", n),
        "posets.tree_nodes": (c["tree_nodes"], "count", n),
        "projections.lift_rejected": (_ratio(c["lifts_rejected"], c["lift_attempts"]), "ratio", n),
        "diagram.kb_load_s": (warm["first_s"].get("diagram.kb_load", 0.0), "s", 1),
        "diagram.propagate.calls": (warm["calls"]["diagram.propagate"], "count", 1),
        "diagram.propagate.self_s": (warm["self_s"]["diagram.propagate"], "s", 1),
        "diagram.emit.self_s": (self_s("diagram.emit"), "s", n),
        "trace.overhead_ratio": (
            sum(op_times([t["times"] for t in traced], [t["kernels"] for t in traced]))
            / sum(op_times(result["passes"], result["kernels"])),
            "ratio", n,
        ),
    }
    for span in COUNTED_SPANS:
        out[f"{span}.calls"] = (first["calls"][span], "count", n)
        if span != "cli.run":
            out[f"{span}.self_s"] = (self_s(span), "s", n)
    layers: dict[str, float] = {}
    for span in first["self_s"]:
        layers[span.split(".")[0]] = layers.get(span.split(".")[0], 0.0) + self_s(span)
    total = sum(layers.values()) or 1.0
    notes.append("self-time share by layer: " + ", ".join(
        f"{layer} {100 * t / total:.1f}%" for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])
    ))
    return dict(sorted(out.items())), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cichon", "cli.py")):
        print(f"no cichon sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    env = program_env()
    ops = workloads.generate(args.workload, args.seed, os.path.join(work, "in"), args.scale)
    with open(os.path.join(work, "ops.json"), "w", encoding="utf-8") as handle:
        json.dump(ops, handle)
    props = workloads.describe(ops)
    print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(props)}")

    problems, setup = [], []
    if not args.trace:
        setup, problems = measure_setup(ops[0], env)
    result = run_loop(work, args.seconds, bool(args.trace), env)
    outputs = read_outputs(work, ops)
    wrong = judge(ops, outputs, oracle.Oracle(SRC))
    attempted, failed = count_failures(result, ops, wrong)
    for op_id, reason in sorted(wrong.items()):
        problems.append(f"op {op_id} {' '.join(ops[op_id]['argv'][:5])}: {reason}")
    for key, op_id, reason in result["failures"][:20]:
        problems.append(f"pass {key} op {op_id}: {reason}")

    if args.trace:
        metrics, notes = per_layer(result, ops, outputs)
        spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
        os.replace(os.path.join(work, "spans.json"), spans)
        notes.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics, notes = end_to_end(result, setup), host_notes(result)
        print(f"fail_ratio {failed / attempted:.6g} ratio (n={attempted} ops)")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    for line in notes + problems:
        print(line)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
