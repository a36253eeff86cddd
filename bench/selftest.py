"""Self-test of the benchmark itself:

    python3 bench/selftest.py

1. Smoke: each workload at tiny scale goes through the full pipeline of a
   run, untraced and traced; every op type runs and no op fails.
2. Negative: the oracle must count a corrupted stdout and a wrong exit
   code as failed ops.
Exits 0 when both hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import oracle
import run
import workloads


def smoke() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in ("0", "1"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                                 "--trace", trace, "--scale", "tiny"])
            last = json.loads(buf.getvalue().splitlines()[-1])
            if code != 0 or not last["correct"] or last["failed"]:
                problems.append(f"smoke {workload} trace={trace}:\n{buf.getvalue()}")
    return problems


def negative() -> list[str]:
    sys.path.insert(0, run.SRC)
    from cichon import cli

    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        ops = workloads.generate("reals", 7, work, "tiny")
        ops += workloads.generate("trees", 7, os.path.join(work, "trees"), "tiny")
        for i, op in enumerate(ops):
            op["id"] = i
        outputs = {}
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(op["argv"], out, err)
            outputs[op["id"]] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        check = oracle.Oracle(run.SRC)
        problems = [f"clean output judged wrong: {r}" for r in run.judge(ops, outputs, check).values()]

        by_type = {}
        for op in ops:
            by_type.setdefault(op["type"], op["id"])
        corrupt, wrong_code = by_type["check-leq"], by_type["construct-dominator"]
        flipped = by_type["poset-sacks-leq"]
        payload = json.loads(outputs[corrupt]["stdout"])
        payload["threshold"] += 1
        outputs[corrupt]["stdout"] = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        outputs[flipped]["stdout"] = outputs[flipped]["stdout"].replace("true", "false")
        outputs[wrong_code]["code"] = 1
        wrong = run.judge(ops, outputs, check)
        if set(wrong) != {corrupt, flipped, wrong_code}:
            problems.append(f"oracle flagged {sorted(wrong)}, expected {sorted({corrupt, flipped, wrong_code})}")
        result = {"passes": [[0.0] * len(ops)] * 2, "failures": []}
        attempted, failed = run.count_failures(result, ops, wrong)
        if (attempted, failed) != (2 * len(ops), 2 * len(wrong)):
            problems.append(f"counted {failed} of {attempted} as failed")
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    problems = smoke() + negative()
    for problem in problems:
        print(problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
